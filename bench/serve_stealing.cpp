// Straggler hiding via member-level work stealing vs serial member runs.
//
//   $ ./serve_stealing [rounds] [base_us] [slow_factor]
//
// One 4-member parallel assembly with an artificial straggler: the member
// hook charges member 0 `slow_factor` x `base_us` of service time and every
// other member `base_us` (sleep-based, so the overlap is real however few
// cores the host has — sleeping threads overlap regardless of cores). Both
// modes run the same closed-loop workload: seal one full batch, wait for it,
// repeat; per-round batch latency feeds the percentiles.
//
//   one worker   the baseline: with one batch in flight per round and no
//                idle worker to steal, the worker that dequeues the batch
//                runs all 4 members itself, so every round pays
//                3 x base + slow sequentially.
//   stealing     4 workers: idle workers steal the remaining members off the
//                batch's atomic cursor, so the fast members overlap the
//                straggler and the round costs ~max(slow, base).
//
// The claim under test: with one member slowed 8x, p99 batch latency under
// member stealing is measurably below serial member runs. Expected
// ~(slow + 3 x base) vs ~slow: 22 ms vs 16 ms at the defaults, a ~1.4x gap
// gated at 0.95x. The defaults are sized for a noisy shared host: nanosleep
// oversleep outliers run to a few ms regardless of the sleep length, so the
// structural gap (3 x base = 6 ms) must dominate the worst single outlier.
// Each mode also runs a few unrecorded warmup rounds (simulator
// construction, thread wake-up) and enough recorded rounds that p99 is a
// real percentile rather than the single worst round; and because a loaded
// kernel can still land two multi-ms oversleeps in one mode's tail while
// sparing the other's, the gate is best-of-two — a flaky host must get
// unlucky twice in a row to fail a real improvement.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "netlist/random_circuits.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;
using SteadyClock = std::chrono::steady_clock;

constexpr std::uint32_t kMembers = 4;

struct ModeResult {
  std::vector<double> round_us;  ///< per-round (= per-batch) latency
  double p50_us = 0.0;
  double p99_us = 0.0;
  ServeReport report;
};

ModeResult run_mode(std::uint32_t workers, const Netlist& nl, int rounds,
                    std::chrono::microseconds base,
                    std::chrono::microseconds slow) {
  EngineOptions eopt;
  eopt.num_workers = workers;
  // Every round fills the lane, so batches always seal inline; a short
  // timeout would let the timekeeper split a round's 16 submits into two
  // batches whenever the submitting thread is preempted, doubling that
  // round's straggler cost and polluting the percentile with seal jitter.
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.compile.lpu.m = 8;  // 16-lane words
  eopt.compile.lpu.n = 8;
  Engine engine(eopt);
  const ModelHandle h = engine.load_parallel("straggler", nl, kMembers);
  // The artificial straggler: member 0 is slow_factor x slower than its
  // siblings. Charged inside the timed region, so it lands in the service
  // EWMA and the member/straggler-gap percentiles like real compute would.
  engine.set_member_hook(
      [base, slow](const std::string&, std::size_t member) {
        std::this_thread::sleep_for(member == 0 ? slow : base);
      });

  const std::size_t lanes = 16;
  constexpr int kWarmup = 8;  // simulator construction, worker wake-up
  Rng rng(17);
  std::vector<bool> bits(nl.num_inputs());
  ModeResult r;
  r.round_us.reserve(static_cast<std::size_t>(rounds));
  for (int round = -kWarmup; round < rounds; ++round) {
    std::vector<std::future<std::vector<bool>>> futs;
    futs.reserve(lanes);
    const auto t0 = SteadyClock::now();
    for (std::size_t i = 0; i < lanes; ++i) {
      for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
      futs.push_back(engine.submit(h, bits));  // 16th submit seals inline
    }
    for (auto& f : futs) f.get();
    if (round < 0) continue;  // warmup: run it, don't record it
    r.round_us.push_back(
        std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
            .count());
  }
  r.p50_us = bench::percentile(r.round_us, 50.0);
  r.p99_us = bench::percentile(r.round_us, 99.0);
  r.report = engine.report();
  engine.set_member_hook(nullptr);
  engine.shutdown();
  return r;
}

void print_mode(const char* name, const ModeResult& r) {
  std::cout << name << ":\n"
            << "  batch latency p50 " << std::fixed << std::setprecision(0)
            << r.p50_us << " us, p99 " << r.p99_us << " us\n"
            << "  member runs " << r.report.member_runs << " (stolen "
            << r.report.steals << "), member service p99 "
            << r.report.member_p99_us << " us\n"
            << "  straggler gap p50 " << r.report.straggler_gap_p50_us
            << " us, p99 " << r.report.straggler_gap_p99_us << " us\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const long long rounds_arg = argc > 1 ? std::atoll(argv[1]) : 120;
  const int rounds = rounds_arg > 0 ? static_cast<int>(rounds_arg) : 120;
  const long long base_arg = argc > 2 ? std::atoll(argv[2]) : 2000;
  const auto base = std::chrono::microseconds(base_arg > 0 ? base_arg : 2000);
  const long long factor_arg = argc > 3 ? std::atoll(argv[3]) : 8;
  const auto slow = base * (factor_arg > 1 ? factor_arg : 8);

  Rng gen(13);
  RandomCircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_gates = 96;
  spec.num_outputs = 8;  // >= kMembers POs to split across the assembly
  const Netlist nl = random_dag(spec, gen);

  std::cout << kMembers << "-member assembly, member 0 slowed to "
            << slow.count() << " us vs " << base.count()
            << " us siblings, " << rounds << " rounds per mode, "
            << std::thread::hardware_concurrency() << " core(s)\n\n";

  // Acceptance gate, mirrored by CI: hiding the straggler behind its
  // siblings must show up in the tail, and stealing must actually happen.
  // Best-of-two: a single attempt can lose to asymmetric oversleep outliers
  // on a loaded host, a real regression fails both.
  bool ok = false;
  double steal_p50 = 0.0, steal_p99 = 0.0, steal_rps = 0.0;
  for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
    if (attempt > 0) {
      std::cout << "gate missed; retrying once (noisy host?)\n\n";
    }
    const ModeResult serial = run_mode(1, nl, rounds, base, slow);
    print_mode("one worker (serial member runs)", serial);
    // Enough hands for every member of one batch.
    const ModeResult steal = run_mode(kMembers, nl, rounds, base, slow);
    print_mode("member stealing", steal);

    std::cout << "batch p99: " << std::fixed << std::setprecision(0)
              << serial.p99_us << " -> " << steal.p99_us << " us";
    if (steal.p99_us > 0.0) {
      std::cout << " (" << std::setprecision(2) << serial.p99_us / steal.p99_us
                << "x)";
    }
    std::cout << "\n";
    ok = steal.p99_us < 0.95 * serial.p99_us && steal.report.steals > 0;
    steal_p50 = steal.p50_us;
    steal_p99 = steal.p99_us;
    steal_rps = steal.report.requests_per_sec;
  }
  std::cout << (ok ? "PASS" : "FAIL")
            << ": p99(stealing) < 0.95 x p99(one worker) and steals > 0\n";
  lbnn::bench::emit_bench_json("serve_stealing", steal_p50, steal_p99,
                               steal_rps, ok);
  return ok ? 0 : 1;
}
