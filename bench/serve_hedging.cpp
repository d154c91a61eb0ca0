// Straggler shortening via speculative member hedging vs steal-only.
//
//   $ ./serve_hedging [rounds] [base_us] [slow_factor]
//
// One 4-member parallel assembly where ONE member — chosen at random each
// round — has a slow ORIGINAL execution: the member hook charges it
// `slow_factor` x `base_us` of service time while every sibling (and every
// hedge duplicate) costs `base_us`. This is exactly the case PR 4's work
// stealing cannot help: the member is already running, just slowly, on an
// executor that drew a bad round — migration moves work, it cannot shorten
// it. Sleep-based delays, so the overlap is real even on the 1-core dev
// container. Both modes run the same closed loop: seal one full batch, wait
// for it, repeat.
//
//   steal-only   EngineOptions::hedging = false (stealing on) — the round
//                always pays the full slow execution: ~slow + overheads.
//   hedging      idle workers duplicate the straggling last member once it
//                runs past hedge_factor x the service EWMA; the duplicate
//                (a fresh executor, so `base_us`) wins the result slot and
//                the round costs ~(trigger + base) instead of ~slow.
//
// With the defaults (2 ms base, 8x slow, EWMA settling near base so the
// trigger sits near 4 x 2 ms = 8 ms): ~16 ms vs ~10 ms per round, a ~1.5x
// p99 gap gated at 0.95x, best-of-two against noisy-host oversleep
// outliers — same discipline as bench/serve_stealing. Every result is also
// checked bit-exact against a direct single-LPU run of the same netlist:
// hedging is redundancy, never a semantics change; one mismatching bit
// fails the bench regardless of the latency numbers.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;
using SteadyClock = std::chrono::steady_clock;

constexpr std::uint32_t kMembers = 4;
constexpr std::size_t kLanes = 16;  // m = 8 -> 16-lane words

struct ModeResult {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t mismatches = 0;
  ServeReport report;
};

/// Oracle: the single-LPU compile of the same netlist run directly on a
/// width-1 word — the member-partitioned, stolen, hedged assembly must
/// reproduce it bit for bit.
std::vector<bool> direct_run(LpuSimulator& sim, const Netlist& nl,
                             const std::vector<bool>& bits) {
  std::vector<BitVec> inputs(nl.num_inputs(), BitVec(1));
  for (std::size_t pi = 0; pi < bits.size(); ++pi) {
    if (bits[pi]) inputs[pi].set(0, true);
  }
  const std::vector<BitVec> out = sim.run(inputs);
  std::vector<bool> result(out.size());
  for (std::size_t po = 0; po < out.size(); ++po) result[po] = out[po].get(0);
  return result;
}

ModeResult run_mode(bool hedging, const Netlist& nl, LpuSimulator& oracle,
                    int rounds, std::chrono::microseconds base,
                    std::chrono::microseconds slow) {
  EngineOptions eopt;
  // kMembers hands for the batch plus one spare so a hedge never has to
  // wait for the straggler's own worker (on the 1-core container threads
  // time-share anyway; sleeps keep the overlap honest).
  eopt.num_workers = kMembers + 1;
  eopt.batch_timeout = std::chrono::hours(1);  // only lane-full seals
  eopt.compile.lpu.m = 8;
  eopt.compile.lpu.n = 8;
  eopt.hedging = hedging;
  eopt.hedge_factor = 4;
  Engine engine(eopt);
  const ModelHandle h = engine.load_parallel("straggler", nl, kMembers);

  // One member per round draws the slow executor; its ORIGINAL pays
  // slow_factor x base, while siblings and hedge duplicates pay base — the
  // duplicate models re-running the work on a healthy executor.
  std::atomic<int> slow_member{0};
  engine.set_member_hook([base, slow, &slow_member](const std::string&,
                                                    std::size_t member,
                                                    bool hedge) {
    const bool straggler =
        !hedge && static_cast<int>(member) == slow_member.load();
    std::this_thread::sleep_for(straggler ? slow : base);
  });

  constexpr int kWarmup = 8;  // simulator construction + EWMA settling
  Rng rng(29);
  std::vector<double> round_us;
  round_us.reserve(static_cast<std::size_t>(rounds));
  ModeResult r;
  std::vector<std::vector<bool>> sent(kLanes);
  for (int round = -kWarmup; round < rounds; ++round) {
    slow_member.store(static_cast<int>(rng.next_below(kMembers)));
    std::vector<std::future<std::vector<bool>>> futs;
    futs.reserve(kLanes);
    const auto t0 = SteadyClock::now();
    for (std::size_t i = 0; i < kLanes; ++i) {
      std::vector<bool> bits(nl.num_inputs());
      for (std::size_t pi = 0; pi < bits.size(); ++pi) {
        bits[pi] = rng.next_bool();
      }
      sent[i] = bits;
      futs.push_back(engine.submit(h, std::move(bits)));  // 16th seals inline
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (futs[i].get() != direct_run(oracle, nl, sent[i])) ++r.mismatches;
    }
    if (round < 0) continue;  // warmup: run it, don't record it
    round_us.push_back(
        std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
            .count());
  }
  r.p50_us = bench::percentile(round_us, 50.0);
  r.p99_us = bench::percentile(round_us, 99.0);
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
            << r.report.steals << "), hedges " << r.report.hedges_launched
            << " launched / " << r.report.hedge_wins << " won, wasted "
            << r.report.hedge_wasted_us << " us\n"
            << "  oracle mismatches " << r.mismatches << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const long long rounds_arg = argc > 1 ? std::atoll(argv[1]) : 120;
  const int rounds = rounds_arg > 0 ? static_cast<int>(rounds_arg) : 120;
  const long long base_arg = argc > 2 ? std::atoll(argv[2]) : 2000;
  const auto base = std::chrono::microseconds(base_arg > 0 ? base_arg : 2000);
  const long long factor_arg = argc > 3 ? std::atoll(argv[3]) : 8;
  const auto slow = base * (factor_arg > 1 ? factor_arg : 8);

  Rng gen(23);
  RandomCircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_gates = 96;
  spec.num_outputs = 8;  // >= kMembers POs to split across the assembly
  const Netlist nl = random_dag(spec, gen);
  CompileOptions copt;
  copt.lpu.m = 8;
  copt.lpu.n = 8;
  const CompileResult compiled = compile(nl, copt);
  LpuSimulator oracle(compiled.program);

  std::cout << kMembers << "-member assembly, one random member's original "
            << "slowed to " << slow.count() << " us vs " << base.count()
            << " us siblings/duplicates, " << rounds << " rounds per mode, "
            << std::thread::hardware_concurrency() << " core(s)\n\n";

  // Acceptance gate, mirrored by CI: duplicating the straggler must show up
  // in the tail, hedges must actually win, and every output must match the
  // single-execution oracle. Best-of-two on the latency half: a single
  // attempt can lose to asymmetric oversleep outliers on a loaded host; a
  // real regression fails both. A single bit mismatch fails immediately.
  bool latency_ok = false;
  bool exact_ok = true;
  std::uint64_t wins = 0;
  double hedged_p50 = 0.0, hedged_p99 = 0.0, hedged_rps = 0.0;
  for (int attempt = 0; attempt < 2 && !latency_ok && exact_ok; ++attempt) {
    if (attempt > 0) {
      std::cout << "latency gate missed; retrying once (noisy host?)\n\n";
    }
    const ModeResult steal_only =
        run_mode(/*hedging=*/false, nl, oracle, rounds, base, slow);
    print_mode("steal-only (hedging = false)", steal_only);
    const ModeResult hedged =
        run_mode(/*hedging=*/true, nl, oracle, rounds, base, slow);
    print_mode("hedging", hedged);

    std::cout << "batch p99: " << std::fixed << std::setprecision(0)
              << steal_only.p99_us << " -> " << hedged.p99_us << " us";
    if (hedged.p99_us > 0.0) {
      std::cout << " (" << std::setprecision(2)
                << steal_only.p99_us / hedged.p99_us << "x)";
    }
    std::cout << "\n";
    exact_ok = steal_only.mismatches == 0 && hedged.mismatches == 0;
    wins = hedged.report.hedge_wins;
    latency_ok = hedged.p99_us < 0.95 * steal_only.p99_us && wins > 0;
    hedged_p50 = hedged.p50_us;
    hedged_p99 = hedged.p99_us;
    hedged_rps = hedged.report.requests_per_sec;
  }
  const bool ok = latency_ok && exact_ok;
  std::cout << (ok ? "PASS" : "FAIL")
            << ": p99(hedging) < 0.95 x p99(steal-only), hedge_wins > 0 ("
            << wins << "), outputs bit-exact vs oracle\n";
  lbnn::bench::emit_bench_json("serve_hedging", hedged_p50, hedged_p99,
                               hedged_rps, ok);
  return ok ? 0 : 1;
}
