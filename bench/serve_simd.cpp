// Bit-sliced SIMD member execution vs the scalar oracle interpreter.
//
//   $ ./serve_simd [rounds] [gates] [word_width]
//
// The standard anchor: a 4-worker engine serving one single-member model
// compiled from a ~400-gate random DAG at a 2048-lane batch width — wide
// enough that one member run is real compute (tens of microseconds bit-
// sliced, hundreds scalar) and every lane of every output is checked against
// a netlist-level reference. Both modes run the identical closed-loop
// workload: keep kBatchesInFlight full batches in flight, wait for all of
// them, repeat; the gated metric is the engine's member service-time p99
// (ServeReport::member_p99_us — the hook + LpuSimulator::run region), which
// is exactly the cost every scheduler feature built in PRs 2-7 multiplies.
//
//   scalar       EngineOptions::simd = false — the original BitVec-at-a-time
//                interpreter, kept alive as the bit-exactness oracle (the
//                same baseline pattern as hedging=false).
//   bit-sliced   EngineOptions::simd = true (the default) — gate evaluation
//                on packed 64-bit words across the full batch width, AVX2
//                when the CPU has it (LBNN_NO_AVX2 / LBNN_FORCE_SCALAR
//                override; see SimdKernel).
//
// The claim under test (ISSUE 8 acceptance): bit-sliced member execution is
// >= 4x faster than scalar at p99, with zero output mismatches in either
// mode. Lane inputs are fixed per lane across rounds so the netlist
// reference (simulate_scalar) is computed once per lane, then every future
// of every round is compared bit for bit — a lane-masking or routing bug in
// the kernel fails the gate even if it is fast. Best-of-two attempts, same
// as the other serving benches: on a loaded 1-core host a single attempt
// can lose to preemption landing in one mode's tail; a real regression
// fails twice.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;

// Measured rounds keep ONE batch in flight: a single-member model means one
// member run at a time, so on a small host the timed region is the member's
// actual service time, not its timeslice share — four concurrent batches on
// one core would inflate the short bit-sliced runs' tail by preemption alone
// and the gate would measure the scheduler, not the kernel. Warmup rounds
// keep one batch in flight PER WORKER instead, so every worker constructs
// its lazily-built simulator (which happens inside the timed member region)
// before measurement; reset_stats() then drops the warmup samples.
constexpr std::size_t kBatchesInFlight = 1;
constexpr std::size_t kWarmupInFlight = 4;  // one per worker

struct ModeResult {
  ServeReport report;
  std::uint64_t mismatches = 0;
  double wall_s = 0.0;
};

ModeResult run_mode(bool simd, const Netlist& nl, int rounds,
                    std::uint32_t word_width,
                    const std::vector<std::vector<bool>>& lane_inputs,
                    const std::vector<std::vector<bool>>& expected) {
  EngineOptions eopt;
  eopt.num_workers = 4;  // the standard anchor
  eopt.batch_timeout = std::chrono::hours(1);  // seal on full lanes only
  eopt.compile.lpu.m = 8;
  eopt.compile.lpu.n = 8;
  eopt.compile.lpu.word_width = word_width;
  eopt.simd = simd;
  // Isolate the execution kernel: hedging would launch duplicate member runs
  // whose cancelled losers pollute the service-time percentiles.
  eopt.hedging = false;
  Engine engine(eopt);
  const ModelHandle h = engine.load(simd ? "simd" : "scalar", nl);

  const std::size_t lanes = lane_inputs.size();
  constexpr int kWarmup = 6;  // simulator + arena construction, worker wake-up
  ModeResult r;
  const auto one_round = [&](std::size_t in_flight) {
    std::vector<std::future<std::vector<bool>>> futs;
    futs.reserve(in_flight * lanes);
    for (std::size_t b = 0; b < in_flight; ++b) {
      for (std::size_t i = 0; i < lanes; ++i) {
        futs.push_back(engine.submit(h, lane_inputs[i]));
      }
    }
    for (std::size_t f = 0; f < futs.size(); ++f) {
      const std::vector<bool> got = futs[f].get();
      if (got != expected[f % lanes]) ++r.mismatches;
    }
  };
  for (int round = 0; round < kWarmup; ++round) one_round(kWarmupInFlight);
  engine.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) one_round(kBatchesInFlight);
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
  r.report = engine.report();
  engine.shutdown();
  return r;
}

void print_mode(const char* name, const ModeResult& r) {
  std::cout << name << ":\n"
            << "  member service p50 " << r.report.member_p50_exact_us
            << " us, p99 " << r.report.member_p99_exact_us << " us ("
            << r.report.member_runs << " runs; octave buckets "
            << r.report.member_p50_us << "/" << r.report.member_p99_us
            << ")\n"
            << "  requests/s " << std::fixed << std::setprecision(0)
            << r.report.requests_per_sec << ", mismatches " << r.mismatches
            << ", wall " << std::setprecision(2) << r.wall_s << " s\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const long long rounds_arg = argc > 1 ? std::atoll(argv[1]) : 200;
  const int rounds = rounds_arg > 0 ? static_cast<int>(rounds_arg) : 200;
  const long long gates_arg = argc > 2 ? std::atoll(argv[2]) : 400;
  const long long ww_arg = argc > 3 ? std::atoll(argv[3]) : 2048;
  const std::uint32_t word_width =
      ww_arg > 0 ? static_cast<std::uint32_t>(ww_arg) : 2048;

  Rng gen(13);
  RandomCircuitSpec spec;
  spec.num_inputs = 12;
  spec.num_gates = gates_arg > 0 ? static_cast<std::size_t>(gates_arg) : 400;
  spec.num_outputs = 8;
  const Netlist nl = random_dag(spec, gen);

  // Fixed per-lane inputs: the netlist reference is computed once per lane,
  // then every future of every round is checked against it bit for bit.
  Rng lane_rng(29);
  std::vector<std::vector<bool>> lane_inputs(word_width);
  std::vector<std::vector<bool>> expected(word_width);
  for (std::size_t i = 0; i < word_width; ++i) {
    lane_inputs[i].resize(nl.num_inputs());
    for (std::size_t pi = 0; pi < lane_inputs[i].size(); ++pi) {
      lane_inputs[i][pi] = lane_rng.next_bool();
    }
    expected[i] = simulate_scalar(nl, lane_inputs[i]);
  }

  std::cout << "4-worker engine, " << spec.num_gates << "-gate DAG, "
            << word_width << "-lane batches, " << kBatchesInFlight
            << " in flight, " << rounds << " rounds per mode, bit-sliced "
            << "kernel " << to_string(LpuSimulator::resolve_kernel(true))
            << ", " << std::thread::hardware_concurrency() << " core(s)\n\n";

  // Acceptance gate, mirrored by CI: bit-sliced member execution >= 4x the
  // scalar oracle at p99, outputs bit-exact in both modes. Best-of-two.
  bool ok = false;
  double simd_p50 = 0.0, simd_p99 = 0.0, simd_rps = 0.0;
  for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
    if (attempt > 0) {
      std::cout << "gate missed; retrying once (noisy host?)\n\n";
    }
    const ModeResult scalar =
        run_mode(/*simd=*/false, nl, rounds, word_width, lane_inputs, expected);
    print_mode("scalar oracle (simd = false)", scalar);
    const ModeResult sliced =
        run_mode(/*simd=*/true, nl, rounds, word_width, lane_inputs, expected);
    print_mode("bit-sliced (simd = true)", sliced);

    const double p99_ratio =
        sliced.report.member_p99_exact_us > 0
            ? static_cast<double>(scalar.report.member_p99_exact_us) /
                  static_cast<double>(sliced.report.member_p99_exact_us)
            : 0.0;
    std::cout << "member p99: " << scalar.report.member_p99_exact_us << " -> "
              << sliced.report.member_p99_exact_us << " us (" << std::fixed
              << std::setprecision(2) << p99_ratio << "x)\n";
    ok = p99_ratio >= 4.0 && scalar.mismatches == 0 && sliced.mismatches == 0;
    simd_p50 = static_cast<double>(sliced.report.member_p50_exact_us);
    simd_p99 = static_cast<double>(sliced.report.member_p99_exact_us);
    simd_rps = sliced.report.requests_per_sec;
  }
  std::cout << (ok ? "PASS" : "FAIL")
            << ": p99(scalar) >= 4 x p99(bit-sliced) and zero mismatches\n";
  // p99 is structurally unmeasured here: the sample-exact member p99 sits at
  // tens of microseconds, where a single preemption on a shared runner reads
  // as a multi-x regression. The p99 property this bench owns is gated right
  // here as the scalar-vs-sliced RATIO (robust — both modes eat the same
  // host noise); the trajectory compare tracks the stable p50 and samples/s
  // instead, and the JSONL line says "p99_us":null so the comparer skips it
  // structurally rather than special-casing a 0.
  (void)simd_p99;
  lbnn::bench::emit_bench_json("serve_simd", simd_p50, lbnn::bench::unmeasured(),
                               simd_rps, ok);
  return ok ? 0 : 1;
}
