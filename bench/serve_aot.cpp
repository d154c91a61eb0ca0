// AOT-compiled native member execution vs the bit-sliced interpreter.
//
//   $ ./serve_aot [rounds] [gates] [word_width]
//
// Same anchor as serve_simd: a 4-worker engine, one single-member model from
// a ~400-gate random DAG, 2048-lane batches, one batch in flight during
// measurement, every lane of every output checked against the netlist
// reference. Three gates, mirrored by CI:
//
//   (a) steady-state: AOT member p99 >= 1.0x the bit-sliced interpreter's
//       (the artifact replays the identical sliced stream as straight-line
//       code — it must never LOSE to the interpreter; the win margin is
//       printed, not gated, because it is host-dependent). Both modes run
//       twice per attempt, interleaved, gating on each mode's min p99;
//       best-of-two attempts.
//   (b) promotion under live traffic: codegen is held back (program-cache
//       native hook) while real batches run on the interpreter, released
//       mid-workload, and the run continues across the promotion instant.
//       Every submitted future must resolve bit-exact, the engine's books
//       must balance (completed == submitted, zero shed/expired), and both
//       backends must appear in the member-run mix — zero dropped, zero
//       double-executed requests across the flip.
//   (c) warm restart: a second engine pointed at the same artifact_dir must
//       reach AOT-ready >= 10x faster than the cold engine that compiled the
//       artifact, with ZERO native recompiles (cache counters).
//
// Without a native compiler there is nothing to gate: every member stays on
// the sliced interpreter, so the bench says so and exits 0.
//
// The JSONL line reports the AOT mode's member p50 and requests/s; p99 is
// structurally unmeasured (null) — the p99 property is gated as the ratio
// in (a), robust to shared-runner noise that hits both modes equally.

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "aot/artifact.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;

constexpr std::size_t kBatchesInFlight = 1;  // see serve_simd's rationale
constexpr std::size_t kWarmupInFlight = 4;

struct ModeResult {
  ServeReport report;
  std::uint64_t mismatches = 0;
  double wall_s = 0.0;
};

EngineOptions anchor_options(std::uint32_t word_width, bool aot,
                             const std::string& artifact_dir) {
  EngineOptions eopt;
  eopt.num_workers = 4;
  eopt.batch_timeout = std::chrono::hours(1);  // seal on full lanes only
  eopt.compile.lpu.m = 8;
  eopt.compile.lpu.n = 8;
  eopt.compile.lpu.word_width = word_width;
  eopt.simd = true;
  eopt.aot = aot;
  eopt.artifact_dir = artifact_dir;
  return eopt;
}

ModeResult run_mode(bool aot, const std::string& artifact_dir,
                    const Netlist& nl, int rounds, std::uint32_t word_width,
                    const std::vector<std::vector<bool>>& lane_inputs,
                    const std::vector<std::vector<bool>>& expected) {
  Engine engine(anchor_options(word_width, aot, artifact_dir));
  const ModelHandle h = engine.load(aot ? "aot" : "sliced", nl);
  if (aot) engine.wait_aot_ready();  // measure promoted steady state only

  const std::size_t lanes = lane_inputs.size();
  constexpr int kWarmup = 6;
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
      if (futs[f].get() != expected[f % lanes]) ++r.mismatches;
    }
  };
  for (int round = 0; round < kWarmup; ++round) one_round(kWarmupInFlight);
  engine.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) one_round(kBatchesInFlight);
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.report = engine.report();
  engine.shutdown();
  return r;
}

void print_mode(const char* name, const ModeResult& r) {
  const auto& by = r.report.member_runs_by_backend;
  std::cout << name << ":\n"
            << "  member service p50 " << r.report.member_p50_us
            << " us, p99 " << r.report.member_p99_us << " us ("
            << r.report.member_runs << " runs: "
            << by[0] << " scalar / " << by[1] << " sliced / " << by[2]
            << " aot)\n"
            << "  requests/s " << std::fixed << std::setprecision(0)
            << r.report.requests_per_sec << ", mismatches " << r.mismatches
            << ", wall " << std::setprecision(2) << r.wall_s << " s\n\n";
}

/// Gate (b): serve real traffic on the interpreter while codegen is parked
/// on the native hook, release it mid-workload, keep serving across the
/// promotion instant. Returns true when the books balance bit-exactly.
bool promotion_gate(const Netlist& nl, std::uint32_t word_width,
                    const std::string& artifact_dir,
                    const std::vector<std::vector<bool>>& lane_inputs,
                    const std::vector<std::vector<bool>>& expected) {
  Engine engine(anchor_options(word_width, /*aot=*/true, artifact_dir));
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  engine.program_cache().set_native_hook([&] {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
  });
  const ModelHandle h = engine.load("promote", nl);

  const std::size_t lanes = lane_inputs.size();
  std::uint64_t submitted = 0, mismatches = 0;
  const auto serve_rounds = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      std::vector<std::future<std::vector<bool>>> futs;
      futs.reserve(lanes);
      for (std::size_t i = 0; i < lanes; ++i) {
        futs.push_back(engine.submit(h, lane_inputs[i]));
        ++submitted;
      }
      for (std::size_t f = 0; f < futs.size(); ++f) {
        if (futs[f].get() != expected[f % lanes]) ++mismatches;
      }
    }
  };

  serve_rounds(4);  // interpreter era: codegen is parked on the hook
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  serve_rounds(2);  // promotion lands somewhere in here
  engine.wait_aot_ready();
  serve_rounds(4);  // AOT era
  engine.drain();

  const ServeReport r = engine.report();
  const auto& by = r.member_runs_by_backend;
  const std::uint64_t by_sum = by[0] + by[1] + by[2];
  const bool balanced = r.requests == submitted && r.shed == 0 &&
                        r.expired == 0 && mismatches == 0 &&
                        by_sum == r.member_runs;
  const bool flipped = by[1] > 0 && by[2] > 0;
  std::cout << "promotion under live traffic: " << submitted
            << " submitted, " << r.requests << " completed, " << r.shed
            << " shed, " << r.expired << " expired, " << mismatches
            << " mismatches; member runs " << by[1] << " sliced -> "
            << by[2] << " aot\n";
  if (!flipped) {
    std::cout << "  (note: one era missing from the member-run mix)\n";
  }
  engine.shutdown();
  return balanced && flipped;
}

/// Gate (c): time-to-AOT-ready, cold (compiles the artifact) vs warm (a new
/// engine on the same directory reloads it). Returns {cold_s, warm_s,
/// recompiles_on_warm}.
struct RestartResult {
  double cold_s = 0.0;
  double warm_s = 0.0;
  std::uint64_t warm_compiles = 0;
  std::uint64_t warm_disk_hits = 0;
};

RestartResult restart_gate(const Netlist& nl, std::uint32_t word_width,
                           const std::string& artifact_dir) {
  RestartResult r;
  const auto timed_ready = [&](const char* name, std::uint64_t* compiles,
                               std::uint64_t* disk_hits) {
    const auto t0 = std::chrono::steady_clock::now();
    Engine engine(anchor_options(word_width, /*aot=*/true, artifact_dir));
    const ModelHandle h = engine.load(name, nl);
    engine.wait_aot_ready();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const CacheStats cs = engine.cache_stats();
    if (compiles != nullptr) *compiles = cs.native_compiles;
    if (disk_hits != nullptr) *disk_hits = cs.native_disk_hits;
    (void)h;
    engine.shutdown();
    return s;
  };
  r.cold_s = timed_ready("cold", nullptr, nullptr);
  r.warm_s = timed_ready("warm", &r.warm_compiles, &r.warm_disk_hits);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const long long rounds_arg = argc > 1 ? std::atoll(argv[1]) : 120;
  const int rounds = rounds_arg > 0 ? static_cast<int>(rounds_arg) : 120;
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

  // One shared artifact directory for the whole bench, removed at exit: the
  // steady-state attempts warm-start from the first compile, and the restart
  // gate measures against it explicitly.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("lbnn-serve-aot-" + std::to_string(static_cast<long long>(
                                std::chrono::steady_clock::now()
                                    .time_since_epoch()
                                    .count()))))
          .string();
  std::filesystem::create_directories(dir);
  struct DirCleanup {
    const std::string& d;
    ~DirCleanup() {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  } cleanup{dir};

  {
    // AOT must actually be on in this environment (LBNN_NO_AOT /
    // LBNN_FORCE_SCALAR pin it off); a gated bench against a backend that
    // cannot engage would "pass" vacuously.
    Engine probe(anchor_options(word_width, /*aot=*/true, dir));
    if (!probe.aot_enabled()) {
      std::cout << "serve_aot: AOT pinned off in this environment; nothing "
                   "to gate\n";
      lbnn::bench::emit_bench_json("serve_aot", 0.0,
                                   lbnn::bench::unmeasured(), 0.0, true);
      return 0;
    }
    probe.shutdown();
  }
  if (aot::aot_compiler().empty()) {
    std::cout << "serve_aot: no native compiler found; every member stays on "
                 "the sliced interpreter, nothing to gate\n";
    lbnn::bench::emit_bench_json("serve_aot", 0.0,
                                 lbnn::bench::unmeasured(), 0.0, true);
    return 0;
  }

  std::cout << "4-worker engine, " << spec.num_gates << "-gate DAG, "
            << word_width << "-lane batches, " << rounds
            << " rounds per mode, "
            << std::thread::hardware_concurrency() << " core(s)\n\n";

  // Gate (a): steady-state member p99, AOT vs the bit-sliced interpreter.
  // Each attempt runs both modes TWICE, interleaved (S A S A), and gates on
  // each mode's minimum p99: over `rounds` samples the p99 is the worst few
  // member runs, and on a shared 1-core host a single preemption landing in
  // one mode's tail reads as a 2x swing. The min-of-two tail estimate
  // discards that one-off for both modes equally; a real regression survives
  // both runs of both attempts.
  bool gate_a = false;
  double aot_p50 = 0.0, aot_rps = 0.0;
  for (int attempt = 0; attempt < 2 && !gate_a; ++attempt) {
    if (attempt > 0) {
      std::cout << "gate (a) missed; retrying once (noisy host?)\n\n";
    }
    std::uint64_t sliced_p99 = 0, aot_p99 = 0, mismatches = 0;
    bool all_aot = true;
    for (int rep = 0; rep < 2; ++rep) {
      const ModeResult sliced =
          run_mode(false, "", nl, rounds, word_width, lane_inputs, expected);
      if (rep == 0) print_mode("bit-sliced interpreter (aot = false)", sliced);
      const ModeResult aot =
          run_mode(true, dir, nl, rounds, word_width, lane_inputs, expected);
      if (rep == 0) print_mode("aot (promoted steady state)", aot);
      const auto& by = aot.report.member_runs_by_backend;
      all_aot = all_aot && by[1] == 0 && by[2] > 0;
      mismatches += sliced.mismatches + aot.mismatches;
      const auto min_in = [](std::uint64_t acc, std::uint64_t v) {
        return acc == 0 || (v > 0 && v < acc) ? v : acc;
      };
      sliced_p99 = min_in(sliced_p99, sliced.report.member_p99_us);
      aot_p99 = min_in(aot_p99, aot.report.member_p99_us);
      aot_p50 = static_cast<double>(aot.report.member_p50_us);
      aot_rps = aot.report.requests_per_sec;
    }
    const double ratio = aot_p99 > 0 ? static_cast<double>(sliced_p99) /
                                           static_cast<double>(aot_p99)
                                     : 0.0;
    std::cout << "member p99 (min of 2 runs/mode): " << sliced_p99 << " -> "
              << aot_p99 << " us (" << std::fixed << std::setprecision(2)
              << ratio << "x, gate >= 1.0x)\n\n";
    gate_a = ratio >= 1.0 && mismatches == 0 && all_aot;
  }

  // Gate (b): zero dropped / double-executed across a mid-traffic promotion.
  const bool gate_b =
      promotion_gate(nl, word_width, dir, lane_inputs, expected);

  // Gate (c): warm restart >= 10x faster to AOT-ready, zero recompiles.
  // Measured in a FRESH directory — the steady-state attempts above already
  // populated `dir`, so a cold leg there would warm-load and gate nothing.
  const std::string cold_dir = dir + "-cold";
  std::filesystem::create_directories(cold_dir);
  const RestartResult rr = restart_gate(nl, word_width, cold_dir);
  std::error_code ec;
  std::filesystem::remove_all(cold_dir, ec);
  const double speedup = rr.warm_s > 0 ? rr.cold_s / rr.warm_s : 0.0;
  const bool gate_c =
      speedup >= 10.0 && rr.warm_compiles == 0 && rr.warm_disk_hits > 0;
  std::cout << "warm restart: cold " << std::setprecision(3) << rr.cold_s
            << " s -> warm " << rr.warm_s << " s (" << std::setprecision(1)
            << speedup << "x, gate >= 10x; " << rr.warm_compiles
            << " recompiles, " << rr.warm_disk_hits << " disk hits)\n";

  const bool ok = gate_a && gate_b && gate_c;
  std::cout << "\n" << (ok ? "PASS" : "FAIL") << ": (a) aot p99 >= 1.0x "
            << (gate_a ? "ok" : "MISS") << ", (b) promotion lossless "
            << (gate_b ? "ok" : "MISS") << ", (c) warm restart "
            << (gate_c ? "ok" : "MISS") << "\n";
  // p99 structurally unmeasured: gated as the ratio in (a), see header.
  lbnn::bench::emit_bench_json("serve_aot", aot_p50,
                               lbnn::bench::unmeasured(), aot_rps, ok);
  return ok ? 0 : 1;
}
