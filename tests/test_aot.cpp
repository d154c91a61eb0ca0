// AOT executor backend suite.
//
// Three layers under test. (1) Backend equivalence: the AOT executor is
// bit-exact with the scalar oracle — outputs, counters (including the
// partial counters of a run that throws) and SimError messages — on its
// native entry point, on the replay it falls back to for off-width batches,
// and over an artifact without native code. (2) Artifact lifecycle: content-keyed disk cache, warm
// restarts with ZERO recompiles, corrupted/truncated artifacts rejected and
// rebuilt, concurrent builders sharing one directory. (3) Serving
// integration: background codegen overlapping live traffic, atomic mid-run
// promotion with zero dropped or double-executed requests, a failed codegen
// that never promotes, unload racing in-flight codegen, and fleet-wide
// artifact sharing through the Router.
//
// Zero real sleeps anywhere: promotion instants are pinned with
// Engine::wait_aot_ready() and ProgramCache::set_native_hook gating.
//
// CI also runs this suite under the backend-matrix pins LBNN_NO_AOT and
// LBNN_FORCE_SCALAR, which turn AOT off process-wide. There a serving test
// asserts the pinned-off behaviour instead (expect_pinned_off: zero native
// builds, bit-exact answers), or skips where its subject is native code.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aot/artifact.hpp"
#include "aot/codegen.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "edge_programs.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "router/router.hpp"
#include "runtime/engine.hpp"
#include "runtime/program_cache.hpp"

namespace lbnn {
namespace {

namespace fs = std::filesystem;

/// Fresh artifact directory under the system temp dir, removed on scope
/// exit. Each test gets its own so disk-cache assertions never see another
/// test's artifacts.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    static std::atomic<std::uint64_t> counter{0};
    path_ = (fs::temp_directory_path() /
             ("lbnn-test-" + std::string(tag) + "-" +
              std::to_string(static_cast<long>(::getpid())) + "-" +
              std::to_string(counter.fetch_add(1))))
                .string();
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// True when this process can build native code: a compiler is reachable.
/// Native-only assertions skip without one.
bool native_reachable() { return !aot::aot_compiler().empty(); }

/// Scoped environment override, restoring the previous value on exit (gtest
/// runs tests in one thread; the AOT layer reads LBNN_AOT_CXX per build, so
/// the override must outlive every codegen job it is meant to steer).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* v = std::getenv(name)) {
      saved_ = v;
      had_ = true;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

struct AotCase {
  Netlist nl;
  CompileResult res;
};

AotCase random_case(std::uint64_t seed) {
  Rng gen(seed);
  AotCase c;
  switch (seed % 3) {
    case 0: {
      RandomCircuitSpec spec;
      spec.num_inputs = 4 + gen.next_below(12);
      spec.num_gates = 30 + gen.next_below(150);
      spec.num_outputs = 1 + gen.next_below(6);
      c.nl = random_dag(spec, gen);
      break;
    }
    case 1:
      c.nl = random_tree(8 + gen.next_below(32), gen);
      break;
    default:
      c.nl = reconvergent_grid(6 + gen.next_below(6), 3 + gen.next_below(4), gen);
  }
  CompileOptions opt;
  opt.lpu.m = gen.next_bool() ? 8 : 4;
  opt.lpu.n = gen.next_bool() ? 8 : 4;
  c.res = compile(c.nl, opt);
  return c;
}

void expect_counters_eq(const SimCounters& want, const SimCounters& got) {
  EXPECT_EQ(want.wavefronts, got.wavefronts);
  EXPECT_EQ(want.lpe_computes, got.lpe_computes);
  EXPECT_EQ(want.route_writes, got.route_writes);
  EXPECT_EQ(want.input_reads, got.input_reads);
  EXPECT_EQ(want.feedback_words, got.feedback_words);
  EXPECT_EQ(want.macro_cycles, got.macro_cycles);
}

/// Diff one artifact against the scalar oracle across widths that straddle
/// the word boundary, checking outputs (also vs the netlist-level reference)
/// and the full counter set. On a native artifact the widths cover both the
/// native entry point (the program's nominal width, 1 word here) and the
/// off-width replay.
void diff_artifact(const AotCase& c,
                   std::shared_ptr<const aot::ProgramArtifact> art,
                   std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  aot::AotExecutor exec(c.res.program, art);
  LpuSimulator scalar(c.res.program, /*simd=*/false);
  for (const std::size_t width : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{2 + rng.next_below(200)}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::vector<BitVec> in = random_inputs(c.nl, width, rng);
    const std::vector<BitVec> want = simulate(c.nl, in);
    const std::vector<BitVec> scalar_out = scalar.run(in);
    EXPECT_EQ(scalar_out, want);
    EXPECT_EQ(exec.run(in), scalar_out);
    expect_counters_eq(scalar.counters(), exec.counters());
  }
}

void run_aot_diff_round(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  TempDir dir("diff");
  const AotCase c = random_case(seed);

  // No artifact_dir: an artifact without native code, which the executor
  // replays at every width.
  auto sliced = std::make_shared<const aot::ProgramArtifact>(
      aot::compile_artifact(c.res.program, aot::AotOptions{}));
  ASSERT_EQ(sliced->kind, BackendKind::kSliced);
  diff_artifact(c, sliced, seed ^ 0x9e3779b97f4a7c15ull);

  if (native_reachable()) {
    aot::AotOptions nopt;
    nopt.artifact_dir = dir.path();
    nopt.avx2 = LpuSimulator::cpu_has_avx2();
    auto native = std::make_shared<const aot::ProgramArtifact>(
        aot::compile_artifact(c.res.program, nopt));
    ASSERT_EQ(native->kind, BackendKind::kAotNative)
        << "native build failed with compiler '" << aot::aot_compiler() << "'";
    EXPECT_FALSE(native->from_disk);
    diff_artifact(c, native, seed ^ 0x9e3779b97f4a7c15ull);
  }
}

TEST(AotDiff, FuzzSeed1) { run_aot_diff_round(71); }
TEST(AotDiff, FuzzSeed2) { run_aot_diff_round(72); }
TEST(AotDiff, FuzzSeed3) { run_aot_diff_round(73); }

// Feedback-band programs carry values across bands in the replay stream;
// the native code must execute them exactly (see
// SimdDiff.FeedbackPathPrograms for the interpreter-side twin).
TEST(AotDiff, FeedbackPathPrograms) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("feedback");
  Rng gen(31);
  const Netlist nl = random_tree(48, gen);
  CompileOptions opt;
  opt.lpu.m = 4;
  opt.lpu.n = 4;
  AotCase c{nl, compile(nl, opt)};
  ASSERT_GT(c.res.report.bands, 1u) << "case no longer exercises feedback";

  aot::AotOptions nopt;
  nopt.artifact_dir = dir.path();
  auto native = std::make_shared<const aot::ProgramArtifact>(
      aot::compile_artifact(c.res.program, nopt));
  ASSERT_EQ(native->kind, BackendKind::kAotNative);
  diff_artifact(c, native, 32);
}

// The nightly sweep hook, same contract as SimdDiff.EnvSeedSweep.
TEST(AotDiff, EnvSeedSweep) {
  const char* env = std::getenv("LBNN_FUZZ_SEEDS");
  if (env == nullptr) {
    GTEST_SKIP() << "set LBNN_FUZZ_SEEDS=<n> to sweep n extra seeds";
  }
  const long n = std::atol(env);
  for (long s = 1; s <= n; ++s) {
    run_aot_diff_round(static_cast<std::uint64_t>(400 + s));
  }
}

// Invalid programs: the sliced stream truncates at the fault and the host
// replays the SimError after the native code ran the covered wavefronts; it
// must surface the scalar oracle's exact message. (Same bad-program family
// as SimdDiff.ErrorMessagesMatchAcrossKernels, which covers the replay.)
TEST(AotDiff, ErrorMessagesMatchScalar) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  Program p;
  p.cfg.m = 2;
  p.cfg.n = 2;
  p.cfg.word_width = 8;
  p.num_wavefronts = 1;
  p.num_primary_inputs = 2;
  p.num_primary_outputs = 1;
  p.input_layout = {0, 1};
  p.instr.assign(1, std::vector<LpvInstr>(2));
  p.instr[0][0].routes = {{0, {SrcSel::Kind::kInput, 0}},
                          {2, {SrcSel::Kind::kInput, 1}}};
  p.instr[0][0].computes = {{0, TruthTable4::from_op(GateOp::kBuf)},
                            {1, TruthTable4::from_op(GateOp::kBuf)}};
  p.instr[0][1].routes = {{0, {SrcSel::Kind::kPrevLane, 0}},
                          {1, {SrcSel::Kind::kPrevLane, 1}}};
  p.instr[0][1].computes = {{0, TruthTable4::from_op(GateOp::kAnd)}};
  p.output_taps = {{0, 0, 0}};

  TempDir dir("errors");
  auto diff_error = [&](const Program& bad) {
    std::string scalar_what;
    {
      LpuSimulator sim(bad, /*simd=*/false);
      try {
        sim.run({BitVec(8), BitVec(8)});
      } catch (const SimError& e) {
        scalar_what = e.what();
      }
    }
    ASSERT_FALSE(scalar_what.empty()) << "scalar run did not throw";

    aot::AotOptions opt;
    opt.artifact_dir = dir.path();
    auto art = std::make_shared<const aot::ProgramArtifact>(
        aot::compile_artifact(bad, opt));
    ASSERT_EQ(art->kind, BackendKind::kAotNative);
    aot::AotExecutor exec(bad, art);
    std::string native_what;
    try {
      exec.run({BitVec(8), BitVec(8)});
    } catch (const SimError& e) {
      native_what = e.what();
    }
    EXPECT_EQ(native_what, scalar_what);
  };

  {
    Program bad = p;  // AND reads an invalid B operand
    bad.instr[0][1].routes.pop_back();
    diff_error(bad);
  }
  {
    Program bad = p;  // feedback read before any write
    bad.instr[0][1].routes[0] = {0, {SrcSel::Kind::kFeedback, 0}};
    diff_error(bad);
  }
  {
    Program bad = p;  // tap of a lane LPV1 never computes
    bad.output_taps = {{0, 1, 0}};
    diff_error(bad);
  }
}

// The hand-built corners of the value walk (edge_programs.hpp; the
// interpreter side is SimdDiff.EdgeProgramsMatchAcrossKernels) through the
// native entry point. Artifacts specialized to 1 and 5 words run natively at
// 1/63/64 and 257 lanes; the other widths replay. Outputs, counters and the
// SimError text must match the scalar oracle.
TEST(AotDiff, EdgeProgramsMatchScalar) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("edge");
  aot::AotOptions opt;
  opt.artifact_dir = dir.path();
  opt.avx2 = LpuSimulator::cpu_has_avx2();
  Rng rng(0xa07e);
  for (const std::uint32_t nominal : {64u, 257u}) {
    for (const edge::EdgeProgram& e : edge::edge_programs(nominal)) {
      SCOPED_TRACE(e.name + " specialized to " + std::to_string(nominal));
      auto art = std::make_shared<const aot::ProgramArtifact>(
          aot::compile_artifact(e.prog, opt));
      ASSERT_EQ(art->kind, BackendKind::kAotNative);
      aot::AotExecutor exec(e.prog, art);
      LpuSimulator scalar(e.prog, /*simd=*/false);
      for (const std::size_t width : {1, 63, 64, 65, 128, 257}) {
        SCOPED_TRACE("width " + std::to_string(width));
        const std::vector<BitVec> in = edge::random_batch(e.prog, width, rng);
        const edge::Outcome want = edge::run_observed(scalar, in);
        if (e.expect) {
          EXPECT_EQ(want.outputs, e.expect(in));
        }
        edge::expect_same(want, edge::run_observed(exec, in));
      }
    }
  }
}

// Content keys: stable across calls, sensitive to the program and to the
// AVX2 flag (base and AVX2 artifacts must coexist in one directory).
TEST(AotArtifact, ContentKeyIsStableAndDiscriminating) {
  const AotCase a = random_case(81);
  const AotCase b = random_case(82);
  EXPECT_EQ(aot::content_key(a.res.program, false),
            aot::content_key(a.res.program, false));
  EXPECT_NE(aot::content_key(a.res.program, false),
            aot::content_key(a.res.program, true));
  EXPECT_NE(aot::content_key(a.res.program, false),
            aot::content_key(b.res.program, false));
}

// Warm restart at the artifact level: a second compile_artifact against the
// same directory reloads the published .so instead of spawning the compiler.
TEST(AotArtifact, WarmReloadFromDisk) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("warm");
  const AotCase c = random_case(73);
  aot::AotOptions opt;
  opt.artifact_dir = dir.path();

  const aot::ProgramArtifact cold = aot::compile_artifact(c.res.program, opt);
  ASSERT_EQ(cold.kind, BackendKind::kAotNative);
  EXPECT_FALSE(cold.from_disk);
  ASSERT_TRUE(fs::exists(cold.so_path));

  const aot::ProgramArtifact warm = aot::compile_artifact(c.res.program, opt);
  ASSERT_EQ(warm.kind, BackendKind::kAotNative);
  EXPECT_TRUE(warm.from_disk);
  EXPECT_EQ(warm.so_path, cold.so_path);
}

// The native code is specialized to the program's nominal row width; a batch
// sealed narrower (partial seal) must transparently replay the sliced stream
// and stay bit-exact, counters included.
TEST(AotArtifact, OffWidthBatchReplaysSlicedStream) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("offwidth");
  Rng gen(77);
  RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_gates = 60;
  spec.num_outputs = 4;
  const Netlist nl = random_dag(spec, gen);
  CompileOptions copt;
  copt.lpu.m = 8;
  copt.lpu.n = 8;
  copt.lpu.word_width = 256;  // nominal: 4 words per row
  const CompileResult res = compile(nl, copt);

  aot::AotOptions opt;
  opt.artifact_dir = dir.path();
  opt.avx2 = LpuSimulator::cpu_has_avx2();
  auto art = std::make_shared<const aot::ProgramArtifact>(
      aot::compile_artifact(res.program, opt));
  ASSERT_EQ(art->kind, BackendKind::kAotNative);
  EXPECT_EQ(art->native_words, 4u);

  aot::AotExecutor exec(res.program, art);
  LpuSimulator scalar(res.program, /*simd=*/false);
  Rng in_rng(78);
  // 256 lanes = the specialized width (native code); 64 and 130 lanes = off
  // width (replay). All three must match the scalar oracle.
  for (const std::size_t width :
       {std::size_t{256}, std::size_t{64}, std::size_t{130}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::vector<BitVec> in = random_inputs(nl, width, in_rng);
    EXPECT_EQ(exec.run(in), scalar.run(in));
    expect_counters_eq(scalar.counters(), exec.counters());
  }
}

// A corrupted or truncated artifact must fail the dlopen/key/ABI handshake,
// be unlinked, and be recompiled — never trusted, never fatal.
TEST(AotArtifact, CorruptedArtifactIsRebuilt) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("corrupt");
  const AotCase c = random_case(74);
  aot::AotOptions opt;
  opt.artifact_dir = dir.path();

  std::string so_path;
  {
    // Scoped: the corruption below models a crashed WRITER leaving a bad
    // file behind, not scribbling over pages a live process has mapped —
    // so the dlopen handle must be closed before the file is touched.
    const aot::ProgramArtifact cold = aot::compile_artifact(c.res.program, opt);
    ASSERT_EQ(cold.kind, BackendKind::kAotNative);
    so_path = cold.so_path;
  }

  const auto rebuild_after = [&](const char* mode) {
    SCOPED_TRACE(mode);
    {
      const aot::ProgramArtifact again =
          aot::compile_artifact(c.res.program, opt);
      ASSERT_EQ(again.kind, BackendKind::kAotNative);
      EXPECT_FALSE(again.from_disk) << "corrupted artifact was trusted";
    }
    // And the rebuilt artifact still executes correctly.
    auto art = std::make_shared<const aot::ProgramArtifact>(
        aot::compile_artifact(c.res.program, opt));
    EXPECT_TRUE(art->from_disk);
    diff_artifact(c, art, 75);
  };

  {
    std::ofstream f(so_path, std::ios::trunc);  // truncated to nothing
    f << "";
  }
  rebuild_after("truncated");
  {
    std::ofstream f(so_path, std::ios::trunc);  // garbage bytes
    f << "not an ELF object at all";
  }
  rebuild_after("garbage");
}

// A foreign artifact occupying our name (key mismatch inside a valid .so)
// must also be rejected: copy a DIFFERENT program's artifact over ours.
TEST(AotArtifact, ForeignArtifactKeyMismatchIsRejected) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("foreign");
  const AotCase a = random_case(75);
  const AotCase b = random_case(76);
  aot::AotOptions opt;
  opt.artifact_dir = dir.path();

  std::string path_a, path_b;
  {
    // Scoped so no live mapping covers the file the copy overwrites.
    const aot::ProgramArtifact art_a = aot::compile_artifact(a.res.program, opt);
    const aot::ProgramArtifact art_b = aot::compile_artifact(b.res.program, opt);
    ASSERT_EQ(art_a.kind, BackendKind::kAotNative);
    ASSERT_EQ(art_b.kind, BackendKind::kAotNative);
    path_a = art_a.so_path;
    path_b = art_b.so_path;
  }
  fs::copy_file(path_b, path_a, fs::copy_options::overwrite_existing);

  aot::ProgramArtifact again = aot::compile_artifact(a.res.program, opt);
  ASSERT_EQ(again.kind, BackendKind::kAotNative);
  EXPECT_FALSE(again.from_disk) << "foreign artifact passed the handshake";
  auto art = std::make_shared<const aot::ProgramArtifact>(std::move(again));
  diff_artifact(a, art, 77);
}

// ProgramCache native stage: one compile per key, later calls hit the LRU,
// and a concurrent caller joins the in-flight build instead of compiling
// again (gated deterministically through the native hook — no sleeps).
TEST(AotCache, NativeStageDedupesConcurrentBuilds) {
  TempDir dir("cache");
  const AotCase c = random_case(77);
  runtime::ProgramCache cache(8);
  aot::AotOptions opt;
  opt.artifact_dir = dir.path();

  std::mutex mu;
  std::condition_variable cv;
  bool in_build = false;
  bool second_started = false;
  cache.set_native_hook([&] {
    std::unique_lock<std::mutex> lk(mu);
    in_build = true;
    cv.notify_all();
    cv.wait(lk, [&] { return second_started; });
  });

  std::shared_ptr<const aot::ProgramArtifact> first, second;
  std::thread builder([&] { first = cache.get_or_build_native(c.res.program, opt); });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return in_build; });
  }
  std::thread joiner([&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      second_started = true;
    }
    cv.notify_all();
    second = cache.get_or_build_native(c.res.program, opt);
  });
  builder.join();
  joiner.join();

  ASSERT_TRUE(first != nullptr);
  // Join or post-publish hit, either way: the same artifact, built once.
  EXPECT_EQ(first.get(), second.get());
  const runtime::CacheStats s = cache.stats();
  EXPECT_EQ(s.native_compiles + s.native_disk_hits + s.native_failures, 1u);
  EXPECT_EQ(s.native_failures, native_reachable() ? 0u : 1u);

  cache.set_native_hook(nullptr);
  // Third call: pure LRU hit, the hook (now cleared) must not be needed.
  auto third = cache.get_or_build_native(c.res.program, opt);
  EXPECT_EQ(third.get(), first.get());
  const runtime::CacheStats s2 = cache.stats();
  EXPECT_EQ(s2.native_compiles + s2.native_disk_hits + s2.native_failures, 1u);
}

// ---------------------------------------------------------------- serving

runtime::EngineOptions aot_engine_options(const std::string& dir) {
  runtime::EngineOptions opt;
  opt.num_workers = 2;
  opt.aot = true;
  opt.artifact_dir = dir;
  // Keep the backend-count assertions exact: no speculative duplicates.
  return opt;
}

Netlist serving_netlist(std::uint64_t seed) {
  Rng gen(seed);
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = 120;
  spec.num_outputs = 6;
  return random_dag(spec, gen);
}

void expect_serves_correctly(runtime::Engine& eng, const runtime::ModelHandle& h,
                             const Netlist& nl, int rounds) {
  Rng rng(0x5eed);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::vector<bool>> ins(8);
    std::vector<std::future<std::vector<bool>>> futs;
    for (auto& in : ins) {
      in.resize(nl.num_inputs());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.next_bool();
      futs.push_back(eng.submit(h, in));
    }
    for (std::size_t i = 0; i < ins.size(); ++i) {
      EXPECT_EQ(futs[i].get(), simulate_scalar(nl, ins[i]));
    }
  }
}

/// The backend-matrix pins (LBNN_NO_AOT, LBNN_FORCE_SCALAR) turn AOT off for
/// the whole process. A serving test whose subject survives the pin asserts
/// the pinned-off behaviour through this: zero native builds, zero native
/// runs, and every answer bit-exact.
void expect_pinned_off(runtime::Engine& eng, const runtime::ModelHandle& h,
                       const Netlist& nl) {
  EXPECT_FALSE(eng.aot_enabled());
  eng.wait_aot_ready();  // nothing to wait for: no codegen job was spawned
  expect_serves_correctly(eng, h, nl, 2);
  const runtime::CacheStats s = eng.cache_stats();
  EXPECT_EQ(s.native_compiles + s.native_disk_hits + s.native_failures, 0u);
  const std::size_t native = static_cast<std::size_t>(BackendKind::kAotNative);
  EXPECT_EQ(eng.report().member_runs_by_backend[native], 0u);
}

// Promotion under live traffic: requests served BEFORE the artifact lands
// run on the sliced interpreter, requests after wait_aot_ready() run native
// — and every single future resolves exactly once with the reference value
// (zero dropped, zero double-executed). The codegen job is gated on the
// native hook so "before" is deterministic, not a race.
TEST(AotServing, PromotionUnderLiveTrafficLosesNothing) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("promo");
  const Netlist nl = serving_netlist(91);
  runtime::Engine eng(aot_engine_options(dir.path()));
  if (!eng.aot_enabled()) {
    expect_pinned_off(eng, eng.load("m", nl), nl);
    return;
  }

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  eng.program_cache().set_native_hook([&] {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
  });

  const runtime::ModelHandle h = eng.load("m", nl);
  // Pre-promotion traffic: codegen is parked on the hook, so these MUST run
  // on the sliced interpreter.
  expect_serves_correctly(eng, h, nl, 3);
  {
    const runtime::ServeReport r = eng.report();
    EXPECT_GT(r.member_runs_by_backend[1], 0u) << "sliced leg never ran";
    EXPECT_EQ(r.member_runs_by_backend[2], 0u)
        << "promotion landed before codegen was released";
  }

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  eng.wait_aot_ready();
  // Post-promotion traffic: the artifact store is ordered before the
  // wait_aot_ready() handshake, so every run from here on is native.
  const runtime::ServeReport before = eng.report();
  expect_serves_correctly(eng, h, nl, 3);
  const runtime::ServeReport after = eng.report();
  EXPECT_GT(after.member_runs_by_backend[2], before.member_runs_by_backend[2]);
  EXPECT_EQ(after.member_runs_by_backend[1], before.member_runs_by_backend[1])
      << "a post-promotion run fell back to the interpreter";
  EXPECT_EQ(after.shed, 0u);
  EXPECT_EQ(after.expired, 0u);
  eng.shutdown();
}

// A codegen that fails (the compiler exits non-zero) must not promote: every
// member keeps serving on the sliced interpreter, bit-exact, and each failed
// build is counted. A two-way parallel model makes "every member" mean more
// than one.
TEST(AotServing, FailedCodegenDoesNotPromote) {
  TempDir dir("failed");
  ScopedEnv broken_cxx("LBNN_AOT_CXX", "false");
  const Netlist nl = serving_netlist(98);
  runtime::Engine eng(aot_engine_options(dir.path()));
  if (!eng.aot_enabled()) GTEST_SKIP() << "AOT pinned off in this env";
  const runtime::ModelHandle h = eng.load_parallel("m", nl, 2);
  eng.wait_aot_ready();

  const runtime::CacheStats cs = eng.cache_stats();
  EXPECT_EQ(cs.native_failures, 2u);
  EXPECT_EQ(cs.native_compiles + cs.native_disk_hits, 0u);

  expect_serves_correctly(eng, h, nl, 2);
  const runtime::ServeReport r = eng.report();
  EXPECT_GT(r.member_runs, 0u);
  const std::size_t sliced = static_cast<std::size_t>(BackendKind::kSliced);
  EXPECT_EQ(r.member_runs_by_backend[sliced], r.member_runs)
      << "a member left the sliced interpreter";
  eng.shutdown();
}

// Unloading a model while its codegen job is still in flight must neither
// deadlock nor crash: the job holds the model state alive, finishes against
// the dead model, and the engine shuts down clean.
TEST(AotServing, UnloadDuringInflightCodegen) {
  TempDir dir("unload");
  const Netlist nl = serving_netlist(92);
  runtime::Engine eng(aot_engine_options(dir.path()));
  if (!eng.aot_enabled()) {
    // No codegen to race: the unload itself must still be clean.
    const runtime::ModelHandle h = eng.load("m", nl);
    expect_pinned_off(eng, h, nl);
    EXPECT_TRUE(eng.unload(h));
    EXPECT_FALSE(h.loaded());
    return;
  }

  std::mutex mu;
  std::condition_variable cv;
  bool in_build = false;
  bool release = false;
  eng.program_cache().set_native_hook([&] {
    std::unique_lock<std::mutex> lk(mu);
    in_build = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });

  const runtime::ModelHandle h = eng.load("m", nl);
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return in_build; });
  }
  // Codegen is mid-flight RIGHT NOW; serve a little and pull the model out
  // from under it.
  expect_serves_correctly(eng, h, nl, 1);
  EXPECT_TRUE(eng.unload(h));
  EXPECT_FALSE(h.loaded());
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  eng.wait_aot_ready();  // the orphaned job must still terminate
  eng.shutdown();
}

// Warm restart at the engine level: a second engine on the same artifact
// directory promotes from disk with ZERO native compiles — both by the
// cache counters and by the native hook never firing a build.
TEST(AotServing, WarmRestartRecompilesNothing) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("restart");
  const Netlist nl = serving_netlist(93);
  {
    runtime::Engine cold(aot_engine_options(dir.path()));
    if (!cold.aot_enabled()) {
      expect_pinned_off(cold, cold.load("m", nl), nl);
      cold.shutdown();
      EXPECT_TRUE(fs::is_empty(dir.path())) << "a pinned-off engine persisted";
      return;
    }
    const runtime::ModelHandle h = cold.load("m", nl);
    cold.wait_aot_ready();
    expect_serves_correctly(cold, h, nl, 1);
    const runtime::CacheStats s = cold.cache_stats();
    EXPECT_GT(s.native_compiles, 0u);
    EXPECT_EQ(s.native_failures, 0u);
    cold.shutdown();
  }
  ASSERT_FALSE(fs::is_empty(dir.path())) << "no artifact persisted";

  runtime::Engine warm(aot_engine_options(dir.path()));
  const runtime::ModelHandle h = warm.load("m", nl);
  warm.wait_aot_ready();
  const runtime::CacheStats s = warm.cache_stats();
  EXPECT_EQ(s.native_compiles, 0u) << "warm restart recompiled";
  EXPECT_GT(s.native_disk_hits, 0u);
  EXPECT_EQ(s.native_failures, 0u);
  expect_serves_correctly(warm, h, nl, 2);
  const runtime::ServeReport r = warm.report();
  EXPECT_GT(r.member_runs_by_backend[2], 0u) << "warm engine not on native";
  warm.shutdown();
}

// Two live engines sharing one artifact directory: concurrent writers are
// safe (atomic publish), both serve bit-exact, and at most one compile per
// engine happens for the shared key.
TEST(AotServing, TwoEnginesShareArtifactDir) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  TempDir dir("share");
  const Netlist nl = serving_netlist(94);
  runtime::Engine e1(aot_engine_options(dir.path()));
  runtime::Engine e2(aot_engine_options(dir.path()));
  const runtime::ModelHandle h1 = e1.load("m", nl);
  const runtime::ModelHandle h2 = e2.load("m", nl);
  if (!e1.aot_enabled()) {
    expect_pinned_off(e1, h1, nl);
    expect_pinned_off(e2, h2, nl);
    EXPECT_TRUE(fs::is_empty(dir.path())) << "a pinned-off engine persisted";
    return;
  }
  e1.wait_aot_ready();
  e2.wait_aot_ready();
  expect_serves_correctly(e1, h1, nl, 2);
  expect_serves_correctly(e2, h2, nl, 2);
  const runtime::CacheStats s1 = e1.cache_stats();
  const runtime::CacheStats s2 = e2.cache_stats();
  EXPECT_EQ(s1.native_failures + s2.native_failures, 0u);
  // Each engine resolved the key exactly once (compile or disk hit); the
  // overlap decides the mix, the total is pinned.
  EXPECT_EQ(s1.native_compiles + s1.native_disk_hits, 1u);
  EXPECT_EQ(s2.native_compiles + s2.native_disk_hits, 1u);
  e1.shutdown();
  e2.shutdown();
}

// The engine owns a private artifact directory when none is named, and
// removes it at shutdown.
TEST(AotServing, PrivateArtifactDirIsCleanedUp) {
  runtime::EngineOptions opt;
  opt.num_workers = 1;
  opt.aot = true;
  std::string dir;
  {
    runtime::Engine eng(opt);
    if (!eng.aot_enabled()) GTEST_SKIP() << "AOT pinned off in this env";
    dir = eng.artifact_dir();
    ASSERT_FALSE(dir.empty());
    EXPECT_TRUE(fs::exists(dir));
    const Netlist nl = serving_netlist(95);
    const runtime::ModelHandle h = eng.load("m", nl);
    eng.wait_aot_ready();
    expect_serves_correctly(eng, h, nl, 1);
    eng.shutdown();
  }
  EXPECT_FALSE(fs::exists(dir)) << dir;
}

// Cancellation around the promotion instant: a deadline already in the past
// is shed/expired identically whether the member is pre- or post-promotion,
// and the engine's books stay balanced across the flip.
TEST(AotServing, ExpiredDeadlinesAcrossPromotion) {
  TempDir dir("deadline");
  const Netlist nl = serving_netlist(96);
  runtime::Engine eng(aot_engine_options(dir.path()));

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  eng.program_cache().set_native_hook([&] {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
  });
  const runtime::ModelHandle h = eng.load("m", nl);

  std::vector<bool> in(nl.num_inputs(), true);
  const auto doomed = eng.clock().now() - std::chrono::seconds(1);
  auto expect_doomed = [&] {
    std::future<std::vector<bool>> fut;
    const runtime::SubmitStatus st = eng.try_submit(h, in, &fut, doomed);
    EXPECT_EQ(st, runtime::SubmitStatus::kDeadlineUnmeetable);
  };
  expect_doomed();                       // pre-promotion
  expect_serves_correctly(eng, h, nl, 1);
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  eng.wait_aot_ready();
  expect_doomed();                       // post-promotion
  expect_serves_correctly(eng, h, nl, 1);
  const runtime::ServeReport r = eng.report();
  EXPECT_EQ(r.requests, 16u);            // the 2x8 served rounds, nothing lost
  // Pinned off, the same books close with no promotion at all.
  if (!eng.aot_enabled()) expect_pinned_off(eng, h, nl);
  eng.shutdown();
}

// ---------------------------------------------------------------- router

// Fleet-wide artifact sharing: the router hands every shard ONE directory;
// a replica added after the first shard published its artifact warm-loads
// from disk instead of recompiling.
TEST(AotRouter, ReplicasShareArtifacts) {
  if (!native_reachable()) GTEST_SKIP() << "no native compiler reachable";
  router::RouterOptions ropt;
  ropt.num_shards = 2;
  ropt.initial_replicas = 1;
  ropt.engine.num_workers = 1;
  ropt.engine.aot = true;
  std::string dir;
  {
    router::Router router(ropt);
    if (!router.shard(0).aot_enabled()) {
      GTEST_SKIP() << "AOT pinned off in this env";
    }
    dir = router.artifact_dir();
    ASSERT_FALSE(dir.empty());
    EXPECT_TRUE(fs::exists(dir));
    EXPECT_EQ(router.shard(0).artifact_dir(), dir);
    EXPECT_EQ(router.shard(1).artifact_dir(), dir);

    const Netlist nl = serving_netlist(97);
    const router::RoutedHandle h = router.load("m", nl);
    const std::vector<std::size_t> hosts = router.replica_shards(h);
    ASSERT_EQ(hosts.size(), 1u);
    const std::size_t first = hosts[0];
    router.shard(first).wait_aot_ready();
    EXPECT_EQ(router.shard(first).cache_stats().native_compiles, 1u);

    router.set_replicas(h, 2);
    const std::size_t second = 1 - first;
    router.shard(second).wait_aot_ready();
    const runtime::CacheStats s = router.shard(second).cache_stats();
    EXPECT_EQ(s.native_compiles, 0u) << "replica recompiled a shared artifact";
    EXPECT_EQ(s.native_disk_hits, 1u);

    Rng rng(0xf1ee7);
    for (int i = 0; i < 16; ++i) {
      std::vector<bool> in(nl.num_inputs());
      for (std::size_t b = 0; b < in.size(); ++b) in[b] = rng.next_bool();
      EXPECT_EQ(router.submit(h, in).get(), simulate_scalar(nl, in));
    }
    router.shutdown();
  }
  EXPECT_FALSE(fs::exists(dir)) << "fleet artifact dir not removed";
}

}  // namespace
}  // namespace lbnn
