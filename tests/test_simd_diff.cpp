// Differential harness for the bit-sliced execution kernels.
//
// The contract under test (simulator.hpp): kScalar, kWord64 and kAvx2 — the
// scalar oracle and the replay interpreter on both word kernels — are
// bit-exact for every program, batch width, and batch content, including
// how they fail: SimError carries the same message and the same partial
// counters from every kernel. (The AOT executor's
// native leg and its off-width replay are diffed in test_aot.cpp.) Programs
// come from the real pipeline (netlist/random_circuits × the compiler),
// widths deliberately straddle the 64-bit word boundary, and every output
// is additionally checked against the netlist-level reference simulator, so
// a bug that both LpuSimulator kernels share still fails.
//
// Seeded like test_admission_fuzz: three pinned seeds per-PR, and the
// nightly LBNN_FUZZ_SEEDS=<n> sweep widens to n extra seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "edge_programs.hpp"
#include "lpu/multi_lpu.hpp"
#include "lpu/simulator.hpp"
#include "lpu/sliced_program.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "nn/model_zoo.hpp"
#include "runtime/engine.hpp"

namespace lbnn {
namespace {

/// Scoped environment override (gtest runs tests in one thread, so plain
/// setenv/unsetenv is safe here; the simulator reads env at construction).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Scoped environment clear: removes a variable for the current scope and
/// restores its previous value on exit. The differential harness pins each
/// kernel itself, so an ambient LBNN_FORCE_SCALAR (CI's forced-scalar matrix
/// leg exports it process-wide) must not collapse the whole matrix to
/// scalar-vs-scalar — that pin is covered explicitly by KernelResolution.
class ScopedEnvClear {
 public:
  explicit ScopedEnvClear(const char* name) : name_(name) {
    if (const char* v = ::getenv(name)) {
      saved_ = v;
      had_ = true;
    }
    ::unsetenv(name);
  }
  ~ScopedEnvClear() {
    if (had_) ::setenv(name_, saved_.c_str(), 1);
  }
  ScopedEnvClear(const ScopedEnvClear&) = delete;
  ScopedEnvClear& operator=(const ScopedEnvClear&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

struct DiffCase {
  Netlist nl;
  CompileResult res;
};

DiffCase random_case(std::uint64_t seed) {
  Rng gen(seed);
  DiffCase c;
  switch (seed % 3) {
    case 0: {
      RandomCircuitSpec spec;
      spec.num_inputs = 4 + gen.next_below(12);
      spec.num_gates = 30 + gen.next_below(200);
      spec.num_outputs = 1 + gen.next_below(8);
      c.nl = random_dag(spec, gen);
      break;
    }
    case 1:
      c.nl = random_tree(8 + gen.next_below(40), gen);
      break;
    default:
      c.nl = reconvergent_grid(6 + gen.next_below(8), 3 + gen.next_below(5), gen);
  }
  CompileOptions opt;
  opt.lpu.m = gen.next_bool() ? 8 : 4;
  opt.lpu.n = gen.next_bool() ? 8 : 4;
  c.res = compile(c.nl, opt);
  return c;
}

/// Run one program at one width through every kernel and compare everything
/// observable: outputs (also against the netlist reference) and counters.
void diff_at_width(const DiffCase& c, std::size_t width, Rng& rng) {
  SCOPED_TRACE("width " + std::to_string(width));
  ScopedEnvClear no_ambient_pin("LBNN_FORCE_SCALAR");
  const std::vector<BitVec> in = random_inputs(c.nl, width, rng);
  const std::vector<BitVec> want = simulate(c.nl, in);

  LpuSimulator scalar(c.res.program, /*simd=*/false);
  ASSERT_EQ(scalar.kernel(), SimdKernel::kScalar);
  const std::vector<BitVec> scalar_out = scalar.run(in);
  EXPECT_EQ(scalar_out, want);

  LpuSimulator sliced(c.res.program);  // compiled stream, AVX2 when present
  EXPECT_NE(sliced.kernel(), SimdKernel::kScalar);
  EXPECT_EQ(sliced.run(in), scalar_out);

  if (LpuSimulator::cpu_has_avx2()) {
    // Pin the portable word64 loop even where AVX2 would be picked.
    ScopedEnv no_avx2("LBNN_NO_AVX2", "1");
    LpuSimulator word64(c.res.program);
    ASSERT_EQ(word64.kernel(), SimdKernel::kWord64);
    EXPECT_EQ(word64.run(in), scalar_out);
  }

  const SimCounters& sc = scalar.counters();
  const SimCounters& vc = sliced.counters();
  EXPECT_EQ(sc.wavefronts, vc.wavefronts);
  EXPECT_EQ(sc.lpe_computes, vc.lpe_computes);
  EXPECT_EQ(sc.route_writes, vc.route_writes);
  EXPECT_EQ(sc.input_reads, vc.input_reads);
  EXPECT_EQ(sc.feedback_words, vc.feedback_words);
  EXPECT_EQ(sc.macro_cycles, vc.macro_cycles);
}

void run_diff_round(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const DiffCase c = random_case(seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  // Fixed word-boundary stress widths plus a random one per round.
  const std::size_t widths[] = {1, 63, 64, 65, 2 + rng.next_below(250)};
  for (const std::size_t w : widths) diff_at_width(c, w, rng);
}

TEST(SimdDiff, FuzzSeed1) { run_diff_round(21); }
TEST(SimdDiff, FuzzSeed2) { run_diff_round(22); }
TEST(SimdDiff, FuzzSeed3) { run_diff_round(23); }

// Depth circulation: a program deep enough that values leave through the
// output buffer's feedback region and re-enter in a later band. The
// feedback tables are a separate code path in the oracle and in the
// lowering (a feedback word holds a value across bands), so the
// differential sweep must include bands > 1 programs by construction, not
// by luck.
TEST(SimdDiff, FeedbackPathPrograms) {
  Rng gen(31);
  const Netlist nl = random_tree(48, gen);
  CompileOptions opt;
  opt.lpu.m = 4;
  opt.lpu.n = 4;
  DiffCase c{nl, compile(nl, opt)};
  ASSERT_GT(c.res.report.bands, 1u) << "case no longer exercises feedback";
  Rng rng(32);
  for (const std::size_t w : {1u, 64u, 65u, 200u}) diff_at_width(c, w, rng);
}

// Invalid programs throw SimError with the same message from every kernel.
// The bit-sliced path discovers these at construction and REPLAYS the throw
// mid-run (the compiled-error path) — the message and the partial execution
// before it must still match the interpreter's.
TEST(SimdDiff, ErrorMessagesMatchAcrossKernels) {
  // lane0 <- in0, lane1 <- in1, LPV1 ANDs them (test_lpu_sim's tiny case).
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

  auto diff_error = [](const Program& bad) {
    std::string scalar_what, sliced_what;
    for (const bool simd : {false, true}) {
      LpuSimulator sim(bad, simd);
      try {
        sim.run({BitVec(8), BitVec(8)});
      } catch (const SimError& e) {
        (simd ? sliced_what : scalar_what) = e.what();
      }
    }
    EXPECT_FALSE(scalar_what.empty()) << "scalar run did not throw";
    EXPECT_EQ(scalar_what, sliced_what);
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
  {
    Program bad = p;  // primary output never produced
    bad.output_taps.clear();
    diff_error(bad);
  }
}

// The hand-built corners of the value walk (edge_programs.hpp) on every
// kernel: outputs (also against each program's hand-written answer), all
// counters, the SimError text and the hook sequence. The widths straddle one
// word and the 4-word AVX2 block.
TEST(SimdDiff, EdgeProgramsMatchAcrossKernels) {
  ScopedEnvClear no_scalar_pin("LBNN_FORCE_SCALAR");
  ScopedEnvClear no_word64_pin("LBNN_NO_AVX2");
  using Hooks = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  Rng rng(0xed6e);
  for (const edge::EdgeProgram& e : edge::edge_programs(64)) {
    SCOPED_TRACE(e.name);
    std::vector<std::unique_ptr<LpuSimulator>> sims;  // the oracle first
    sims.push_back(std::make_unique<LpuSimulator>(e.prog, /*simd=*/false));
    {
      ScopedEnv no_avx2("LBNN_NO_AVX2", "1");
      sims.push_back(std::make_unique<LpuSimulator>(e.prog));
      ASSERT_EQ(sims.back()->kernel(), SimdKernel::kWord64);
    }
    if (LpuSimulator::cpu_has_avx2()) {
      sims.push_back(std::make_unique<LpuSimulator>(e.prog));
      ASSERT_EQ(sims.back()->kernel(), SimdKernel::kAvx2);
    }
    for (const std::size_t width : {1, 63, 64, 65, 128, 257}) {
      SCOPED_TRACE("width " + std::to_string(width));
      const std::vector<BitVec> in = edge::random_batch(e.prog, width, rng);
      edge::Outcome want;
      Hooks want_hooks;
      for (std::size_t k = 0; k < sims.size(); ++k) {
        SCOPED_TRACE(to_string(sims[k]->kernel()));
        Hooks hooks;
        sims[k]->set_instr_hook(
            [&](std::uint32_t w, std::uint32_t j, const LpvInstr&) {
              hooks.emplace_back(w, j);
            });
        const edge::Outcome got = edge::run_observed(*sims[k], in);
        if (k == 0) {
          want = got;
          want_hooks = hooks;
          continue;
        }
        edge::expect_same(want, got);
        EXPECT_EQ(want_hooks, hooks);
      }
      if (e.expect) {
        EXPECT_EQ(want.thrown, "");
        EXPECT_EQ(want.outputs, e.expect(in));
      } else {
        EXPECT_EQ(want.thrown.rfind("SimError: ", 0), 0u) << want.thrown;
      }
    }
  }
}

// ROADMAP's "replay ops per sample" counter as a deterministic gate: the
// streams of lbnn_bench's two closed-loop models, compiled the way the bench
// compiles them (m=64, n=8, tsw=5). Buffers and register moves must lower to
// nothing, and values must pack into few rows.
TEST(SlicedProgram, ReplayStreamIsCompact) {
  CompileOptions copt;
  copt.lpu.m = 64;
  copt.lpu.n = 8;
  copt.lpu.tsw = 5;
  copt.lpu.clock_mhz = 333.0;
  struct Size {
    std::size_t ops = 0;
    std::size_t bufs = 0;
    std::uint32_t max_rows = 0;
  };
  const auto measure = [](const std::vector<const Program*>& programs) {
    Size z;
    for (const Program* p : programs) {
      const SlicedProgram sp = compile_sliced(*p);
      z.ops += sp.ops.size();
      z.max_rows = std::max(z.max_rows, sp.num_rows);
      for (const SlicedOp& o : sp.ops) {
        z.bufs += o.kind == SlicedOp::kCompute && (o.bits == 0xA || o.bits == 0xC);
      }
    }
    return z;
  };

  Rng grid_rng(7);
  const CompileResult anchor = compile(reconvergent_grid(96, 24, grid_rng), copt);
  const Size a = measure({&anchor.program});
  EXPECT_EQ(a.bufs, 0u);
  EXPECT_LE(a.ops, 3000u);
  EXPECT_LE(a.max_rows, 300u);

  nn::SynthOptions synth;
  synth.max_neurons = 192;
  synth.max_inputs = 64;
  Rng conv_rng(11);
  const ParallelCompileResult conv6 = compile_parallel(
      nn::synthesize_layer_ffcl(nn::vgg16().layers[4], synth, conv_rng).ffcl,
      copt, 2);
  std::vector<const Program*> members;
  for (const auto& mem : conv6.members) members.push_back(&mem.program);
  const Size c = measure(members);
  EXPECT_EQ(c.bufs, 0u);
  EXPECT_LE(c.ops, 40000u);
  EXPECT_LE(c.max_rows, 2000u);
}

TEST(SimdDiff, KernelResolution) {
  EXPECT_EQ(LpuSimulator::resolve_kernel(false), SimdKernel::kScalar);
  {
    ScopedEnv force("LBNN_FORCE_SCALAR", "1");
    EXPECT_EQ(LpuSimulator::resolve_kernel(true), SimdKernel::kScalar);
  }
  {
    ScopedEnv no_avx2("LBNN_NO_AVX2", "1");
    EXPECT_NE(LpuSimulator::resolve_kernel(true), SimdKernel::kAvx2);
  }
  const SimdKernel k = LpuSimulator::resolve_kernel(true);
  if (LpuSimulator::cpu_has_avx2()) {
    EXPECT_EQ(k, SimdKernel::kAvx2);
  } else {
    EXPECT_EQ(k, SimdKernel::kWord64);
  }
  EXPECT_NE(to_string(k), std::string("?"));
}

// Engine-level: EngineOptions::simd must be invisible in results. Same
// model, same lanes, one engine per mode — every future must agree with the
// netlist reference.
TEST(SimdDiff, EngineResultsMatchScalarEngine) {
  Rng gen(61);
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = 120;
  spec.num_outputs = 6;
  const Netlist nl = random_dag(spec, gen);
  constexpr std::size_t kLanes = 64;

  Rng lane_rng(62);
  std::vector<std::vector<bool>> lane_in(kLanes);
  for (auto& li : lane_in) {
    li.resize(nl.num_inputs());
    for (std::size_t i = 0; i < li.size(); ++i) li[i] = lane_rng.next_bool();
  }

  for (const bool simd : {false, true}) {
    SCOPED_TRACE(simd ? "simd engine" : "scalar engine");
    runtime::EngineOptions eopt;
    eopt.num_workers = 4;
    eopt.batch_timeout = std::chrono::hours(1);  // seal on full lanes only
    eopt.compile.lpu.word_width = static_cast<std::uint32_t>(kLanes);
    eopt.simd = simd;
    runtime::Engine engine(eopt);
    const runtime::ModelHandle h = engine.load(simd ? "m1" : "m0", nl);
    for (int round = 0; round < 2; ++round) {
      std::vector<std::future<std::vector<bool>>> futs;
      for (std::size_t i = 0; i < kLanes; ++i) {
        futs.push_back(engine.submit(h, lane_in[i]));
      }
      for (std::size_t i = 0; i < kLanes; ++i) {
        EXPECT_EQ(futs[i].get(), simulate_scalar(nl, lane_in[i]));
      }
    }
    engine.shutdown();
  }
}

// Nightly sweep hook, same contract as test_admission_fuzz: the scheduled CI
// job sets LBNN_FUZZ_SEEDS=<n>; interactive and per-PR runs skip.
TEST(SimdDiff, EnvSeedSweep) {
  const char* env = std::getenv("LBNN_FUZZ_SEEDS");
  if (env == nullptr) {
    GTEST_SKIP() << "set LBNN_FUZZ_SEEDS=<n> to sweep n extra seeds";
  }
  const long n = std::atol(env);
  for (long s = 1; s <= n; ++s) run_diff_round(static_cast<std::uint64_t>(200 + s));
}

}  // namespace
}  // namespace lbnn
