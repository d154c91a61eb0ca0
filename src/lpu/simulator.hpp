#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitvec.hpp"
#include "core/program.hpp"
#include "lpu/backend.hpp"
#include "lpu/sliced_program.hpp"

namespace lbnn {

/// Which gate-evaluation kernel a simulator instance executes with.
///
/// The three kernels are bit-exact by contract (tests/test_simd_diff.cpp is
/// the differential harness enforcing it); they differ only in how many batch
/// samples one gate evaluation touches and where the per-gate operands live:
///
///   kScalar  the original BitVec-at-a-time interpreter — one heap-backed
///            BitVec per register slot, eval_lut_into() per gate. Kept as the
///            bit-exactness oracle, the same baseline pattern as
///            hedging=false.
///   kWord64  bit-sliced: all datapath rows live in one flat scratch arena of
///            packed 64-bit words and each gate op evaluates 64 batch samples
///            per word with zero per-gate allocations. Portable fallback.
///   kAvx2    kWord64's loop vectorized 4 words (256 samples) at a time with
///            AVX2, selected by runtime CPU detection on x86.
enum class SimdKernel : std::uint8_t { kScalar, kWord64, kAvx2 };

const char* to_string(SimdKernel k);

/// Called once per (wavefront, lpv) with a non-empty instruction; tests use
/// it to observe execution and to trip cancel flags mid-run.
using InstrHook = std::function<void(std::uint32_t wavefront, std::uint32_t lpv,
                                     const LpvInstr& instr)>;

/// The one SlicedProgram replay interpreter and the arena it runs over. The
/// bit-sliced LpuSimulator replays through it; the AOT executor runs its
/// native entry point over the same arena and replays wherever that code
/// does not apply (off-width batches, artifacts without native code). Arena
/// load, counter restore, error replay and output unpack therefore exist
/// once. Carries per-run scratch, so one instance per executor; the Program
/// and its SlicedProgram are passed in, never owned.
class SlicedReplay {
 public:
  /// `avx2`: batches of at least 4 words per row run the AVX2 kernel table
  /// (pass true only when resolve_kernel picked SimdKernel::kAvx2).
  explicit SlicedReplay(bool avx2) : avx2_(avx2) {}

  /// Copy `inputs` into the input rows of an arena of `words`-word rows,
  /// sized on first use or when the width changes. Returns the arena.
  std::uint64_t* load(const Program& prog, const SlicedProgram& sp,
                      const std::vector<BitVec>& inputs, std::size_t words);

  /// The replay loop over the loaded arena: polls `cancel` before every
  /// covered wavefront and calls `hook` (when non-null) at each kHook op.
  /// Returns the wavefront at which the cancel was seen, or -1 when the
  /// stream ran out — the AOT native entry point's contract.
  long replay(const Program& prog, const SlicedProgram& sp, std::size_t words,
              const std::atomic<bool>* cancel, const InstrHook* hook);

  /// Close a run that stopped at `stopped_at` (-1: ran to the end of the
  /// stream): write the counters the scalar oracle would report, then throw
  /// SimCancelled or the stream's SimError, or unpack one BitVec of `width`
  /// lanes per primary output.
  std::vector<BitVec> finish(const Program& prog, const SlicedProgram& sp,
                             long stopped_at, std::size_t width,
                             SimCounters& counters) const;

 private:
  std::vector<std::uint64_t> arena_;
  bool avx2_;
};

/// Cycle-level simulator of the LPU of Sec. IV — the interpreter backend
/// pair (scalar oracle / bit-sliced replay) behind the ExecutorBackend seam;
/// the AOT-compiled backend lives in src/aot/.
///
/// Models: per-LPE snapshot registers with hold semantics, the non-blocking
/// multicast switch between adjacent LPVs (functional routing; the
/// interconnect library separately proves each route config realizable), the
/// read-address shift register (a memLoc issued at macro cycle w reaches LPV
/// j at w + j), the input data buffer, and the output data buffer including
/// its feedback region for depth circulation.
///
/// The simulation is wave-by-wave, which is observationally equivalent to
/// the fully pipelined machine; all *timing-sensitive* interactions
/// (feedback read-after-write across passes) are checked against absolute
/// macro-cycle times and raise SimError when a program would have raced in
/// real hardware.
///
/// Execution paths: by default (`simd` = true) the program is lowered once
/// at construction to its replay stream (sliced_program.hpp), and each run
/// replays it bit-sliced — packed 64-bit words across the full batch width,
/// AVX2 when the CPU has it (see SimdKernel). `simd` = false keeps the
/// original scalar BitVec interpreter, which survives as the bit-exactness
/// oracle for the differential tests and is the only path that honours a
/// route oracle. Environment overrides (read at construction):
/// LBNN_FORCE_SCALAR forces the scalar kernel regardless of `simd`,
/// LBNN_NO_AVX2 pins the bit-sliced path to the portable word-at-a-time
/// loop — CI builds both legs.
class LpuSimulator : public ExecutorBackend {
 public:
  explicit LpuSimulator(const Program& program, bool simd = true);

  /// Run one batch. `inputs` holds one BitVec per primary input; all widths
  /// must be equal (each bit lane is an independent sample; the paper's
  /// datapath uses 2m lanes). Returns one BitVec per primary output.
  ///
  /// `cancel`, when non-null, is polled between wavefronts: once it reads
  /// true the run throws SimCancelled instead of finishing. All run state is
  /// per-call, so a cancelled simulator is immediately reusable. The serving
  /// runtime's speculative hedging passes the member slot's cancel flag here
  /// so the losing duplicate of a hedged member stops burning cycles. Every
  /// kernel polls at the same wavefront boundary, so a cancelled run throws
  /// at the identical point scalar or bit-sliced.
  std::vector<BitVec> run(const std::vector<BitVec>& inputs,
                          const std::atomic<bool>* cancel = nullptr) override;

  const SimCounters& counters() const override { return counters_; }

  BackendKind backend_kind() const override {
    return kernel_ == SimdKernel::kScalar || oracle_ ? BackendKind::kScalar
                                                     : BackendKind::kSliced;
  }

  /// The gate-evaluation kernel this instance resolved to at construction.
  SimdKernel kernel() const { return kernel_; }

  /// True when this CPU exposes AVX2 (always false off x86).
  static bool cpu_has_avx2();
  /// Kernel selection: scalar when `simd_requested` is false or
  /// LBNN_FORCE_SCALAR is set; otherwise AVX2 when the CPU has it and
  /// LBNN_NO_AVX2 is unset; otherwise the portable word kernel.
  static SimdKernel resolve_kernel(bool simd_requested);

  /// See InstrHook; every kernel calls it at the same points.
  void set_instr_hook(InstrHook hook) { hook_ = std::move(hook); }

  /// Staged-switch mode: when set, every inter-LPV multicast assignment
  /// (src_of_dest[slot] = previous-LPV lane or -1) is resolved through this
  /// oracle instead of the functional route table; the oracle returns the
  /// source lane actually delivered to each destination slot. Tests plug the
  /// Beneš+copy fabric in here, so a routing bug in the staged hardware
  /// model would surface as an output mismatch against the reference. Routes
  /// resolve per run, so a simulator with an oracle always runs the scalar
  /// oracle, whatever its kernel.
  using RouteOracle =
      std::function<std::vector<std::uint32_t>(const std::vector<std::int32_t>&)>;
  void set_route_oracle(RouteOracle oracle) { oracle_ = std::move(oracle); }

 private:
  std::vector<BitVec> run_scalar(const std::vector<BitVec>& inputs,
                                 const std::atomic<bool>* cancel,
                                 std::size_t width);
  std::vector<BitVec> run_compiled(const std::vector<BitVec>& inputs,
                                   const std::atomic<bool>* cancel,
                                   std::size_t width);
  /// Staged-switch resolution of one instruction (see set_route_oracle).
  std::vector<std::uint32_t> resolve_staged(const LpvInstr& instr) const;

  const Program& prog_;
  SimCounters counters_;
  InstrHook hook_;
  RouteOracle oracle_;
  SimdKernel kernel_;
  /// The program lowered to its flat replay stream (see sliced_program.hpp),
  /// built once at construction unless the kernel is scalar.
  SlicedProgram sliced_;
  SlicedReplay replay_;
};

/// Bitwise evaluation of a 2-input LUT over packed words.
BitVec eval_lut(TruthTable4 lut, const BitVec& a, const BitVec& b);

/// Allocation-free form: evaluates into `out` word by word (no BitVec
/// temporaries — the scalar oracle path runs on this so oracle-vs-SIMD bench
/// deltas measure the algorithm, not the allocator). Widths of a, b and out
/// must match; out may alias a or b.
void eval_lut_into(TruthTable4 lut, const BitVec& a, const BitVec& b,
                   BitVec& out);

}  // namespace lbnn
