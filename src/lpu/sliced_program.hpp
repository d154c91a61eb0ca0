#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"

namespace lbnn {

/// One op of the compiled bit-sliced replay stream. Every piece of the
/// interpreter's control flow is data-independent (validity, feedback
/// read/write ordering, fanout, errors, counters — all functions of the
/// immutable program alone), so compile_sliced() lowers the program into a
/// flat op stream once and execution is a replay of two op kinds:
///   kCompute  one real gate: the kernel for truth table `bits` reads rows
///             `a` and `b` and writes row `dst` (which may be `a` or `b`);
///   kHook     the instruction hook point of (current wavefront, lpv `a`).
/// Row indices are in row units; the executor scales by the per-run word
/// count.
struct SlicedOp {
  enum Kind : std::uint8_t { kCompute, kHook };
  std::uint32_t a = 0;    ///< kCompute: A row. kHook: lpv.
  std::uint32_t b = 0;    ///< kCompute: B row.
  std::uint32_t dst = 0;  ///< kCompute: destination row.
  Kind kind = kCompute;
  std::uint8_t bits = 0;  ///< kCompute: truth table (kernel table index).
};

/// Exact counter values at a wavefront boundary (and at the compiled
/// error's throw point): a cancelled or failed run must report the same
/// partial counters the interpreter would have accumulated.
struct CounterPrefix {
  std::uint64_t input_reads = 0;
  std::uint64_t route_writes = 0;
  std::uint64_t lpe_computes = 0;
  std::uint64_t feedback_words = 0;
};

/// The Program lowered to its flat replay stream — the shared IR behind
/// every non-scalar executor backend: the replay interpreter runs it
/// (SlicedReplay, behind both the bit-sliced LpuSimulator and the AOT
/// executor's replay), and the AOT native codegen (src/aot/codegen.cpp)
/// lowers it to straight-line C++. One lowering, two executors, identical
/// observable semantics by construction.
///
/// The stream computes the program's dataflow, not its datapath moves:
/// routes, register holds, feedback words, output taps and buf /
/// constant-false gates are resolved at lowering time, and gates no primary
/// output depends on are dropped. The LPU counters still model the hardware
/// (they come from counters_at, not from the ops).
///
/// Arena row layout:
///   row 0                 always-zero (invalid-but-ignored operands, and
///                         constant-false values)
///   [1 .. 1 + num_in)     input data buffer rows, loaded before each run
///   [1 + num_in ..)       computed values, packed by liveness: a row is
///                         reused once its value's last reader has run
/// out_rows[po] is the row primary output po reads at the end of a run; it
/// may be the zero row, an input row, or a row another output shares.
struct SlicedProgram {
  std::vector<SlicedOp> ops;
  std::vector<std::uint32_t> wave_op_end;  ///< ops end per wavefront
  std::vector<CounterPrefix> counters_at;  ///< before wavefront w; [W] = final
  std::uint32_t num_rows = 0;              ///< arena rows (zero|in|values)
  std::vector<std::uint32_t> out_rows;     ///< row of each primary output
  std::uint32_t num_wavefronts = 0;  ///< the program's wavefront count
  std::uint32_t compiled_waves = 0;  ///< wavefronts the stream covers
  /// A program whose run would throw SimError does so at a fixed point; the
  /// stream is truncated there and the executor replays the throw (message
  /// and partial counters included) after the covered wavefronts.
  bool error = false;
  std::string error_msg;
  CounterPrefix error_counters;
};

/// Lower `prog` into its replay stream. The walk mirrors the scalar
/// interpreter statement for statement — where the interpreter would throw,
/// the stream is truncated and the executor replays the throw at the same
/// point (cancel checks for the covered wavefronts still come first, so a
/// cancel that lands earlier still wins, exactly as in the interpreter).
SlicedProgram compile_sliced(const Program& prog);

}  // namespace lbnn
