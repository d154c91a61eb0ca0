#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "core/program.hpp"

namespace lbnn {

/// Execution statistics of one batch (used by benches and reports).
struct SimCounters {
  std::uint64_t wavefronts = 0;
  std::uint64_t macro_cycles = 0;
  std::uint64_t clock_cycles = 0;
  std::uint64_t lpe_computes = 0;
  std::uint64_t route_writes = 0;
  std::uint64_t input_reads = 0;
  std::uint64_t feedback_words = 0;
  /// computes / (wavefronts * n * m)
  double lpe_utilization = 0.0;
};

/// Which executor implementation served a run: the scalar oracle, the
/// sliced replay interpreter (LpuSimulator's bit-sliced kernels, or an AOT
/// artifact without native code), or the dlopen'd straight-line code the
/// AOT backend (src/aot/) emits per program.
enum class BackendKind : std::uint8_t {
  kScalar = 0,
  kSliced = 1,
  kAotNative = 2,
};

/// Number of BackendKind values (the width of per-backend counter arrays).
constexpr std::size_t kNumBackendKinds =
    static_cast<std::size_t>(BackendKind::kAotNative) + 1;

const char* to_string(BackendKind k);

/// The seam between Program and execution. One instance executes exactly one
/// immutable Program; instances carry per-run scratch (arenas), so they are
/// single-threaded — the engine keeps one executor per (worker, program).
///
/// Every implementation is bit-exact by contract against the scalar oracle:
/// identical output bits, counters and SimError messages
/// (tests/test_simd_diff.cpp and tests/test_aot.cpp are the differential
/// harnesses enforcing it). That contract is what lets the
/// serving engine promote a model from one backend to another between two
/// member runs with no observable effect beyond latency.
class ExecutorBackend {
 public:
  virtual ~ExecutorBackend() = default;

  /// Run one batch. `inputs` holds one BitVec per primary input; all widths
  /// must be equal (each bit lane is an independent sample). Returns one
  /// BitVec per primary output. All run state is per-call, so an executor
  /// whose run threw is immediately reusable.
  virtual std::vector<BitVec> run(const std::vector<BitVec>& inputs) = 0;

  /// Counters of the most recent run (partial counters after an error,
  /// exactly as the scalar interpreter would have accumulated them).
  virtual const SimCounters& counters() const = 0;

  /// Which implementation this is (stats / trace stamps).
  virtual BackendKind backend_kind() const = 0;
};

/// Shared batch validation, identical across backends: throws SimError on a
/// wrong input count, a zero-width batch, or ragged widths; returns the
/// batch width (each bit lane is one sample).
std::size_t validate_batch_inputs(const Program& prog,
                                  const std::vector<BitVec>& inputs);

}  // namespace lbnn
