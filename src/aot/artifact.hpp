#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "lpu/backend.hpp"
#include "lpu/simulator.hpp"
#include "lpu/sliced_program.hpp"

namespace lbnn::aot {

/// How to build an artifact. `artifact_dir` must exist and be writable; it
/// is both the scratch space for codegen and the persistent disk cache —
/// a later process pointed at the same directory reloads instead of
/// recompiling (the warm-restart path). Empty means no native code.
struct AotOptions {
  std::string artifact_dir;
  /// Compile the artifact for AVX2 (auto-vectorized loops; part of the
  /// content key, so base and AVX2 artifacts coexist in one directory).
  bool avx2 = false;
};

/// A program's AOT artifact: its replay stream plus, when native codegen
/// succeeded, a dlopen'd shared object (kind kAotNative). Where no compiler
/// is available or any native step fails, the artifact carries no native
/// code (kind kSliced) and an executor over it replays the stream exactly
/// like the sliced interpreter. Immutable once built; shared by every
/// executor running the program (executors carry the per-run arena, the
/// artifact carries only code and the stream's metadata — arena layout,
/// counters, error replay).
class ProgramArtifact {
 public:
  using RunFn = int (*)(std::uint64_t* arena, unsigned long words);

  BackendKind kind = BackendKind::kSliced;
  SlicedProgram sliced;
  std::string key;  ///< content key (also the on-disk base name)

  // Native code (kind == kAotNative).
  RunFn run = nullptr;
  std::string so_path;
  /// The row width (in 64-bit words) the native code is specialized to —
  /// constant trip counts and constant row offsets are most of its edge over
  /// the interpreter. Off-width batches (a partial seal narrower than the
  /// program's word_width) replay the stream instead.
  std::uint32_t native_words = 0;
  /// The artifact was reloaded from disk instead of compiled (warm restart).
  bool from_disk = false;

  ProgramArtifact() = default;
  ProgramArtifact(ProgramArtifact&&) = default;
  ProgramArtifact& operator=(ProgramArtifact&&) = default;
  ProgramArtifact(const ProgramArtifact&) = delete;
  ProgramArtifact& operator=(const ProgramArtifact&) = delete;

 private:
  /// RAII dlopen handle: closed when the last shared_ptr to the artifact
  /// drops, i.e. never while any executor still holds the code mapped.
  struct DlHandle {
    void* h = nullptr;
    DlHandle() = default;
    explicit DlHandle(void* handle) : h(handle) {}
    DlHandle(DlHandle&& o) noexcept : h(o.h) { o.h = nullptr; }
    DlHandle& operator=(DlHandle&& o) noexcept;
    ~DlHandle();
  };
  DlHandle handle_;
  friend ProgramArtifact compile_artifact(const Program&, const AotOptions&);
};

/// The compiler native codegen spawns: LBNN_AOT_CXX if set, else the
/// configure-time compiler CMake baked in, else empty (native unavailable —
/// every artifact is built without native code).
std::string aot_compiler();

/// Build (or reload) the artifact for `prog`:
///   1. If a shared object named by the content key exists in artifact_dir,
///      dlopen it and verify the embedded key and ABI; a corrupted or
///      truncated artifact (dlopen failure, missing symbols, key/ABI
///      mismatch) is unlinked and recompiled — never trusted.
///   2. Otherwise generate C++, spawn `aot_compiler() -O2 -fPIC -shared`
///      out of process into a unique temp name, and atomically rename into
///      place — concurrent builders (two engines sharing the directory)
///      each publish a complete file; last rename wins with identical bytes.
///   3. Where native is unavailable (no compiler, no artifact_dir) or any
///      native step fails, return the artifact without native code (kind
///      kSliced).
/// Throws only on programmer error (never on a failed native build).
ProgramArtifact compile_artifact(const Program& prog, const AotOptions& opt);

/// Executes a program through its AOT artifact: the native entry point when
/// the artifact has native code for the batch width, otherwise the same
/// replay interpreter the bit-sliced LpuSimulator runs (SlicedReplay). The
/// AOT backend behind the ExecutorBackend seam. Byte-exact with the scalar
/// oracle by contract: same outputs, same counters, and the same SimError
/// messages with the same partial counters. Single-threaded like
/// LpuSimulator (owns a per-run arena); the engine keeps one per
/// (worker, program).
class AotExecutor : public ExecutorBackend {
 public:
  /// `prog` must be the program `artifact` was compiled from (the serving
  /// engine guarantees it by content key).
  AotExecutor(const Program& prog,
              std::shared_ptr<const ProgramArtifact> artifact);

  std::vector<BitVec> run(const std::vector<BitVec>& inputs) override;

  const SimCounters& counters() const override { return counters_; }

  BackendKind backend_kind() const override { return artifact_->kind; }

  const ProgramArtifact& artifact() const { return *artifact_; }

 private:
  const Program& prog_;
  std::shared_ptr<const ProgramArtifact> artifact_;
  SimCounters counters_;
  SlicedReplay replay_;
};

}  // namespace lbnn::aot
