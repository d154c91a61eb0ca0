#pragma once

#include <cstdint>
#include <string>

#include "core/program.hpp"
#include "lpu/sliced_program.hpp"

namespace lbnn::aot {

/// ABI version of the generated artifact's entry points. Bump whenever the
/// arena layout, the entry-point signature, or the return-value contract
/// changes — a disk-cached artifact from an older ABI then fails the
/// verification handshake and is recompiled instead of mis-executing. The
/// content key hashes the program text and this version, not the stream, so
/// a change to compile_sliced's row assignment must bump it too.
constexpr unsigned kAotAbi = 3;

/// Content key of a program's native artifact: a stable hex fingerprint over
/// the full serialized program text plus the ABI version and the ISA the
/// artifact was compiled for ("avx2" or "base" — the two produce different
/// machine code from the same source). Also the artifact's on-disk base name,
/// so two engines sharing an artifact_dir converge on one file per
/// (program, ABI, ISA) and a warm restart finds its artifacts by recomputing
/// the key.
std::string content_key(const Program& prog, bool avx2);

/// Lower the replay stream to straight-line branchless C++, specialized to
/// the program's nominal row width of `words` 64-bit words: one kernel
/// function per truth table in use (constant-folded minterm chain over
/// explicitly vectorized 4 x u64 lanes, trip count a compile-time constant so
/// the loop fully unrolls), one function per wavefront calling them with
/// constant row offsets, and an `lbnn_aot_run` body that is a cancel-poll +
/// wavefront-call sequence.
/// Exported entry points (all extern "C"):
///
///   const char* lbnn_aot_key(void);   // == `key`, checked after dlopen
///   unsigned    lbnn_aot_abi(void);   // == kAotAbi, checked after dlopen
///   long        lbnn_aot_run(u64* arena, unsigned long words,
///                            const volatile unsigned char* cancel);
///
/// lbnn_aot_run executes the stream over an arena the host laid out exactly
/// as SlicedProgram documents (row index * words). It returns -1 on
/// completion, -2 when `words` is not the width the artifact was specialized
/// for (nothing executed — the host replays the stream instead), or the
/// wavefront index at which the cancel byte was observed
/// set — the host then reports the same partial counters and SimCancelled
/// message the interpreter would. Error replay (a stream truncated at a
/// compile-time SimError) stays host-side: the generated code just runs the
/// covered wavefronts. Hooks are not supported (kHook ops are skipped); the
/// serving engine never installs them on AOT members.
std::string generate_source(const SlicedProgram& sp, const std::string& key,
                            std::size_t words);

}  // namespace lbnn::aot
