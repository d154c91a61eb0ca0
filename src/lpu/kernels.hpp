#pragma once

#include <cstddef>
#include <cstdint>

namespace lbnn::kernels {

/// One bit-sliced gate kernel: (a, b, out, words). The truth table is baked
/// into the function (16 specializations per table), so a call is pure loads,
/// logic ops, and stores — no per-gate mask setup. The replay loop
/// (SlicedReplay::replay) dispatches through these tables.
///
/// `out` may alias `a` or `b` (exactly, never a partial overlap): each word
/// is loaded before its result is stored. compile_sliced's row allocator
/// relies on this when it hands a gate the row its operand just freed.
using KernelFn = void (*)(const std::uint64_t*, const std::uint64_t*,
                          std::uint64_t*, std::size_t);

/// 16-entry table of truth-table-specialized portable word64 kernels
/// (index = TruthTable4::bits). Never null.
const KernelFn* word_table();

/// 16-entry AVX2 table (4 words / 256 batch samples per iteration), or
/// nullptr off x86. Only call through it after cpu_has_avx2() said yes.
const KernelFn* avx2_table();

/// Runtime CPU detection (always false off x86).
bool cpu_has_avx2();

}  // namespace lbnn::kernels
