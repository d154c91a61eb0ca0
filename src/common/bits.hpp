#pragma once

#include <cstdint>

namespace lbnn {

/// C++17 stand-ins for the <bit> helpers the codebase needs (the tier-1
/// build is -std=c++17; gcc/clang builtins compile to the same instructions).
inline int popcount32(std::uint32_t x) { return __builtin_popcount(x); }
inline int popcount64(std::uint64_t x) { return __builtin_popcountll(x); }
/// Undefined for x == 0 (matches the builtin's contract; callers guard).
inline int countr_zero32(std::uint32_t x) { return __builtin_ctz(x); }
inline int countr_zero64(std::uint64_t x) { return __builtin_ctzll(x); }
inline int countl_zero32(std::uint32_t x) { return __builtin_clz(x); }
inline int countl_zero64(std::uint64_t x) { return __builtin_clzll(x); }
/// Smallest power of two >= x (x == 0 or 1 -> 1).
inline std::uint32_t bit_ceil32(std::uint32_t x) {
  if (x <= 1) return 1;
  return 1u << (32 - __builtin_clz(x - 1));
}

/// Transposes a 64x64 bit matrix in place. Row r is a[r] and column c is its
/// bit c (LSB = column 0); afterwards bit c of a[r] is the old bit r of a[c].
/// Six rounds, each swapping the off-diagonal j x j blocks of every 2j x 2j
/// block (Hacker's Delight, 2nd ed., Sec. 7-3).
inline void transpose64(std::uint64_t (&a)[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;  // low j bits of every 2j-bit group
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned base = 0; base < 64; base += 2 * j) {
      for (unsigned k = base; k < base + j; ++k) {
        const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
        a[k] ^= t << j;
        a[k + j] ^= t;
      }
    }
  }
}

}  // namespace lbnn
