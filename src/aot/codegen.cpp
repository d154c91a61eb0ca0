#include "aot/codegen.hpp"

#include <array>

#include "core/serialize.hpp"

namespace lbnn::aot {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001B3ull;

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = kFnvOffset) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[i] = digits[v & 0xF];
    v >>= 4;
  }
  return s;
}

/// The constant-folded minterm chain for one truth table, over names `x`
/// (operand A) and `y` (operand B) — the same folding the interpreter's
/// templated kernels get from `if constexpr`, done here in the generator.
/// `x ^ x` for the constant-false table keeps the expression valid for both
/// the scalar tail and the vector body (a plain 0 does not convert to a GCC
/// vector).
std::string lut_expr(std::uint8_t bits) {
  std::string e;
  const auto add = [&e](const char* term) {
    if (!e.empty()) e += " | ";
    e += term;
  };
  if (bits & 1) add("~(x | y)");
  if (bits & 2) add("(x & ~y)");
  if (bits & 4) add("(~x & y)");
  if (bits & 8) add("(x & y)");
  return e.empty() ? "(x ^ x)" : e;
}

}  // namespace

std::string content_key(const Program& prog, bool avx2) {
  std::uint64_t h = fnv1a(program_to_string(prog));
  h = fnv1a("abi" + std::to_string(kAotAbi), h);
  return hex64(h) + (avx2 ? "-avx2" : "-base");
}

std::string generate_source(const SlicedProgram& sp, const std::string& key,
                            std::size_t words) {
  std::string out;
  // ~48 bytes per emitted op line; generous headroom avoids regrowth churn.
  out.reserve(2048 + sp.ops.size() * 56);
  out +=
      "// Generated LPU program artifact. Executes the bit-sliced replay\n"
      "// stream as straight-line code; see src/aot/codegen.hpp for the ABI.\n"
      "typedef unsigned long long u64;\n"
      "typedef unsigned long usize;\n"
      "static const usize kNW = " + std::to_string(words) + ";\n"
      "extern \"C\" const char* lbnn_aot_key(void) { return \"" + key + "\"; }\n"
      "extern \"C\" unsigned lbnn_aot_abi(void) { return " +
      std::to_string(kAotAbi) + "u; }\n";

  std::array<bool, 16> used{};
  for (const SlicedOp& o : sp.ops) {
    if (o.kind == SlicedOp::kCompute) used[o.bits & 0xF] = true;
  }
  if (used != std::array<bool, 16>{}) {
    // The kernels the interpreter dispatches to, minus everything runtime:
    // GCC's -O2 cost model declines to auto-vectorize runtime-trip-count
    // word loops, so the vectorization is spelled out with vector extensions
    // (4 x u64 per lane — AVX2-width under -mavx2, SSE pairs otherwise;
    // aligned(8) because arena rows are only u64-aligned), and the trip
    // count kNW is a compile-time constant so the loop fully unrolls with no
    // counter or tail checks. noinline matters: the 16 shared kernel bodies
    // stay hot in L1i across the whole run, where inlining them per op
    // emits ~100 KB of straight-line code that thrashes the instruction
    // cache against the workers' arenas (measured ~2x worse p99 under the
    // serving engine than this form). `o` may be `a` or `b` (the row
    // allocator hands a gate the row its last-read operand just freed);
    // every iteration loads before it stores, so that is safe.
    out +=
        "typedef u64 v4 __attribute__((vector_size(32), aligned(8)));\n"
        "#define KF(name, expr)                                          \\\n"
        "  static __attribute__((noinline)) void name(                   \\\n"
        "      const u64* a, const u64* b, u64* o) {                     \\\n"
        "    usize i = 0;                                                \\\n"
        "    for (; i + 4 <= kNW; i += 4) {                              \\\n"
        "      const v4 x = *(const v4*)(a + i);                         \\\n"
        "      const v4 y = *(const v4*)(b + i); (void)y;                \\\n"
        "      *(v4*)(o + i) = (expr);                                   \\\n"
        "    }                                                           \\\n"
        "    for (; i < kNW; ++i) {                                      \\\n"
        "      const u64 x = a[i]; const u64 y = b[i]; (void)y;          \\\n"
        "      o[i] = (expr);                                            \\\n"
        "    }                                                           \\\n"
        "  }\n";
  }
  for (int b = 0; b < 16; ++b) {
    if (!used[b]) continue;
    out += "KF(kf" + std::to_string(b) + ", " +
           lut_expr(static_cast<std::uint8_t>(b)) + ")\n";
  }
  // One function per non-empty wavefront. Splitting here (rather than
  // emitting one straight-line lbnn_aot_run) bounds each function at a
  // wavefront's worth of call lines: g++ time is superlinear in function
  // size, and the single-function form of this generator took ~25 s at the
  // 400-gate anchor where this takes well under a second. Row offsets fold
  // to constants (kNW is constant), so each op line is three leas + a call.
  std::size_t op = 0;
  for (std::uint32_t w = 0; w < sp.compiled_waves; ++w) {
    const std::uint32_t end = sp.wave_op_end[w];
    if (op == end) continue;
    out += "static void wv" + std::to_string(w) + "(u64* A) {\n";
    for (; op < end; ++op) {
      const SlicedOp& o = sp.ops[op];
      // kHook: no hook support in artifacts — skipped.
      if (o.kind != SlicedOp::kCompute) continue;
      out += "  kf" + std::to_string(o.bits & 0xF) + "(A + " +
             std::to_string(o.a) + "*kNW, A + " + std::to_string(o.b) +
             "*kNW, A + " + std::to_string(o.dst) + "*kNW);\n";
    }
    out += "}\n";
  }

  out +=
      "extern \"C\" int lbnn_aot_run(u64* A, usize W) {\n"
      "  if (W != kNW) return 0;  // specialized elsewhere; host falls back\n";
  op = 0;
  for (std::uint32_t w = 0; w < sp.compiled_waves; ++w) {
    if (op != sp.wave_op_end[w]) {
      out += "  wv" + std::to_string(w) + "(A);\n";
      op = sp.wave_op_end[w];
    }
  }
  out += "  return 1;\n}\n";
  return out;
}

}  // namespace lbnn::aot
