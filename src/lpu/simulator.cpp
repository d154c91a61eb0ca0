#if defined(__GNUC__) && !defined(__clang__)
// GCC 12 flags the inlined vector<uint64_t> copy inside BitVec assignment as
// memmove(dst, nullptr, 0) on the empty-source path; every BitVec copied here
// has width >= 1 (run() rejects width-0 batches), so the path is dead. The
// pragma must precede the includes — the diagnostic anchors inside
// stl_algobase.h.
#pragma GCC diagnostic ignored "-Wnonnull"
#endif

#include "lpu/simulator.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "lpu/kernels.hpp"

namespace lbnn {

namespace {

/// Broadcast one truth-table bit to an all-ones/all-zeros 64-bit mask.
inline std::uint64_t lut_mask(std::uint8_t bits, int idx) {
  return ((bits >> idx) & 1) ? ~0ull : 0ull;
}

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// The counters every completed run derives from the program alone.
void complete_counters(const Program& prog, SimCounters& c) {
  c.macro_cycles = prog.macro_cycles();
  c.clock_cycles = prog.clock_cycles();
  const double denom =
      static_cast<double>(prog.num_wavefronts) * prog.cfg.n * prog.cfg.m;
  c.lpe_utilization =
      denom == 0 ? 0.0 : static_cast<double>(c.lpe_computes) / denom;
}

}  // namespace

const char* to_string(SimdKernel k) {
  switch (k) {
    case SimdKernel::kScalar:
      return "scalar";
    case SimdKernel::kWord64:
      return "word64";
    case SimdKernel::kAvx2:
      return "avx2";
  }
  return "?";
}

bool LpuSimulator::cpu_has_avx2() { return kernels::cpu_has_avx2(); }

SimdKernel LpuSimulator::resolve_kernel(bool simd_requested) {
  if (!simd_requested || env_set("LBNN_FORCE_SCALAR")) {
    return SimdKernel::kScalar;
  }
  if (cpu_has_avx2() && !env_set("LBNN_NO_AVX2")) return SimdKernel::kAvx2;
  return SimdKernel::kWord64;
}

void eval_lut_into(TruthTable4 lut, const BitVec& a, const BitVec& b,
                   BitVec& out) {
  LBNN_CHECK(a.width() == b.width() && a.width() == out.width(),
             "eval_lut_into width mismatch");
  const std::uint8_t bits = lut.bits();
  const std::uint64_t m0 = lut_mask(bits, 0);
  const std::uint64_t m1 = lut_mask(bits, 1);
  const std::uint64_t m2 = lut_mask(bits, 2);
  const std::uint64_t m3 = lut_mask(bits, 3);
  for (std::size_t w = 0; w < out.num_words(); ++w) {
    const std::uint64_t aw = a.word(w);
    const std::uint64_t bw = b.word(w);
    // set_word masks the tail word, keeping the BitVec canonical even though
    // the ~ terms set bits past the width.
    out.set_word(w, (m0 & ~(aw | bw)) | (m1 & (aw & ~bw)) |
                        (m2 & (~aw & bw)) | (m3 & (aw & bw)));
  }
}

BitVec eval_lut(TruthTable4 lut, const BitVec& a, const BitVec& b) {
  BitVec r(a.width(), false);
  eval_lut_into(lut, a, b, r);
  return r;
}

LpuSimulator::LpuSimulator(const Program& program, bool simd)
    : prog_(program),
      kernel_(resolve_kernel(simd)),
      replay_(kernel_ == SimdKernel::kAvx2) {
  prog_.validate();
  if (kernel_ != SimdKernel::kScalar) sliced_ = compile_sliced(prog_);
}

std::vector<std::uint32_t> LpuSimulator::resolve_staged(
    const LpvInstr& instr) const {
  std::vector<std::uint32_t> staged_src;
  if (!oracle_) return staged_src;
  std::vector<std::int32_t> assignment(2 * prog_.cfg.m, -1);
  bool any = false;
  for (const RouteWrite& r : instr.routes) {
    if (r.src.kind == SrcSel::Kind::kPrevLane) {
      assignment[r.slot] = static_cast<std::int32_t>(r.src.index);
      any = true;
    }
  }
  if (any) staged_src = oracle_(assignment);
  return staged_src;
}

std::vector<BitVec> LpuSimulator::run(const std::vector<BitVec>& inputs,
                                      const std::atomic<bool>* cancel) {
  const std::size_t width = validate_batch_inputs(prog_, inputs);
  // A route oracle resolves routes per run, which only the scalar oracle
  // does — so it takes every run of a simulator that has one.
  if (kernel_ != SimdKernel::kScalar && !oracle_) {
    return run_compiled(inputs, cancel, width);
  }
  counters_ = SimCounters{};
  counters_.wavefronts = prog_.num_wavefronts;
  std::vector<BitVec> outputs = run_scalar(inputs, cancel, width);
  complete_counters(prog_, counters_);
  return outputs;
}

// -------------------------------------------------------------------------
// Scalar oracle kernel: the original BitVec-at-a-time interpreter. Kept
// bit-for-bit as the reference the bit-sliced kernels are differentially
// tested against (tests/test_simd_diff.cpp); its only change since is that
// gate evaluation reuses cur_out / a shared zero word through eval_lut_into
// instead of allocating up to 6 BitVec temporaries per gate.
// -------------------------------------------------------------------------
std::vector<BitVec> LpuSimulator::run_scalar(const std::vector<BitVec>& inputs,
                                             const std::atomic<bool>* cancel,
                                             std::size_t width) {
  const LpuConfig& cfg = prog_.cfg;
  const std::uint32_t n = cfg.n;
  const std::uint32_t m = cfg.m;

  // Input data buffer contents.
  std::vector<BitVec> input_buffer(prog_.input_layout.size());
  for (std::size_t a = 0; a < prog_.input_layout.size(); ++a) {
    input_buffer[a] = inputs[prog_.input_layout[a]];
  }

  // Snapshot registers: regs[lpv][slot] (slot = lane*2 + ab).
  const BitVec zero(width, false);
  std::vector<std::vector<BitVec>> regs(n, std::vector<BitVec>(2 * m, zero));
  std::vector<std::vector<char>> reg_valid(n, std::vector<char>(2 * m, 0));

  struct FbEntry {
    BitVec word;
    std::uint64_t write_time;
  };
  std::unordered_map<std::uint32_t, FbEntry> feedback;

  // Output taps grouped by wavefront for O(1) lookup.
  std::unordered_map<std::uint32_t, std::vector<const OutputTap*>> taps_at;
  for (const auto& tap : prog_.output_taps) taps_at[tap.wavefront].push_back(&tap);

  std::vector<BitVec> outputs(prog_.num_primary_outputs, zero);
  std::vector<char> output_set(prog_.num_primary_outputs, 0);

  std::vector<BitVec> prev_out(m, zero);
  std::vector<char> prev_valid(m, 0);
  std::vector<BitVec> cur_out(m, zero);
  std::vector<char> cur_valid(m, 0);

  for (std::uint32_t w = 0; w < prog_.num_wavefronts; ++w) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw SimCancelled("simulator run cancelled at wavefront " +
                         std::to_string(w));
    }
    std::fill(prev_valid.begin(), prev_valid.end(), 0);
    for (std::uint32_t j = 0; j < n; ++j) {
      const LpvInstr& instr = prog_.instr[w][j];
      if (hook_ && !instr.empty()) hook_(w, j, instr);

      // Staged-switch mode: resolve the multicast assignment through the
      // oracle (the staged fabric) instead of the functional route table.
      const std::vector<std::uint32_t> staged_src = resolve_staged(instr);

      // 1. Switch stage: deliver values into snapshot registers.
      for (const RouteWrite& r : instr.routes) {
        BitVec value;
        switch (r.src.kind) {
          case SrcSel::Kind::kPrevLane: {
            if (j == 0) throw SimError("LPV 0 has no predecessor to route from");
            const std::uint32_t lane =
                staged_src.empty() ? r.src.index : staged_src[r.slot];
            if (lane >= m || !prev_valid[lane]) {
              throw SimError("route from an invalid previous-LPV lane");
            }
            value = prev_out[lane];
            break;
          }
          case SrcSel::Kind::kInput:
            value = input_buffer[r.src.index];
            ++counters_.input_reads;
            break;
          case SrcSel::Kind::kFeedback: {
            const auto it = feedback.find(r.src.index);
            if (it == feedback.end()) {
              throw SimError("feedback read before write (address " +
                             std::to_string(r.src.index) + ")");
            }
            // Absolute macro time of this read is w + j; the write completed
            // at its producer's wavefront + n - 1.
            if (static_cast<std::uint64_t>(w) + j <= it->second.write_time) {
              throw SimError("feedback read would outrun its write in hardware");
            }
            value = it->second.word;
            break;
          }
        }
        regs[j][r.slot] = std::move(value);
        reg_valid[j][r.slot] = 1;
        ++counters_.route_writes;
      }

      // 2. Compute stage: active LPEs evaluate their LUT.
      std::fill(cur_valid.begin(), cur_valid.end(), 0);
      for (const ComputeWrite& c : instr.computes) {
        const std::size_t slot_a = static_cast<std::size_t>(c.lane) * 2;
        const BitVec& a = regs[j][slot_a];
        const BitVec& b = regs[j][slot_a + 1];
        if (!c.lut.ignores_a() && !reg_valid[j][slot_a]) {
          throw SimError("LPE computes over an invalid A operand");
        }
        if (!c.lut.ignores_b() && !reg_valid[j][slot_a + 1]) {
          throw SimError("LPE computes over an invalid B operand");
        }
        eval_lut_into(c.lut, reg_valid[j][slot_a] ? a : zero,
                      reg_valid[j][slot_a + 1] ? b : zero, cur_out[c.lane]);
        cur_valid[c.lane] = 1;
        ++counters_.lpe_computes;
      }

      // 3. Terminal LPV: feedback writes and output taps.
      if (j == n - 1) {
        for (const Lane lane : instr.feedback_writes) {
          if (!cur_valid[lane]) throw SimError("feedback write of an invalid lane");
          feedback[w * m + lane] =
              FbEntry{cur_out[lane], static_cast<std::uint64_t>(w) + n - 1};
          ++counters_.feedback_words;
        }
        const auto it = taps_at.find(w);
        if (it != taps_at.end()) {
          for (const OutputTap* tap : it->second) {
            if (!cur_valid[tap->lane]) throw SimError("output tap of an invalid lane");
            outputs[tap->po_index] = cur_out[tap->lane];
            output_set[tap->po_index] = 1;
          }
        }
      }
      std::swap(prev_out, cur_out);
      std::swap(prev_valid, cur_valid);
    }
  }

  for (std::size_t po = 0; po < outputs.size(); ++po) {
    if (!output_set[po]) {
      throw SimError("primary output " + std::to_string(po) + " never produced");
    }
  }
  return outputs;
}

// -------------------------------------------------------------------------
// The replay interpreter: replay the op stream compile_sliced() built.
// Per wavefront: one cancel poll, then kernel calls — every other decision
// the scalar interpreter makes per gate was already made at lowering time.
// Counters come from the precomputed prefixes, so a cancelled (or
// error-replaying) run reports exactly what the interpreter would have
// accumulated by the same point.
// -------------------------------------------------------------------------
std::vector<BitVec> LpuSimulator::run_compiled(const std::vector<BitVec>& inputs,
                                               const std::atomic<bool>* cancel,
                                               std::size_t width) {
  const std::size_t words = (width + 63) / 64;
  replay_.load(prog_, sliced_, inputs, words);
  const long stopped_at =
      replay_.replay(prog_, sliced_, words, cancel, hook_ ? &hook_ : nullptr);
  return replay_.finish(prog_, sliced_, stopped_at, width, counters_);
}

std::uint64_t* SlicedReplay::load(const Program& prog, const SlicedProgram& sp,
                                  const std::vector<BitVec>& inputs,
                                  std::size_t words) {
  // Zero only on (re)size: the op stream is identical every run, so every
  // row it reads was written earlier in the same run (or is row 0, the
  // never-written zero row) — stale words are unreachable.
  if (arena_.size() != static_cast<std::size_t>(sp.num_rows) * words) {
    arena_.assign(static_cast<std::size_t>(sp.num_rows) * words, 0);
  }
  std::uint64_t* const arena = arena_.data();
  const std::size_t num_in = prog.input_layout.size();
  for (std::size_t a = 0; a < num_in; ++a) {
    const BitVec& src = inputs[prog.input_layout[a]];
    for (std::size_t w = 0; w < words; ++w) {
      arena[(1 + a) * words + w] = src.word(w);
    }
  }
  return arena;
}

long SlicedReplay::replay(const Program& prog, const SlicedProgram& sp,
                          std::size_t words, const std::atomic<bool>* cancel,
                          const InstrHook* hook) {
  // Kernel table choice is per run: below one full vector of words an AVX2
  // kernel falls straight into its word-loop tail, so narrow batches take
  // the portable table directly. avx2_ is only set when resolve_kernel saw
  // AVX2 on x86, so avx2_table() is non-null whenever it is taken.
  const kernels::KernelFn* ktab = kernels::word_table();
  if (avx2_ && words >= 4) ktab = kernels::avx2_table();
  std::uint64_t* const arena = arena_.data();

  const SlicedOp* const ops = sp.ops.data();
  std::size_t op = 0;
  for (std::uint32_t w = 0; w < sp.compiled_waves; ++w) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return static_cast<long>(w);
    }
    const std::uint32_t end = sp.wave_op_end[w];
    for (; op < end; ++op) {
      const SlicedOp& o = ops[op];
      if (o.kind == SlicedOp::kCompute) {
        ktab[o.bits](arena + o.a * words, arena + o.b * words,
                     arena + o.dst * words, words);
      } else if (hook != nullptr) {
        (*hook)(w, o.a, prog.instr[w][o.a]);
      }
    }
  }
  return -1;
}

std::vector<BitVec> SlicedReplay::finish(const Program& prog,
                                         const SlicedProgram& sp,
                                         long stopped_at, std::size_t width,
                                         SimCounters& counters) const {
  counters = SimCounters{};
  counters.wavefronts = prog.num_wavefronts;
  const auto set_prefix = [&counters](const CounterPrefix& c) {
    counters.input_reads = c.input_reads;
    counters.route_writes = c.route_writes;
    counters.lpe_computes = c.lpe_computes;
    counters.feedback_words = c.feedback_words;
  };
  if (stopped_at >= 0) {
    set_prefix(sp.counters_at[static_cast<std::size_t>(stopped_at)]);
    throw SimCancelled("simulator run cancelled at wavefront " +
                       std::to_string(stopped_at));
  }
  if (sp.error) {
    set_prefix(sp.error_counters);
    throw SimError(sp.error_msg);
  }
  set_prefix(sp.counters_at[prog.num_wavefronts]);
  complete_counters(prog, counters);

  const std::size_t words = (width + 63) / 64;
  const std::uint64_t* const arena = arena_.data();
  std::vector<BitVec> outputs(prog.num_primary_outputs);
  for (std::size_t po = 0; po < outputs.size(); ++po) {
    BitVec v(width, false);
    for (std::size_t w = 0; w < words; ++w) {
      // set_word masks the tail word: bits the kernels' ~ terms set past the
      // batch width never reach the caller.
      v.set_word(w, arena[sp.out_rows[po] * words + w]);
    }
    outputs[po] = std::move(v);
  }
  return outputs;
}

}  // namespace lbnn
