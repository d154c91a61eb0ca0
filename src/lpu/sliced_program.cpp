#include "lpu/sliced_program.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace lbnn {

// -------------------------------------------------------------------------
// Lower the program into the flat op stream every non-scalar backend
// executes. The interpreter's entire control flow — register/lane validity,
// feedback read-after-write ordering, multicast fanout, SimError conditions,
// counters — depends only on the immutable program, never on batch data. So
// it runs HERE, once, as a symbolic run of the scalar interpreter: where the
// interpreter holds a BitVec in a register slot, lane, feedback word or
// primary output, the walk holds a value id. Routes, input and feedback
// reads, output taps, buf gates and constant-false gates only re-point a
// location at an existing value; only a real gate mints a value and emits a
// kernel call. Dead gates are then dropped and the surviving values packed
// into arena rows by liveness.
// -------------------------------------------------------------------------
SlicedProgram compile_sliced(const Program& prog) {
  prog.validate();
  SlicedProgram sp;
  const std::uint32_t n = prog.cfg.n;
  const std::uint32_t m = prog.cfg.m;
  const std::uint32_t W = prog.num_wavefronts;
  const std::uint32_t num_in = static_cast<std::uint32_t>(prog.input_layout.size());

  // Value ids: 0 is the zero row, 1..num_in the input rows, then one id per
  // real gate in emission order. Ops carry value ids until rows are assigned.
  std::uint32_t num_values = 1 + num_in;

  // Output taps bucketed by wavefront.
  std::vector<std::vector<const OutputTap*>> taps_at(W);
  for (const auto& tap : prog.output_taps) taps_at[tap.wavefront].push_back(&tap);

  const std::size_t fb_addrs = static_cast<std::size_t>(W) * m;
  std::vector<std::uint32_t> fb_val(fb_addrs, 0);
  std::vector<std::int64_t> fb_time(fb_addrs, -1);  // -1: never written

  std::vector<std::uint32_t> reg_val(static_cast<std::size_t>(n) * 2 * m, 0);
  std::vector<char> reg_valid(reg_val.size(), 0);
  std::vector<std::uint32_t> prev_val(m, 0), cur_val(m, 0);
  std::vector<char> prev_valid(m, 0), cur_valid(m, 0);
  std::vector<std::uint32_t> out_val(prog.num_primary_outputs, 0);
  std::vector<char> out_set(prog.num_primary_outputs, 0);

  SimCounters& c = sp.counters;
  c.wavefronts = W;
  sp.wave_op_end.assign(W, 0);
  sp.num_wavefronts = W;
  sp.compiled_waves = W;

  bool err = false;
  auto fail = [&](std::string msg) {
    sp.error = true;
    sp.error_msg = std::move(msg);
    err = true;
  };

  // The value a gate leaves on its lane. buf(a), buf(b) and constant false
  // pass a value through; every other table is a kernel call, with an
  // ignored operand pointed at the zero row so it extends no liveness.
  auto gate = [&](TruthTable4 lut, std::uint32_t a, std::uint32_t b) {
    switch (lut.bits()) {
      case 0x0: return std::uint32_t{0};
      case 0xA: return a;
      case 0xC: return b;
      default: break;
    }
    SlicedOp op;
    op.bits = lut.bits();
    op.a = lut.ignores_a() ? 0 : a;
    op.b = lut.ignores_b() ? 0 : b;
    op.dst = num_values;
    sp.ops.push_back(op);
    return num_values++;
  };

  for (std::uint32_t w = 0; w < W && !err; ++w) {
    std::fill(prev_valid.begin(), prev_valid.end(), 0);
    for (std::uint32_t j = 0; j < n && !err; ++j) {
      const LpvInstr& instr = prog.instr[w][j];
      if (!instr.empty()) {
        SlicedOp hop;
        hop.kind = SlicedOp::kHook;
        hop.a = j;
        sp.ops.push_back(hop);
      }
      const std::size_t regs_j = static_cast<std::size_t>(j) * 2 * m;
      std::uint32_t* const val_j = reg_val.data() + regs_j;
      char* const valid_j = reg_valid.data() + regs_j;

      // 1. Switch stage. validate() already bounds every source index.
      for (const RouteWrite& r : instr.routes) {
        std::uint32_t v = 0;
        switch (r.src.kind) {
          case SrcSel::Kind::kPrevLane:
            if (j == 0) {
              fail("LPV 0 has no predecessor to route from");
            } else if (!prev_valid[r.src.index]) {
              fail("route from an invalid previous-LPV lane");
            } else {
              v = prev_val[r.src.index];
            }
            break;
          case SrcSel::Kind::kInput:
            v = 1 + r.src.index;
            ++c.input_reads;
            break;
          case SrcSel::Kind::kFeedback:
            if (r.src.index >= fb_addrs || fb_time[r.src.index] < 0) {
              fail("feedback read before write (address " +
                   std::to_string(r.src.index) + ")");
            } else if (static_cast<std::int64_t>(w) + j <= fb_time[r.src.index]) {
              fail("feedback read would outrun its write in hardware");
            } else {
              v = fb_val[r.src.index];
            }
            break;
        }
        if (err) break;
        val_j[r.slot] = v;
        valid_j[r.slot] = 1;
        ++c.route_writes;
      }
      if (err) break;

      // 2. Compute stage.
      std::fill(cur_valid.begin(), cur_valid.end(), 0);
      for (const ComputeWrite& cw : instr.computes) {
        const std::size_t slot_a = static_cast<std::size_t>(cw.lane) * 2;
        if (!cw.lut.ignores_a() && !valid_j[slot_a]) {
          fail("LPE computes over an invalid A operand");
          break;
        }
        if (!cw.lut.ignores_b() && !valid_j[slot_a + 1]) {
          fail("LPE computes over an invalid B operand");
          break;
        }
        cur_val[cw.lane] = gate(cw.lut, valid_j[slot_a] ? val_j[slot_a] : 0,
                                valid_j[slot_a + 1] ? val_j[slot_a + 1] : 0);
        cur_valid[cw.lane] = 1;
        ++c.lpe_computes;
      }
      if (err) break;

      // 3. Terminal LPV: feedback writes and output taps.
      if (j == n - 1) {
        for (const Lane lane : instr.feedback_writes) {
          if (!cur_valid[lane]) {
            fail("feedback write of an invalid lane");
            break;
          }
          const std::uint32_t addr = w * m + lane;
          fb_val[addr] = cur_val[lane];
          fb_time[addr] = static_cast<std::int64_t>(w) + n - 1;
          ++c.feedback_words;
        }
        if (err) break;
        for (const OutputTap* tap : taps_at[w]) {
          if (!cur_valid[tap->lane]) {
            fail("output tap of an invalid lane");
            break;
          }
          out_val[tap->po_index] = cur_val[tap->lane];
          out_set[tap->po_index] = 1;
        }
        if (err) break;
      }
      prev_val.swap(cur_val);
      prev_valid.swap(cur_valid);
    }
    sp.wave_op_end[w] = static_cast<std::uint32_t>(sp.ops.size());
    if (err) sp.compiled_waves = w + 1;
  }

  if (!err) {
    for (std::size_t po = 0; po < out_set.size(); ++po) {
      if (!out_set[po]) {
        fail("primary output " + std::to_string(po) + " never produced");
        break;
      }
    }
  }

  // Liveness: a run that throws returns no outputs, so only a completed run
  // has roots. Values are minted in op order, so one reverse pass closes the
  // live set.
  std::vector<char> live(num_values, 0);
  if (!sp.error) {
    for (const std::uint32_t v : out_val) live[v] = 1;
  }
  for (auto it = sp.ops.rbegin(); it != sp.ops.rend(); ++it) {
    if (it->kind == SlicedOp::kCompute && live[it->dst]) {
      live[it->a] = 1;
      live[it->b] = 1;
    }
  }
  std::size_t keep = 0;
  for (std::uint32_t w = 0, i = 0; w < sp.compiled_waves; ++w) {
    for (; i < sp.wave_op_end[w]; ++i) {
      if (sp.ops[i].kind == SlicedOp::kHook || live[sp.ops[i].dst]) {
        sp.ops[keep++] = sp.ops[i];
      }
    }
    sp.wave_op_end[w] = static_cast<std::uint32_t>(keep);
  }
  sp.ops.resize(keep);

  // Row assignment, a linear scan in op order: the zero and input rows are
  // fixed, a computed value takes a free row and frees it after its last
  // read. The operand rows free before the result row is taken, so a gate
  // may overwrite an operand it reads last (kernels read before they write).
  constexpr std::uint32_t kForever = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> last_read(num_values, 0);
  for (std::uint32_t i = 0; i < sp.ops.size(); ++i) {
    if (sp.ops[i].kind != SlicedOp::kCompute) continue;
    last_read[sp.ops[i].a] = i;
    last_read[sp.ops[i].b] = i;
  }
  for (const std::uint32_t v : out_val) last_read[v] = kForever;

  std::vector<std::uint32_t> row(num_values);
  for (std::uint32_t v = 0; v <= num_in; ++v) row[v] = v;
  std::vector<std::uint32_t> free_rows;
  sp.num_rows = 1 + num_in;
  for (std::uint32_t i = 0; i < sp.ops.size(); ++i) {
    SlicedOp& op = sp.ops[i];
    if (op.kind != SlicedOp::kCompute) continue;
    for (const std::uint32_t v : {op.a, op.b}) {
      if (v > num_in && last_read[v] == i) {
        free_rows.push_back(row[v]);
        last_read[v] = kForever;  // op.a == op.b frees once
      }
    }
    std::uint32_t dst = sp.num_rows;
    if (free_rows.empty()) {
      ++sp.num_rows;
    } else {
      dst = free_rows.back();
      free_rows.pop_back();
    }
    row[op.dst] = dst;
    op.a = row[op.a];
    op.b = row[op.b];
    op.dst = dst;
  }
  for (const std::uint32_t v : out_val) sp.out_rows.push_back(row[v]);
  return sp;
}

}  // namespace lbnn
