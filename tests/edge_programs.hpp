// Hand-built LPU programs at the corners of compile_sliced's value walk:
// shapes the compiler emits rarely or never, each small enough to check by
// hand. Shared by the interpreter differential suite (test_simd_diff) and
// the native leg (test_aot), together with the run-and-observe helpers both
// diff with.

#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/program.hpp"
#include "lpu/backend.hpp"

namespace lbnn::edge {

struct EdgeProgram {
  std::string name;
  Program prog;
  /// The outputs for a batch, written out by hand; empty for a program
  /// whose run throws.
  std::function<std::vector<BitVec>(const std::vector<BitVec>&)> expect;
};

// Truth tables (bit a | b << 1 is the value at inputs a, b).
constexpr std::uint8_t kZero = 0x0, kNor = 0x1, kNotA = 0x5, kXor = 0x6,
                       kNand = 0x7, kAnd = 0x8, kXnor = 0x9, kBufA = 0xA,
                       kBufB = 0xC, kOr = 0xE, kOne = 0xF, kNotAAndB = 0x4;

inline RouteWrite in(std::uint16_t slot, std::uint32_t addr) {
  return {slot, {SrcSel::Kind::kInput, addr}};
}
inline RouteWrite prev(std::uint16_t slot, std::uint32_t lane) {
  return {slot, {SrcSel::Kind::kPrevLane, lane}};
}
inline RouteWrite fb(std::uint16_t slot, std::uint32_t addr) {
  return {slot, {SrcSel::Kind::kFeedback, addr}};
}
inline ComputeWrite gate(Lane lane, std::uint8_t bits) {
  return {lane, TruthTable4(bits)};
}

/// An empty program: `layout[addr]` is the primary input at buffer address
/// addr, every instruction starts empty.
inline Program blank(std::uint32_t m, std::uint32_t n, std::uint32_t waves,
                     std::vector<std::uint32_t> layout, std::uint32_t pis,
                     std::uint32_t pos, std::uint32_t word_width) {
  Program p;
  p.cfg.m = m;
  p.cfg.n = n;
  p.cfg.word_width = word_width;
  p.num_wavefronts = waves;
  p.num_primary_inputs = pis;
  p.num_primary_outputs = pos;
  p.input_layout = std::move(layout);
  p.instr.assign(waves, std::vector<LpvInstr>(n));
  return p;
}

/// Every edge program, with `word_width` as the nominal batch width (which
/// only the native leg specializes to).
inline std::vector<EdgeProgram> edge_programs(std::uint32_t word_width) {
  using V = std::vector<BitVec>;
  std::vector<EdgeProgram> all;

  {  // One register slot written twice in one instruction, from the input
     // buffer and through the switch; and a gate whose operands are one
     // value, followed by two values live at once.
    Program p = blank(2, 3, 1, {0, 1, 2}, 3, 2, word_width);
    p.instr[0][0].routes = {in(0, 0), in(0, 1), in(1, 2), in(2, 0), in(3, 2)};
    p.instr[0][0].computes = {gate(0, kXor), gate(1, kAnd)};
    p.instr[0][1].routes = {prev(0, 0), prev(0, 1), prev(1, 0),
                            prev(2, 0), prev(3, 1), prev(2, 1)};
    p.instr[0][1].computes = {gate(0, kOr), gate(1, kXor)};  // lane 1 is 0
    p.instr[0][2].routes = {prev(0, 0), prev(1, 1), prev(2, 1), prev(3, 0)};
    p.instr[0][2].computes = {gate(0, kXnor), gate(1, kOr)};
    p.output_taps = {{0, 0, 0}, {0, 1, 1}};
    all.push_back({"slot_written_twice", p, [](const V& x) {
                     const BitVec v = (x[0] & x[2]) | (x[1] ^ x[2]);
                     return V{~v, v};
                   }});
  }
  {  // Two taps of one PO in one wavefront (the later tap wins), and a PO
     // re-tapped in a later wavefront; listed out of wavefront order.
    Program p = blank(2, 1, 2, {0, 1}, 2, 2, word_width);
    p.instr[0][0].routes = {in(0, 0), in(1, 1), in(2, 1), in(3, 0)};
    p.instr[0][0].computes = {gate(0, kAnd), gate(1, kNotAAndB)};
    p.instr[1][0].computes = {gate(0, kOr)};  // over the held registers
    p.output_taps = {{1, 0, 1}, {0, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    all.push_back({"po_tapped_twice", p, [](const V& x) {
                     return V{x[0] & ~x[1], x[0] | x[1]};
                   }});
  }
  {  // POs that are buf(a) / buf(b) chains over primary inputs: their rows
     // are input rows. The buffer stores the PIs in swapped order.
    Program p = blank(2, 3, 1, {1, 0}, 2, 2, word_width);
    p.instr[0][0].routes = {in(0, 0), in(3, 1)};
    p.instr[0][0].computes = {gate(0, kBufA), gate(1, kBufB)};
    p.instr[0][1].routes = {prev(1, 0), prev(2, 1)};
    p.instr[0][1].computes = {gate(0, kBufB), gate(1, kBufA)};
    p.instr[0][2].routes = {prev(0, 0), prev(3, 1)};
    p.instr[0][2].computes = {gate(0, kBufA), gate(1, kBufB)};
    p.output_taps = {{0, 0, 0}, {0, 1, 1}};
    all.push_back({"po_is_input_row", p,
                   [](const V& x) { return V{x[1], x[0]}; }});
  }
  {  // Three POs carrying one value: two taps of one lane, and a buf of it
     // on another lane.
    Program p = blank(2, 2, 1, {0, 1}, 2, 3, word_width);
    p.instr[0][0].routes = {in(0, 0), in(1, 1)};
    p.instr[0][0].computes = {gate(0, kAnd)};
    p.instr[0][1].routes = {prev(0, 0), prev(3, 0)};
    p.instr[0][1].computes = {gate(0, kBufA), gate(1, kBufB)};
    p.output_taps = {{0, 0, 0}, {0, 0, 1}, {0, 1, 2}};
    all.push_back({"shared_output_value", p, [](const V& x) {
                     return V{x[0] & x[1], x[0] & x[1], x[0] & x[1]};
                   }});
  }
  {  // A snapshot register of LPV 1 holds its wavefront-0 value across two
     // wavefronts while LPV 0 recomputes the lane it came from.
    Program p = blank(2, 2, 3, {0, 1}, 2, 3, word_width);
    p.instr[0][0].routes = {in(0, 0), in(1, 1)};
    p.instr[0][0].computes = {gate(0, kAnd)};
    p.instr[0][1].routes = {prev(0, 0)};
    p.instr[1][0].computes = {gate(0, kOr)};
    p.instr[1][1].routes = {prev(1, 0)};
    p.instr[1][1].computes = {gate(0, kXor)};
    p.instr[2][0].routes = {in(0, 1), in(1, 0)};
    p.instr[2][0].computes = {gate(0, kNotAAndB)};
    p.instr[2][1].routes = {prev(2, 0)};
    p.instr[2][1].computes = {gate(0, kAnd), gate(1, kNotA)};
    p.output_taps = {{1, 0, 0}, {2, 0, 1}, {2, 1, 2}};
    all.push_back({"held_register", p, [](const V& x) {
                     return V{x[0] ^ x[1], x[0] & x[1], ~(x[0] & ~x[1])};
                   }});
  }
  {  // Constant tables: 0x0 passes the zero row through (a PO whose row is
     // row 0), 0xF is a kernel call whose ones reach past the batch width.
     // The one primary input is never read.
    Program p = blank(4, 2, 1, {0}, 1, 4, word_width);
    p.instr[0][0].computes = {gate(0, kZero), gate(1, kOne)};
    p.instr[0][1].routes = {prev(0, 0), prev(1, 1), prev(2, 1), prev(4, 0)};
    p.instr[0][1].computes = {gate(0, kXor), gate(1, kBufA), gate(2, kBufA),
                              gate(3, kOne)};
    p.output_taps = {{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 3}};
    all.push_back({"constant_luts", p, [](const V& x) {
                     const BitVec ones(x[0].width(), true);
                     return V{ones, ones, BitVec(x[0].width()), ones};
                   }});
  }
  {  // Computes nothing reads: a terminal gate only written to a feedback
     // word nobody reads, and a gate never routed on. A feedback word that
     // is read feeds a later wavefront.
    Program p = blank(2, 2, 3, {0, 1}, 2, 2, word_width);
    p.instr[0][0].routes = {in(0, 0), in(1, 1), in(2, 0), in(3, 1)};
    p.instr[0][0].computes = {gate(0, kAnd), gate(1, kXor)};
    p.instr[0][1].routes = {prev(0, 0), prev(2, 1), prev(3, 0)};
    p.instr[0][1].computes = {gate(0, kBufA), gate(1, kXnor)};
    p.instr[0][1].feedback_writes = {0, 1};
    p.instr[1][0].computes = {gate(0, kNand)};
    p.instr[2][0].routes = {fb(0, 0), in(1, 0)};
    p.instr[2][0].computes = {gate(0, kXor)};
    p.instr[2][1].routes = {prev(0, 0)};
    p.instr[2][1].computes = {gate(0, kBufA), gate(1, kNor)};
    p.output_taps = {{0, 0, 0}, {2, 0, 1}};
    all.push_back({"dead_computes", p, [](const V& x) {
                     return V{x[0] & x[1], x[0] & ~x[1]};
                   }});
  }
  {  // A run that throws in wavefront 2 (LPV 1 routes from a lane LPV 0
     // never computed): its stream keeps the hooks and cancel polls of the
     // wavefronts before the throw, though no output survives to need a gate.
    Program p = blank(2, 2, 4, {0, 1}, 2, 1, word_width);
    p.instr[0][0].routes = {in(0, 0), in(1, 1)};
    p.instr[0][0].computes = {gate(0, kAnd)};
    p.instr[0][1].routes = {prev(0, 0)};
    p.instr[0][1].computes = {gate(0, kBufA)};
    p.instr[1][0].computes = {gate(0, kOr)};
    p.instr[1][1].routes = {prev(0, 0)};
    p.instr[1][1].computes = {gate(0, kNotA)};
    p.instr[2][0].computes = {gate(0, kXor)};
    p.instr[2][1].routes = {prev(1, 1)};
    p.instr[3][0].computes = {gate(0, kAnd)};
    p.output_taps = {{0, 0, 0}};
    all.push_back({"error_after_hooks", p, nullptr});
  }
  return all;
}

inline std::vector<BitVec> random_batch(const Program& p, std::size_t width,
                                        Rng& rng) {
  std::vector<BitVec> in;
  for (std::uint32_t i = 0; i < p.num_primary_inputs; ++i) {
    in.push_back(BitVec::random(width, rng));
  }
  return in;
}

/// Everything one run makes observable, besides hook calls.
struct Outcome {
  std::vector<BitVec> outputs;
  std::string thrown;  ///< "" when the run completed
  SimCounters counters;
};

inline Outcome run_observed(ExecutorBackend& exec, const std::vector<BitVec>& in,
                            const std::atomic<bool>* cancel = nullptr) {
  Outcome o;
  try {
    o.outputs = exec.run(in, cancel);
  } catch (const SimCancelled& e) {
    o.thrown = std::string("SimCancelled: ") + e.what();
  } catch (const SimError& e) {
    o.thrown = std::string("SimError: ") + e.what();
  }
  o.counters = exec.counters();
  return o;
}

inline void expect_same(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(want.outputs, got.outputs);
  EXPECT_EQ(want.thrown, got.thrown);
  EXPECT_EQ(want.counters.wavefronts, got.counters.wavefronts);
  EXPECT_EQ(want.counters.macro_cycles, got.counters.macro_cycles);
  EXPECT_EQ(want.counters.input_reads, got.counters.input_reads);
  EXPECT_EQ(want.counters.route_writes, got.counters.route_writes);
  EXPECT_EQ(want.counters.lpe_computes, got.counters.lpe_computes);
  EXPECT_EQ(want.counters.feedback_words, got.counters.feedback_words);
}

}  // namespace lbnn::edge
