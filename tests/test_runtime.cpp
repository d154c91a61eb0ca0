#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/compiler.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "runtime/batcher.hpp"
#include "runtime/clock.hpp"
#include "runtime/engine.hpp"
#include "runtime/program_cache.hpp"
#include "runtime/serve_stats.hpp"

namespace lbnn::runtime {
namespace {

CompileOptions small_lpu() {
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  return opt;  // word width 2m = 16 lanes
}

std::vector<bool> sample_of(const std::vector<BitVec>& packed, std::size_t lane) {
  std::vector<bool> bits(packed.size());
  for (std::size_t pi = 0; pi < packed.size(); ++pi) bits[pi] = packed[pi].get(lane);
  return bits;
}

TEST(Engine, BitExactVsDirectSimulator) {
  Rng gen(11);
  const Netlist nl = reconvergent_grid(12, 6, gen);
  const CompileOptions opt = small_lpu();

  const CompileResult direct = compile(nl, opt);
  LpuSimulator sim(direct.program);
  Rng rng(12);
  const std::size_t lanes = direct.program.cfg.effective_word_width();
  const auto inputs = random_inputs(nl, lanes, rng);
  const auto expect = sim.run(inputs);

  EngineOptions eopt;
  eopt.num_workers = 2;
  eopt.compile = opt;
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);
  EXPECT_TRUE(grid.loaded());
  EXPECT_EQ(grid.name(), "grid");
  EXPECT_EQ(grid.num_inputs(), nl.num_inputs());
  EXPECT_EQ(grid.num_outputs(), nl.num_outputs());

  std::vector<std::future<std::vector<bool>>> futs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    futs.push_back(engine.submit(grid, sample_of(inputs, lane)));
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const auto out = futs[lane].get();
    ASSERT_EQ(out.size(), nl.num_outputs());
    for (std::size_t po = 0; po < out.size(); ++po) {
      EXPECT_EQ(out[po], expect[po].get(lane)) << "lane " << lane << " po " << po;
    }
  }
}

TEST(Engine, ParallelAssemblyBitExact) {
  Rng gen(21);
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = 80;
  spec.num_outputs = 6;
  const Netlist nl = random_dag(spec, gen);

  EngineOptions eopt;
  eopt.num_workers = 3;
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle dag = engine.load_parallel("dag", nl, 3);

  Rng rng(22);
  for (int round = 0; round < 4; ++round) {
    const auto inputs = random_inputs(nl, 16, rng);
    std::vector<std::future<std::vector<bool>>> futs;
    for (std::size_t lane = 0; lane < 16; ++lane) {
      futs.push_back(engine.submit(dag, sample_of(inputs, lane)));
    }
    const auto expect = simulate(nl, inputs);
    for (std::size_t lane = 0; lane < 16; ++lane) {
      const auto out = futs[lane].get();
      for (std::size_t po = 0; po < out.size(); ++po) {
        EXPECT_EQ(out[po], expect[po].get(lane));
      }
    }
  }
}

TEST(Engine, ConcurrentSubmitStress) {
  Rng gen(31);
  const Netlist nl = reconvergent_grid(10, 5, gen);
  EngineOptions eopt;
  eopt.num_workers = 4;
  eopt.batch_timeout = std::chrono::microseconds(100);
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        std::vector<bool> bits(nl.num_inputs());
        for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
        const auto expect = simulate_scalar(nl, bits);
        const auto got = engine.submit(grid, bits).get();
        if (got != expect) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GE(rep.batches, 1u);
  EXPECT_LE(rep.p50_latency_us, rep.p99_latency_us);
  // The per-model breakdown carries the whole load (only one model).
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].name, "grid");
  EXPECT_EQ(rep.per_model[0].requests, rep.requests);
  EXPECT_GE(rep.per_model[0].queue_depth_hwm, 1u);
}

TEST(Engine, DrainAnswersEverything) {
  Rng gen(41);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 2;
  // Long timeout: without drain() the last partial batch would sit for 50 ms.
  eopt.batch_timeout = std::chrono::milliseconds(50);
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(engine.submit(grid, std::vector<bool>(nl.num_inputs(), i % 2 != 0)));
  }
  engine.drain();
  for (auto& f : futs) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

TEST(Engine, SubmitErrors) {
  Rng gen(51);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  EXPECT_THROW(engine.submit(ModelHandle(), std::vector<bool>(nl.num_inputs())),
               Error);
  EXPECT_THROW(ModelHandle().name(), Error);  // empty-handle accessors throw
  EXPECT_FALSE(ModelHandle().loaded());
  EXPECT_THROW(engine.submit(grid, std::vector<bool>(nl.num_inputs() + 3)), Error);
  engine.shutdown();
  EXPECT_THROW(engine.submit(grid, std::vector<bool>(nl.num_inputs())), Error);
}

TEST(Engine, HandlesAreEngineSpecific) {
  Rng gen(52);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  Engine a(eopt);
  Engine b(eopt);
  const ModelHandle on_a = a.load("grid", nl);
  EXPECT_THROW(b.submit(on_a, std::vector<bool>(nl.num_inputs())), Error);
  std::future<std::vector<bool>> fut;
  EXPECT_THROW(b.try_submit(on_a, std::vector<bool>(nl.num_inputs()), &fut), Error);
}

TEST(Batcher, SealsWhenLanesFill) {
  ManualClock clock;
  std::vector<std::size_t> batch_sizes;
  Batcher batcher(clock, 2, 4, 1, std::chrono::hours(1),
                  [&](Batch&& b) { batch_sizes.push_back(b.requests.size()); });
  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 9; ++i) futs.push_back(batcher.submit({true, false}));
  // 9 submits at capacity 4: two full batches sealed inline, one open.
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4}));
  EXPECT_EQ(batcher.open_count(), 1u);
  EXPECT_TRUE(batcher.deadline().has_value());
  batcher.flush();
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4, 1}));
  EXPECT_EQ(batcher.open_count(), 0u);
  EXPECT_FALSE(batcher.deadline().has_value());
}

// The seal deadline comes from the injected clock, not the wall clock: a
// partial batch seals exactly max_wait after its first request, driven purely
// by ManualClock::advance — no real sleeping anywhere.
TEST(Batcher, SealsOnTimeoutManualClock) {
  ManualClock clock;
  std::vector<std::size_t> batch_sizes;
  Batcher batcher(clock, 1, 8, 1, std::chrono::microseconds(500),
                  [&](Batch&& b) { batch_sizes.push_back(b.requests.size()); });
  auto fut = batcher.submit({true});
  const auto deadline = batcher.deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, clock.now() + std::chrono::microseconds(500));

  // One tick short of the timeout: nothing seals.
  clock.advance(std::chrono::microseconds(499));
  batcher.seal_if_expired(clock.now());
  EXPECT_TRUE(batch_sizes.empty());
  // A second request joins the SAME batch and must not push the deadline out:
  // the seal timer runs from the OLDEST request.
  auto fut2 = batcher.submit({false});
  EXPECT_EQ(batcher.deadline(), deadline);
  // The final tick: the partial batch (both requests) seals.
  clock.advance(std::chrono::microseconds(1));
  batcher.seal_if_expired(clock.now());
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{2}));
  EXPECT_FALSE(batcher.deadline().has_value());
}

// Lane-full sealing racing the timeout: when the batch fills at the very
// moment its deadline expires, the inline lane-full seal wins and the
// (logically concurrent) timer call finds nothing left to seal — the batch is
// delivered exactly once.
TEST(Batcher, SealOnLaneFullRacesTimeout) {
  ManualClock clock;
  std::vector<std::size_t> batch_sizes;
  Batcher batcher(clock, 1, 2, 1, std::chrono::microseconds(100),
                  [&](Batch&& b) { batch_sizes.push_back(b.requests.size()); });
  auto f1 = batcher.submit({true});
  // Time reaches the deadline exactly as the filling request arrives...
  clock.advance(std::chrono::microseconds(100));
  auto f2 = batcher.submit({false});  // lane-full: seals inline
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{2}));
  // ...so the timer's expiry sweep must be a no-op, not a double seal.
  batcher.seal_if_expired(clock.now());
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{2}));
  EXPECT_EQ(batcher.open_count(), 0u);
}

// Zero max_wait: every open batch is born expired — the first expiry sweep
// after a submit seals it, even with no time passing at all.
TEST(Batcher, ZeroTimeoutSealsImmediately) {
  ManualClock clock;
  std::vector<std::size_t> batch_sizes;
  Batcher batcher(clock, 1, 8, 1, std::chrono::microseconds(0),
                  [&](Batch&& b) { batch_sizes.push_back(b.requests.size()); });
  bool opened = false;
  auto f1 = batcher.submit({true}, kNoDeadline, &opened);
  EXPECT_TRUE(opened);  // a deadline (now + 0) exists and is already due
  ASSERT_TRUE(batcher.deadline().has_value());
  batcher.seal_if_expired(clock.now());  // no advance needed
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{1}));
  // Each subsequent request opens (and immediately expires) its own batch.
  auto f2 = batcher.submit({false});
  batcher.seal_if_expired(clock.now());
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{1, 1}));
}

// Request deadlines ride through the batcher untouched: stamped on the
// Request for the engine's dequeue-time expiry handling.
TEST(Batcher, StampsRequestDeadlines) {
  ManualClock clock;
  std::vector<Request> sealed;
  Batcher batcher(clock, 1, 2, 1, std::chrono::hours(1), [&](Batch&& b) {
    for (auto& r : b.requests) sealed.push_back(std::move(r));
  });
  const TimePoint slo = clock.now() + std::chrono::milliseconds(5);
  auto f1 = batcher.submit({true}, slo);
  auto f2 = batcher.submit({false});  // no deadline
  ASSERT_EQ(sealed.size(), 2u);
  EXPECT_EQ(sealed[0].deadline, slo);
  EXPECT_EQ(sealed[1].deadline, kNoDeadline);
  EXPECT_EQ(sealed[0].enqueued, clock.now());
}

TEST(Batcher, RejectsWrongArity) {
  ManualClock clock;
  Batcher batcher(clock, 3, 4, 1, std::chrono::hours(1), [](Batch&&) {});
  EXPECT_THROW(batcher.submit({true, false}), Error);
}

// Per-bit references for the word-parallel pack_requests / unpack_outputs.
std::vector<BitVec> pack_per_bit(const std::vector<Request>& requests,
                                 std::size_t num_inputs) {
  std::vector<BitVec> packed(num_inputs, BitVec(requests.size()));
  for (std::size_t lane = 0; lane < requests.size(); ++lane) {
    for (std::size_t pi = 0; pi < num_inputs; ++pi) {
      packed[pi].set(lane, requests[lane].inputs[pi]);
    }
  }
  return packed;
}

std::vector<std::vector<bool>> unpack_per_bit(const std::vector<BitVec>& outputs,
                                              std::size_t num_requests) {
  std::vector<std::vector<bool>> per_request(num_requests,
                                             std::vector<bool>(outputs.size()));
  for (std::size_t lane = 0; lane < num_requests; ++lane) {
    for (std::size_t po = 0; po < outputs.size(); ++po) {
      per_request[lane][po] = outputs[po].get(lane);
    }
  }
  return per_request;
}

TEST(Batcher, PackUnpackRoundTrip) {
  Rng rng(61);
  // Lane counts and arities on both sides of every 64-bit tile boundary.
  for (const std::size_t lanes : {1, 2, 63, 64, 65, 127, 128, 129, 2048}) {
    for (const std::size_t arity : {1, 7, 63, 64, 65, 96, 192}) {
      SCOPED_TRACE(std::to_string(lanes) + " lanes x " + std::to_string(arity) +
                   " bits");
      std::vector<Request> requests(lanes);
      for (auto& req : requests) {
        req.inputs.resize(arity);
        for (std::size_t pi = 0; pi < arity; ++pi) req.inputs[pi] = rng.next_bool();
      }
      const auto packed = pack_requests(requests, arity);
      ASSERT_EQ(packed, pack_per_bit(requests, arity));
      // Treat the packed words as outputs: unpack must invert pack.
      const auto unpacked = unpack_outputs(packed, lanes);
      ASSERT_EQ(unpacked.size(), lanes);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        ASSERT_EQ(unpacked[lane], requests[lane].inputs);
      }
      // Output words up to 130 bits wider than the batch: the lanes past the
      // request count are ignored.
      std::vector<BitVec> outputs;
      for (std::size_t po = 0; po < arity; ++po) {
        outputs.push_back(BitVec::random(lanes + rng.next_below(131), rng));
      }
      ASSERT_EQ(unpack_outputs(outputs, lanes), unpack_per_bit(outputs, lanes));
    }
  }
  // A request of the wrong arity, and an output narrower than the batch.
  std::vector<Request> ragged(2);
  ragged[0].inputs.assign(3, true);
  ragged[1].inputs.assign(2, true);
  EXPECT_THROW(pack_requests(ragged, 3), std::logic_error);
  EXPECT_THROW(unpack_outputs({BitVec(65), BitVec(64)}, 65), std::logic_error);
}

TEST(ProgramCache, HitsMissesEvictions) {
  Rng gen(71);
  const Netlist a = reconvergent_grid(8, 4, gen);
  const Netlist b = reconvergent_grid(8, 5, gen);
  const Netlist c = reconvergent_grid(8, 6, gen);
  const CompileOptions opt = small_lpu();

  ProgramCache cache(2);
  const auto a1 = cache.get_or_compile(a, opt);
  const auto a2 = cache.get_or_compile(a, opt);
  EXPECT_EQ(a1.get(), a2.get());  // hit returns the same artifact
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);

  cache.get_or_compile(b, opt);
  cache.get_or_compile(c, opt);  // evicts a (LRU)
  s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);

  // `a` was evicted but a1 stays valid (shared ownership); re-get recompiles.
  const auto a3 = cache.get_or_compile(a, opt);
  EXPECT_NE(a1.get(), a3.get());
  EXPECT_EQ(a1->program.num_wavefronts, a3->program.num_wavefronts);
  LpuSimulator sanity(a1->program);  // evicted artifact still runs
  sanity.run(random_inputs(a, 8, gen));
}

TEST(ProgramCache, CapacityZeroIsPassThrough) {
  Rng gen(72);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  const CompileOptions opt = small_lpu();

  ProgramCache cache(0);
  const auto first = cache.get_or_compile(nl, opt);
  const auto second = cache.get_or_compile(nl, opt);
  // Nothing is retained: both loads compile, neither evicts.
  EXPECT_NE(first.get(), second.get());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 0u);
  // Both artifacts are fully usable (the caller owns them).
  LpuSimulator sim(first->program);
  sim.run(random_inputs(nl, 4, gen));
  EXPECT_EQ(first->program.num_wavefronts, second->program.num_wavefronts);
}

TEST(ProgramCache, ExplicitEraseCountsAsEviction) {
  Rng gen(73);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  const CompileOptions opt = small_lpu();
  ProgramCache cache(4);
  const auto kept = cache.get_or_compile(nl, opt);
  const std::uint64_t key = fingerprint(nl, opt);
  EXPECT_TRUE(cache.erase(key));
  EXPECT_FALSE(cache.erase(key));  // already gone
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 0u);
  // The erased artifact stays valid for holders.
  LpuSimulator sim(kept->program);
  sim.run(random_inputs(nl, 4, gen));
}

TEST(ProgramCache, DistinguishesOptionsAndParallelK) {
  Rng gen(81);
  RandomCircuitSpec spec;
  spec.num_inputs = 8;
  spec.num_gates = 40;
  spec.num_outputs = 4;
  const Netlist nl = random_dag(spec, gen);
  ProgramCache cache(8);

  CompileOptions opt = small_lpu();
  const auto merged = cache.get_or_compile(nl, opt);
  opt.merge = false;
  const auto unmerged = cache.get_or_compile(nl, opt);
  EXPECT_NE(merged.get(), unmerged.get());

  const auto par2 = cache.get_or_compile_parallel(nl, opt, 2);
  const auto par3 = cache.get_or_compile_parallel(nl, opt, 3);
  const auto par2again = cache.get_or_compile_parallel(nl, opt, 2);
  EXPECT_EQ(par2.get(), par2again.get());
  EXPECT_NE(par2.get(), par3.get());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(ProgramCache, FingerprintSensitivity) {
  Rng gen(91);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  const CompileOptions opt = small_lpu();
  CompileOptions opt2 = opt;
  opt2.lpu.n = 16;
  EXPECT_NE(fingerprint(nl, opt), fingerprint(nl, opt2));
  EXPECT_EQ(fingerprint(nl, opt), fingerprint(nl, opt));
}

// The log-linear buckets over a table of values from 0 to 2^40: a percentile
// never understates the sample it stands for and overstates it by at most
// 1/16 (6.25%); merging two histograms equals recording their union; an
// empty histogram reads 0.
TEST(LatencyHistogram, LogLinearBoundsAndExactMerge) {
  const LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile_us(50.0), 0u);
  EXPECT_EQ(empty.percentile_us(99.0), 0u);

  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 64; ++v) values.push_back(v);
  for (int k = 6; k <= 40; ++k) {
    const std::uint64_t base = 1ull << k;
    for (const std::uint64_t v : {base - 1, base, base + 1, base + base / 3,
                                  base + base / 16, 2 * base - 1}) {
      values.push_back(v);
    }
  }
  const auto within_bound = [](std::uint64_t got, std::uint64_t want) {
    return got >= want && got - want <= want / 16;
  };
  for (const std::uint64_t v : values) {
    LatencyHistogram h;
    h.record(v);
    EXPECT_TRUE(within_bound(h.percentile_us(50.0), v))
        << v << " read " << h.percentile_us(50.0);
  }

  // Over the whole table at once, against the nearest-rank sample the
  // percentile stands for.
  LatencyHistogram all, even, odd;
  for (std::size_t i = 0; i < values.size(); ++i) {
    all.record(values[i]);
    (i % 2 == 0 ? even : odd).record(values[i]);
  }
  std::vector<std::uint64_t> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    auto rank = static_cast<std::size_t>(p / 100.0 * sorted.size() + 0.5);
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    EXPECT_TRUE(within_bound(all.percentile_us(p), sorted[rank - 1])) << "p" << p;
  }

  even.merge(odd);
  EXPECT_EQ(even.count(), all.count());
  for (int p = 1; p <= 100; ++p) {
    EXPECT_EQ(even.percentile_us(p), all.percentile_us(p)) << "p" << p;
  }
}

ServeReport report_of(const ModelStats& stats, double wall_seconds = 0.0) {
  StatsSnapshot snap;
  snap.wall_seconds = wall_seconds;
  snap.rows.push_back(ModelRecord{"m", 1, 0, stats.snapshot()});
  return make_report(snap);
}

/// One request per entry, submitted `ago_us` before `now`, with `deadline`.
std::vector<Request> requests_ago(TimePoint now,
                                  const std::vector<std::int64_t>& ago_us,
                                  TimePoint deadline = kNoDeadline) {
  std::vector<Request> reqs(ago_us.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].enqueued = now - std::chrono::microseconds(ago_us[i]);
    reqs[i].deadline = deadline;
  }
  return reqs;
}

/// `n` ran member slots with the given simulator counters.
std::vector<MemberSlot> ran_slots(std::size_t n, const SimCounters& sim) {
  std::vector<MemberSlot> slots(n);
  for (MemberSlot& slot : slots) {
    slot.ran = true;
    slot.sim = sim;
  }
  return slots;
}

// A member run's simulator counters travel in its slot and land in its
// model's record; the report sums them and weights utilization by
// wavefronts, in the row and in the total alike.
TEST(ModelStats, AggregatesBatchesAndSims) {
  const TimePoint now = ManualClock().now();
  SimCounters light, heavy;
  light.wavefronts = 10;
  light.lpe_computes = 40;
  light.lpe_utilization = 0.5;
  heavy.wavefronts = 30;
  heavy.lpe_computes = 40;
  heavy.lpe_utilization = 0.9;
  ModelStats stats;
  stats.record([&](StatsRecord& s) {
    s.add_batch(requests_ago(now, std::vector<std::int64_t>(12, 100)),
                ran_slots(1, light), 16, false, 0, 0, now);
    s.add_batch(requests_ago(now, std::vector<std::int64_t>(4, 100)),
                ran_slots(1, heavy), 16, false, 0, 0, now);
  });
  const ServeReport rep = report_of(stats);
  EXPECT_EQ(rep.requests, 16u);
  EXPECT_EQ(rep.batches, 2u);
  EXPECT_EQ(rep.samples, 16u);
  EXPECT_EQ(rep.lanes_offered, 32u);
  EXPECT_DOUBLE_EQ(rep.lane_occupancy, 0.5);
  EXPECT_EQ(rep.member_runs, 2u);
  EXPECT_EQ(rep.sim.wavefronts, 40u);
  EXPECT_EQ(rep.sim.lpe_computes, 80u);
  EXPECT_DOUBLE_EQ(rep.sim.lpe_utilization, (10 * 0.5 + 30 * 0.9) / 40);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].sim.wavefronts, 40u);
  EXPECT_DOUBLE_EQ(rep.per_model[0].sim.lpe_utilization, rep.sim.lpe_utilization);
}

// The record's own update rules: latencies and deadline outcomes of the live
// requests only (expired ones were settled at dequeue), the queue-depth
// peak rather than the last reading, lanes offered per batch.
TEST(ModelStats, PerModelBreakdown) {
  const TimePoint now = ManualClock().now();
  std::vector<Request> batch = requests_ago(now, {100, 200});
  std::vector<Request> late =
      requests_ago(now, {400}, now - std::chrono::microseconds(1));
  std::vector<Request> gone = requests_ago(now, {900, 900});
  for (Request& r : gone) r.expired = true;
  for (auto* more : {&late, &gone}) {
    for (Request& r : *more) batch.push_back(std::move(r));
  }
  ModelStats stats;
  stats.record([&](StatsRecord& s) {
    s.add_batch(batch, ran_slots(1, SimCounters{}), 16, false, 0, 0, now);
    for (const std::size_t depth : {2, 7, 4}) s.note_queue_depth(depth);
    ++s.shed;
    s.expired += 2;
  });
  const ModelReport rep = report_of(stats).per_model.at(0);
  EXPECT_EQ(rep.name, "m");
  EXPECT_EQ(rep.requests, 3u);
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.samples, 3u);
  EXPECT_EQ(rep.lanes_offered, 16u);
  EXPECT_DOUBLE_EQ(rep.lane_occupancy, 3.0 / 16.0);
  EXPECT_EQ(rep.p50_latency_us, 207u);  // 200 us -> [200, 208)
  EXPECT_EQ(rep.p99_latency_us, 415u);  // 400 us -> [400, 416)
  EXPECT_EQ(rep.queue_depth_hwm, 7u);
  EXPECT_EQ(rep.shed, 1u);
  EXPECT_EQ(rep.expired, 2u);
  EXPECT_EQ(rep.deadline_met, 2u);
}

// Rates are counts over the snapshot's window: goodput counts only the
// on-deadline completions, in the row and in the total alike.
TEST(ModelStats, RatesComeFromTheSnapshotWindow) {
  const TimePoint now = ManualClock().now();
  std::vector<Request> batch = requests_ago(now, {100, 200, 300});
  batch.push_back(std::move(
      requests_ago(now, {400}, now - std::chrono::microseconds(1)).front()));
  ModelStats stats;
  stats.record([&](StatsRecord& s) {
    s.add_batch(batch, ran_slots(1, SimCounters{}), 16, false, 0, 0, now);
    s.shed += 2;
    s.expired += 5;
  });
  const ServeReport rep = report_of(stats, 2.0);
  EXPECT_EQ(rep.requests, 4u);
  EXPECT_EQ(rep.shed, 2u);
  EXPECT_EQ(rep.expired, 5u);
  EXPECT_EQ(rep.deadline_met, 3u);
  EXPECT_DOUBLE_EQ(rep.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rep.requests_per_sec, 2.0);
  EXPECT_DOUBLE_EQ(rep.goodput_per_sec, 1.5);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].deadline_met, 3u);
  EXPECT_DOUBLE_EQ(rep.per_model[0].goodput_per_sec, 1.5);
}

// Unload folds a model's record into the retired row and forwards every
// later event there: a shed counted after the fold lands once, in the
// retired record, and the folded record stays as it was.
TEST(ModelStats, EventsAfterRetireLandInRetiredRow) {
  ModelStats model, retired;
  model.record([](StatsRecord& s) { ++s.shed; });
  model.retire_into(retired);
  model.record([](StatsRecord& s) { ++s.shed; });
  EXPECT_EQ(retired.snapshot().shed, 2u);
  EXPECT_EQ(model.snapshot().shed, 1u);
}

// Wall-clock-derived figures (rates, goodput) are stamped off the injected
// clock: a ManualClock makes them exact instead of host-speed-dependent, and
// reset_stats() re-anchors the window on the same clock. The member hook
// runs 10 ms of manual time, so the deadlined batch completes late: it
// counts in requests but not in goodput.
TEST(Engine, StatsRatesAreDeterministicOnManualClock) {
  ManualClock clock;
  Rng gen(57);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);
  engine.set_member_hook([&](const std::string&, std::size_t) {
    clock.advance(std::chrono::milliseconds(10));
  });
  const auto serve_batch = [&](TimePoint deadline) {
    std::vector<std::future<std::vector<bool>>> futs;
    for (int i = 0; i < 16; ++i) {  // one lane-full batch
      futs.push_back(
          engine.submit(grid, std::vector<bool>(nl.num_inputs(), true), deadline));
    }
    for (auto& f : futs) (void)f.get();
  };

  // First, while the service EWMA is cold and admission cannot shed: a
  // 5 ms deadline the 10 ms run overshoots.
  serve_batch(clock.now() + std::chrono::milliseconds(5));
  serve_batch(kNoDeadline);
  clock.advance(std::chrono::milliseconds(1980));  // 2 s since construction
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, 32u);
  EXPECT_EQ(rep.expired, 0u);
  EXPECT_EQ(rep.deadline_met, 16u);
  EXPECT_DOUBLE_EQ(rep.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rep.requests_per_sec, 16.0);
  EXPECT_DOUBLE_EQ(rep.goodput_per_sec, 8.0);
  EXPECT_DOUBLE_EQ(rep.per_model.at(0).goodput_per_sec, 8.0);

  engine.reset_stats();
  clock.advance(std::chrono::seconds(1));
  const ServeReport fresh = engine.report();
  EXPECT_EQ(fresh.requests, 0u);
  EXPECT_EQ(fresh.per_model.at(0).requests, 0u);
  EXPECT_DOUBLE_EQ(fresh.wall_seconds, 1.0);
}

// The queue-depth high-water mark is the engine's peak, not its last
// reading: three batches queue up behind one parked in the member hook,
// then a lone batch finds the queue empty again.
TEST(Engine, QueueDepthHwmKeepsThePeak) {
  ManualClock clock;
  Rng gen(60);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 128;
  const ModelHandle grid = engine.load("grid", nl, mopt);
  std::promise<void> parked, release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> runs{0};
  engine.set_member_hook([&](const std::string&, std::size_t) {
    if (runs.fetch_add(1) != 0) return;
    parked.set_value();
    released.wait();
  });
  std::vector<std::future<std::vector<bool>>> futs;
  const auto submit_batch = [&] {
    for (int i = 0; i < 16; ++i) {
      futs.push_back(engine.submit(grid, std::vector<bool>(nl.num_inputs(), true)));
    }
  };

  submit_batch();  // the worker takes it and parks
  parked.get_future().wait();
  for (int b = 0; b < 3; ++b) submit_batch();  // queue depth 1, 2, 3
  release.set_value();
  for (auto& f : futs) (void)f.get();
  futs.clear();
  submit_batch();  // depth 1 again
  for (auto& f : futs) (void)f.get();
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, 80u);
  EXPECT_EQ(rep.per_model.at(0).queue_depth_hwm, 3u);
  EXPECT_EQ(rep.queue_depth_hwm, 3u);
}

// reset_stats() clears every row, the retired aggregate included, so the
// per-model rows keep summing to the totals across a reset.
TEST(Engine, ResetStatsCoversPerModelAndRetiredRows) {
  ManualClock clock;
  Rng gen(58);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle a = engine.load("a", nl);
  const ModelHandle b = engine.load("b", nl);
  const auto serve = [&](const ModelHandle& h, int batches) {
    std::vector<std::future<std::vector<bool>>> futs;
    for (int i = 0; i < 16 * batches; ++i) {
      futs.push_back(engine.submit(h, std::vector<bool>(nl.num_inputs(), true)));
    }
    for (auto& f : futs) (void)f.get();
  };
  const auto expect_rows_sum_to_total = [](const ServeReport& rep) {
    std::uint64_t requests = 0, batches = 0, member_runs = 0;
    for (const ModelReport& m : rep.per_model) {
      requests += m.requests;
      batches += m.batches;
      member_runs += m.member_runs;
    }
    EXPECT_EQ(requests, rep.requests);
    EXPECT_EQ(batches, rep.batches);
    EXPECT_EQ(member_runs, rep.member_runs);
  };

  serve(a, 2);  // warm-up on both models, then a leaves for the retired row
  serve(b, 3);
  ASSERT_TRUE(engine.unload(a));
  ServeReport rep = engine.report();
  ASSERT_EQ(rep.per_model.size(), 2u);
  EXPECT_EQ(rep.requests, 80u);
  expect_rows_sum_to_total(rep);

  engine.reset_stats();
  serve(b, 1);
  rep = engine.report();
  ASSERT_EQ(rep.per_model.size(), 2u);
  EXPECT_EQ(rep.requests, 16u);
  EXPECT_EQ(rep.per_model[0].name, "b");
  EXPECT_EQ(rep.per_model[0].requests, 16u);
  EXPECT_EQ(rep.per_model[1].name, "(retired)");
  EXPECT_EQ(rep.per_model[1].requests, 0u);
  expect_rows_sum_to_total(rep);
}

// The books close under executor failure: a member hook that throws on the
// second run fails that batch's futures, and the report counts them as
// failed, so every accepted request is in exactly one of requests, expired
// or failed (none is shed here). ManualClock: no sleep anywhere.
TEST(Engine, FailedBatchesCloseTheBooks) {
  ManualClock clock;
  Rng gen(59);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);
  std::atomic<int> runs{0};
  engine.set_member_hook([&](const std::string&, std::size_t) {
    if (runs.fetch_add(1) + 1 == 2) throw std::runtime_error("injected fault");
  });

  const std::vector<bool> bits(nl.num_inputs(), true);
  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 3 * 16; ++i) futs.push_back(engine.submit(grid, bits));
  // Two more with a 10 ms deadline, parked in an open batch until the clock
  // passes it: they expire at dequeue.
  for (int i = 0; i < 2; ++i) {
    futs.push_back(
        engine.submit(grid, bits, clock.now() + std::chrono::milliseconds(10)));
  }
  clock.advance(std::chrono::milliseconds(20));
  engine.drain();
  std::uint64_t ok = 0, failed = 0, expired = 0;
  for (auto& f : futs) {
    try {
      (void)f.get();
      ++ok;
    } catch (const DeadlineExceeded&) {
      ++expired;
    } catch (const Error&) {
      ++failed;
    }
  }
  EXPECT_EQ(ok, 32u);
  EXPECT_EQ(failed, 16u);
  EXPECT_EQ(expired, 2u);

  const std::uint64_t accepted = futs.size();
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests + rep.shed + rep.expired + rep.failed, accepted);
  EXPECT_EQ(rep.requests, ok);
  EXPECT_EQ(rep.failed, failed);
  EXPECT_EQ(rep.expired, expired);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.batches, 3u);  // the failed batch offered its lanes too
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].failed, failed);
  EXPECT_NE(engine.metrics_prometheus().find("lbnn_failed_total 16"),
            std::string::npos);
  EXPECT_NE(engine.metrics_json().find("\"failed\":16"), std::string::npos);
}

// Engine-level ManualClock integration: a partial batch seals when the TEST
// advances time past batch_timeout — the timekeeper thread sleeps on the
// manual clock, so no real timer is involved and the test never sleeps.
TEST(Engine, ManualClockDrivesBatchTimeout) {
  ManualClock clock;
  Rng gen(55);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::milliseconds(10);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  auto fut = engine.submit(grid, std::vector<bool>(nl.num_inputs(), true));
  // Partial batch: under a frozen manual clock it can never seal on its own.
  clock.advance(std::chrono::milliseconds(9));
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  // Crossing batch_timeout wakes the timekeeper, seals, runs, resolves.
  clock.advance(std::chrono::milliseconds(1));
  const auto expect =
      simulate_scalar(nl, std::vector<bool>(nl.num_inputs(), true));
  EXPECT_EQ(fut.get(), expect);
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, 1u);
  EXPECT_EQ(rep.deadline_met, 1u);  // no deadline set: completing counts
}

}  // namespace
}  // namespace lbnn::runtime
