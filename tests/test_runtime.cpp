#include <gtest/gtest.h>

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

TEST(LatencyHistogram, PercentilesAreMonotonic) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_us(99.0), 0u);
  for (std::uint64_t us = 1; us <= 1000; ++us) h.record(us);
  EXPECT_EQ(h.count(), 1000u);
  const auto p50 = h.percentile_us(50.0);
  const auto p99 = h.percentile_us(99.0);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p50, 256u);   // true p50 is 500 -> bucket [512, 1024)
  EXPECT_LE(p99, 2048u);  // true p99 is 990, octave resolution
}

TEST(ServeStats, AggregatesBatchesAndSims) {
  ServeStats stats;
  SimCounters c;
  c.wavefronts = 10;
  c.lpe_computes = 40;
  c.lpe_utilization = 0.5;
  stats.on_sim_run(c);
  stats.on_sim_run(c);
  stats.on_batch(12, 16);
  stats.on_batch(4, 16);
  stats.on_request_done(100);
  const ServeReport rep = stats.report();
  EXPECT_EQ(rep.batches, 2u);
  EXPECT_EQ(rep.samples, 16u);
  EXPECT_EQ(rep.lanes_offered, 32u);
  EXPECT_DOUBLE_EQ(rep.lane_occupancy, 0.5);
  EXPECT_EQ(rep.sim.wavefronts, 20u);
  EXPECT_EQ(rep.sim.lpe_computes, 80u);
  EXPECT_DOUBLE_EQ(rep.sim.lpe_utilization, 0.5);
  EXPECT_EQ(rep.requests, 1u);
}

// Wall-clock-derived figures (rates, goodput) are stamped off the injected
// clock: a ManualClock makes them exact instead of host-speed-dependent.
TEST(ServeStats, RatesAreDeterministicOnManualClock) {
  ManualClock clock;
  ServeStats stats(&clock);
  stats.on_requests_done({100, 200, 300, 400}, /*deadline_met=*/3);
  stats.on_shed();
  stats.on_shed();
  stats.on_expired(5);
  clock.advance(std::chrono::seconds(2));
  const ServeReport rep = stats.report();
  EXPECT_EQ(rep.requests, 4u);
  EXPECT_EQ(rep.shed, 2u);
  EXPECT_EQ(rep.expired, 5u);
  EXPECT_EQ(rep.deadline_met, 3u);
  EXPECT_DOUBLE_EQ(rep.wall_seconds, 2.0);
  EXPECT_DOUBLE_EQ(rep.requests_per_sec, 2.0);
  EXPECT_DOUBLE_EQ(rep.goodput_per_sec, 1.5);
  // reset() re-anchors on the same clock.
  stats.reset();
  clock.advance(std::chrono::seconds(1));
  const ServeReport fresh = stats.report();
  EXPECT_EQ(fresh.requests, 0u);
  EXPECT_EQ(fresh.shed, 0u);
  EXPECT_DOUBLE_EQ(fresh.wall_seconds, 1.0);
}

TEST(ModelStats, PerModelBreakdown) {
  ModelStats stats;
  stats.on_requests_done({100, 200, 400}, /*deadline_met=*/2);
  stats.on_batch(3, 16);
  stats.on_queue_depth(2);
  stats.on_queue_depth(7);
  stats.on_queue_depth(4);  // hwm keeps the peak, not the last sample
  stats.on_shed();
  stats.on_expired(2);
  const ModelReport rep = stats.report();
  EXPECT_EQ(rep.requests, 3u);
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.samples, 3u);
  EXPECT_EQ(rep.lanes_offered, 16u);
  EXPECT_DOUBLE_EQ(rep.lane_occupancy, 3.0 / 16.0);
  EXPECT_LE(rep.p50_latency_us, rep.p99_latency_us);
  EXPECT_EQ(rep.queue_depth_hwm, 7u);
  EXPECT_EQ(rep.shed, 1u);
  EXPECT_EQ(rep.expired, 2u);
  EXPECT_EQ(rep.deadline_met, 2u);
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
