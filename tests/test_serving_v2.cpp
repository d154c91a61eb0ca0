// Serving API v2 coverage: model lifecycle (unload, idle eviction, stale
// handles), bounded per-model admission (try_submit / blocking backpressure),
// parallel compile admission (distinct keys overlap, same keys dedup), and
// shutdown/unload races against concurrent submitters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "runtime/clock.hpp"
#include "runtime/engine.hpp"

namespace lbnn::runtime {
namespace {

using namespace std::chrono_literals;

CompileOptions small_lpu() {
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  return opt;  // word width 2m = 16 lanes
}

EngineOptions small_engine(std::uint32_t workers) {
  EngineOptions eopt;
  eopt.num_workers = workers;
  eopt.compile = small_lpu();
  return eopt;
}

TEST(ServingV2, TrySubmitQueueFullWithoutBlocking) {
  Rng gen(101);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  // Nothing seals on its own: queue-full must come from the bound, not timing.
  eopt.batch_timeout = std::chrono::hours(1);
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 4;
  const ModelHandle grid = engine.load("grid", nl, mopt);
  EXPECT_EQ(grid.queue_bound(), 4u);

  std::vector<std::future<std::vector<bool>>> futs(5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.try_submit(grid, std::vector<bool>(nl.num_inputs()), &futs[i]),
              SubmitStatus::kAccepted);
  }
  // The bound is reached; the 5th attempt reports queue-full immediately
  // (well under the 1-hour batch timeout) and leaves the future untouched.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(engine.try_submit(grid, std::vector<bool>(nl.num_inputs()), &futs[4]),
            SubmitStatus::kQueueFull);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
  EXPECT_FALSE(futs[4].valid());

  engine.drain();  // seals the partial batch; the four accepted futures resolve
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(futs[i].wait_for(0s), std::future_status::ready);
  }
  // Capacity freed: admission works again.
  EXPECT_EQ(engine.try_submit(grid, std::vector<bool>(nl.num_inputs()), &futs[4]),
            SubmitStatus::kAccepted);
  engine.drain();
  engine.shutdown();
  std::future<std::vector<bool>> post;
  EXPECT_EQ(engine.try_submit(grid, std::vector<bool>(nl.num_inputs()), &post),
            SubmitStatus::kShuttingDown);
  EXPECT_EQ(to_string(SubmitStatus::kQueueFull), std::string("queue-full"));
}

TEST(ServingV2, BlockingSubmitUnblocksWhenCapacityFrees) {
  Rng gen(102);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(2);
  eopt.batch_timeout = std::chrono::hours(1);
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 4;
  const ModelHandle grid = engine.load("grid", nl, mopt);

  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(engine.submit(grid, std::vector<bool>(nl.num_inputs())));
  }
  // The bound is reached — the non-blocking probe proves it without any
  // wall-clock waiting (a blocking probe of "still parked after N ms" would
  // only ever be a timing guess).
  std::future<std::vector<bool>> probe;
  EXPECT_EQ(engine.try_submit(grid, std::vector<bool>(nl.num_inputs()), &probe),
            SubmitStatus::kQueueFull);
  // The 5th blocking submit parks on the bound until drain() frees capacity.
  std::atomic<bool> fifth_admitted{false};
  std::thread blocked([&] {
    auto fut = engine.submit(grid, std::vector<bool>(nl.num_inputs(), true));
    fifth_admitted.store(true);
    fut.get();
  });
  // No sleeps: each drain() seals whatever is open and waits it out, freeing
  // admission slots. The loop covers the only scheduling freedom left — the
  // blocked thread may not have reached submit() before the first drain, and
  // its request then needs one more flush to complete (the 1-hour batch
  // timeout means nothing seals on its own).
  engine.drain();  // runs the open batch, frees slots
  while (!fifth_admitted.load()) {
    std::this_thread::yield();
    engine.drain();
  }
  engine.drain();  // the admitted 5th request's batch resolves
  blocked.join();
  EXPECT_TRUE(fifth_admitted.load());
  for (auto& f : futs) EXPECT_EQ(f.wait_for(0s), std::future_status::ready);
}

TEST(ServingV2, UnloadReleasesProgramsAndRejectsStaleHandle) {
  Rng gen(103);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  Engine engine(small_engine(1));
  const ModelHandle grid = engine.load("grid", nl);
  EXPECT_EQ(engine.num_models(), 1u);
  EXPECT_EQ(engine.cache_stats().entries, 1u);

  const auto expect = simulate_scalar(nl, std::vector<bool>(nl.num_inputs(), true));
  EXPECT_EQ(engine.submit(grid, std::vector<bool>(nl.num_inputs(), true)).get(),
            expect);

  EXPECT_TRUE(engine.unload(grid));
  EXPECT_FALSE(engine.unload(grid));  // second unload is a no-op
  EXPECT_FALSE(grid.loaded());
  EXPECT_EQ(engine.num_models(), 0u);  // the registry finally shrinks
  // The cache pin is released: observable as an eviction, registry empty.
  const CacheStats after = engine.cache_stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.evictions, 1u);

  // Stale-handle submits fail cleanly, with status, not UB.
  EXPECT_THROW(engine.submit(grid, std::vector<bool>(nl.num_inputs())), Error);
  std::future<std::vector<bool>> fut;
  EXPECT_EQ(engine.try_submit(grid, std::vector<bool>(nl.num_inputs()), &fut),
            SubmitStatus::kUnloaded);

  // The handle still pins the compiled program: metadata stays readable.
  EXPECT_EQ(grid.name(), "grid");
  EXPECT_EQ(grid.num_inputs(), nl.num_inputs());

  // Reloading compiles again (the cached artifact is gone).
  const std::uint64_t misses_before = engine.cache_stats().misses;
  const ModelHandle again = engine.load("grid-2", nl);
  EXPECT_EQ(engine.cache_stats().misses, misses_before + 1);
  EXPECT_EQ(engine.submit(again, std::vector<bool>(nl.num_inputs(), true)).get(),
            expect);
}

TEST(ServingV2, UnloadDrainsOutstandingRequests) {
  Rng gen(104);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(2);
  eopt.batch_timeout = std::chrono::hours(1);  // unload must not wait for this
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 3; ++i) {
    futs.push_back(engine.submit(grid, std::vector<bool>(nl.num_inputs(), i != 0)));
  }
  EXPECT_TRUE(engine.unload(grid));
  // Every accepted future resolved (with a value, not an exception) before
  // unload returned.
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_NO_THROW(f.get());
  }
}

TEST(ServingV2, ReplicaUnloadKeepsSharedCacheEntry) {
  Rng gen(105);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  Engine engine(small_engine(1));
  const ModelHandle a = engine.load("a", nl);
  const ModelHandle b = engine.load("b", nl);  // same key: cache hit
  CacheStats s = engine.cache_stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 1u);

  // Unloading one replica must not evict the entry the other still uses.
  EXPECT_TRUE(engine.unload(a));
  s = engine.cache_stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);

  EXPECT_TRUE(engine.unload(b));
  s = engine.cache_stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(ServingV2, EvictIdleUnloadsOnlyStaleModels) {
  Rng gen(106);
  const Netlist a = reconvergent_grid(8, 4, gen);
  const Netlist b = reconvergent_grid(8, 5, gen);
  Engine engine(small_engine(1));
  const ModelHandle ha = engine.load("a", a);
  const ModelHandle hb = engine.load("b", b);
  engine.submit(ha, std::vector<bool>(a.num_inputs())).get();
  // The future resolves before the worker returns the request's admission
  // slot, and a model with an outstanding request is busy, not idle. drain()
  // waits for that release, so "idle" below does not race the worker.
  engine.drain();

  EXPECT_EQ(engine.evict_idle(10min), 0u);  // nothing is that old
  EXPECT_EQ(engine.num_models(), 2u);
  EXPECT_EQ(engine.evict_idle(0s), 2u);  // everything is idle "now"
  EXPECT_EQ(engine.num_models(), 0u);
  EXPECT_FALSE(ha.loaded());
  EXPECT_FALSE(hb.loaded());
}

TEST(ServingV2, ConcurrentDistinctLoadsOverlapCompiles) {
  Rng gen(107);
  const Netlist a = reconvergent_grid(16, 8, gen);
  const Netlist b = reconvergent_grid(16, 9, gen);
  Engine engine(small_engine(1));

  // The hook runs once per actual compile, outside the cache lock. Each
  // compile waits (bounded) for the other to arrive: only possible when the
  // two compiles are in flight simultaneously. Under the PR 1 design
  // (compile under the cache lock) max_active would stay 1.
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::mutex rendezvous_mu;
  std::condition_variable rendezvous_cv;
  int arrived = 0;
  engine.program_cache().set_compile_hook([&] {
    const int now = active.fetch_add(1) + 1;
    int seen = max_active.load();
    while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
    }
    // Rendezvous on the monotonic arrivals counter — not on `active`, which
    // the other hook may already have left: both compiles overlap whenever
    // overlap is possible, with no wall-clock poll (the timeout only bounds
    // a genuinely broken run, where max_active == 1 fails the test anyway).
    std::unique_lock<std::mutex> lk(rendezvous_mu);
    ++arrived;
    rendezvous_cv.notify_all();
    rendezvous_cv.wait_for(lk, 2s, [&] { return arrived >= 2; });
    active.fetch_sub(1);
  });

  auto fa = engine.load_async("a", a);
  auto fb = engine.load_async("b", b);
  const ModelHandle ha = fa.get();
  const ModelHandle hb = fb.get();
  EXPECT_EQ(max_active.load(), 2);
  EXPECT_TRUE(ha.loaded());
  EXPECT_TRUE(hb.loaded());
  engine.program_cache().set_compile_hook(nullptr);

  // Both models serve correctly after the overlapped compile.
  const auto bits = std::vector<bool>(a.num_inputs(), true);
  EXPECT_EQ(engine.submit(ha, bits).get(), simulate_scalar(a, bits));
  EXPECT_EQ(engine.submit(hb, bits).get(), simulate_scalar(b, bits));
}

TEST(ServingV2, SameKeyConcurrentLoadsCompileExactlyOnce) {
  Rng gen(108);
  const Netlist nl = reconvergent_grid(16, 8, gen);
  Engine engine(small_engine(1));

  constexpr int kLoaders = 4;
  std::atomic<int> compiles{0};
  engine.program_cache().set_compile_hook([&] {
    compiles.fetch_add(1);
    // Hold the one real compile open until every other loader has JOINED the
    // in-flight future — observable, because the cache counts a join as a
    // hit before the joiner blocks on it. Pure progress wait (bounded so a
    // dedup bug degrades into a fast failure, not a hang): no wall clock.
    for (long spin = 0;
         engine.cache_stats().hits <
             static_cast<std::uint64_t>(kLoaders - 1) &&
         spin < 20'000'000;
         ++spin) {
      std::this_thread::yield();
    }
  });
  std::vector<std::future<ModelHandle>> futs;
  for (int i = 0; i < kLoaders; ++i) {
    futs.push_back(engine.load_async("replica-" + std::to_string(i), nl));
  }
  std::vector<ModelHandle> handles;
  for (auto& f : futs) handles.push_back(f.get());
  engine.program_cache().set_compile_hook(nullptr);

  EXPECT_EQ(compiles.load(), 1);  // same-key loads deduplicated
  const CacheStats s = engine.cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kLoaders - 1));
  EXPECT_EQ(engine.num_models(), static_cast<std::size_t>(kLoaders));
  for (const auto& h : handles) EXPECT_TRUE(h.loaded());
}

TEST(ServingV2, WeightedModelsServeCorrectlyUnderLoad) {
  Rng gen(109);
  const Netlist heavy_nl = reconvergent_grid(12, 6, gen);
  const Netlist light_nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(2);
  eopt.batch_timeout = std::chrono::microseconds(100);
  Engine engine(eopt);
  ModelOptions heavy_opt;
  heavy_opt.weight = 1;
  ModelOptions light_opt;
  light_opt.weight = 8;
  const ModelHandle heavy = engine.load("heavy", heavy_nl, heavy_opt);
  const ModelHandle light = engine.load("light", light_nl, light_opt);
  EXPECT_EQ(heavy.weight(), 1u);
  EXPECT_EQ(light.weight(), 8u);

  std::vector<std::future<std::vector<bool>>> futs;
  Rng rng(110);
  for (int i = 0; i < 96; ++i) {
    std::vector<bool> hb(heavy_nl.num_inputs());
    for (std::size_t pi = 0; pi < hb.size(); ++pi) hb[pi] = rng.next_bool();
    futs.push_back(engine.submit(heavy, hb));
    if (i % 3 == 0) {
      futs.push_back(engine.submit(light, std::vector<bool>(light_nl.num_inputs())));
    }
  }
  engine.drain();
  for (auto& f : futs) EXPECT_NO_THROW(f.get());

  const ServeReport rep = engine.report();
  ASSERT_EQ(rep.per_model.size(), 2u);
  EXPECT_EQ(rep.per_model[0].name, "heavy");
  EXPECT_EQ(rep.per_model[1].name, "light");
  EXPECT_EQ(rep.per_model[0].weight, 1u);
  EXPECT_EQ(rep.per_model[1].weight, 8u);
  EXPECT_EQ(rep.per_model[0].requests + rep.per_model[1].requests, rep.requests);
}

TEST(ServingV2, WrongArityThrowsEvenWhenQueueIsFull) {
  Rng gen(113);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 1;
  const ModelHandle grid = engine.load("grid", nl, mopt);
  auto fut = engine.submit(grid, std::vector<bool>(nl.num_inputs()));
  // The queue is full; a wrong-arity request is a usage bug and must throw
  // immediately instead of parking on backpressure until a slot frees.
  EXPECT_THROW(engine.submit(grid, std::vector<bool>(nl.num_inputs() + 1)),
               Error);
  engine.drain();
  EXPECT_NO_THROW(fut.get());
}

TEST(ServingV2, LoadUnloadChurn) {
  // Lifecycle churn: every round loads a fresh model (new Program), serves
  // it, and unloads it — exercising the workers' simulator-cache pruning
  // (stale entries are both a leak and a dangling-key hazard; ASan covers
  // this path in CI).
  EngineOptions eopt = small_engine(2);
  eopt.batch_timeout = std::chrono::microseconds(50);
  eopt.cache_capacity = 2;
  Engine engine(eopt);
  Rng gen(114);
  for (int round = 0; round < 8; ++round) {
    const Netlist nl = reconvergent_grid(8, 4 + (round % 3), gen);
    const ModelHandle h =
        engine.load("churn-" + std::to_string(round), nl);
    std::vector<std::future<std::vector<bool>>> futs;
    for (int i = 0; i < 20; ++i) {
      futs.push_back(engine.submit(h, std::vector<bool>(nl.num_inputs(), i % 2 != 0)));
    }
    EXPECT_TRUE(engine.unload(h));  // drains, then retires the programs
    for (auto& f : futs) EXPECT_NO_THROW(f.get());
  }
  EXPECT_EQ(engine.num_models(), 0u);
}

TEST(ServingV2, ExtremeWeightDoesNotFreezeScheduler) {
  // A weight beyond the stride scale must not truncate the stride to 0 —
  // that would freeze the model's pass at the minimum and starve every other
  // model for as long as it stays backlogged.
  Rng gen(112);
  const Netlist nl_a = reconvergent_grid(8, 4, gen);
  const Netlist nl_b = reconvergent_grid(8, 5, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::microseconds(50);
  Engine engine(eopt);
  ModelOptions extreme_opt;
  extreme_opt.weight = 1u << 24;  // > kStrideScale
  const ModelHandle extreme = engine.load("extreme", nl_a, extreme_opt);
  const ModelHandle other = engine.load("other", nl_b);

  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(engine.submit(extreme, std::vector<bool>(nl_a.num_inputs())));
    futs.push_back(engine.submit(other, std::vector<bool>(nl_b.num_inputs())));
  }
  engine.drain();  // both models complete; neither starves the other
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
}

// Concurrent submit()/try_submit() against drain()/unload()/shutdown() must
// never deadlock or drop a promise: every accepted future resolves, every
// rejection is a clean status/exception.
TEST(ServingV2, ShutdownUnloadSubmitRaces) {
  Rng gen(111);
  const Netlist nl_a = reconvergent_grid(8, 4, gen);
  const Netlist nl_b = reconvergent_grid(8, 5, gen);

  for (int round = 0; round < 3; ++round) {
    EngineOptions eopt = small_engine(2);
    eopt.batch_timeout = std::chrono::microseconds(50);
    Engine engine(eopt);
    ModelOptions mopt;
    mopt.queue_bound = 8;  // small bound: exercise the backpressure paths too
    const ModelHandle a = engine.load("a", nl_a, mopt);
    const ModelHandle b = engine.load("b", nl_b, mopt);

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> resolved{0};
    constexpr int kThreads = 4;
    constexpr int kPerThread = 200;
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        const ModelHandle& target = (t % 2 == 0) ? a : b;
        const std::size_t arity =
            (t % 2 == 0) ? nl_a.num_inputs() : nl_b.num_inputs();
        std::vector<std::future<std::vector<bool>>> futs;
        for (int i = 0; i < kPerThread; ++i) {
          std::vector<bool> bits(arity, (i & 1) != 0);
          if (i % 2 == 0) {
            try {
              futs.push_back(engine.submit(target, std::move(bits)));
              accepted.fetch_add(1);
            } catch (const Error&) {
              rejected.fetch_add(1);  // shut down / unloaded: clean rejection
            }
          } else {
            std::future<std::vector<bool>> fut;
            const SubmitStatus st = engine.try_submit(target, std::move(bits), &fut);
            if (st == SubmitStatus::kAccepted) {
              futs.push_back(std::move(fut));
              accepted.fetch_add(1);
            } else {
              rejected.fetch_add(1);
            }
          }
        }
        // Every accepted future must resolve — to a value (normal) or an
        // exception (failed batch) — never hang, never stay unresolved.
        for (auto& f : futs) {
          try {
            f.get();
          } catch (const Error&) {
          }
          resolved.fetch_add(1);
        }
      });
    }

    // Let the clients race ahead before each lifecycle op — measured in op
    // progress, not wall time, so the interleaving still varies per round
    // (the thresholds shift) but nothing ever sleeps. Progress is guaranteed:
    // workers keep sealing (50 us timeout) and draining batches, so blocked
    // submitters always advance, and after unload/shutdown the remaining ops
    // turn into instant rejections.
    const std::uint64_t total =
        static_cast<std::uint64_t>(kThreads) * kPerThread;
    const auto progressed = [&](std::uint64_t at_least) {
      while (accepted.load() + rejected.load() < at_least) {
        std::this_thread::yield();
      }
    };
    progressed(total / 8 + static_cast<std::uint64_t>(round) * total / 8);
    engine.drain();
    engine.unload(b);
    progressed(total / 2 + static_cast<std::uint64_t>(round) * total / 8);
    engine.shutdown();
    for (auto& c : clients) c.join();

    EXPECT_EQ(resolved.load(), accepted.load());
    EXPECT_EQ(accepted.load() + rejected.load(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
  }
}

// Table-driven exhaustiveness for to_string(SubmitStatus): every enumerator
// (including kDeadlineUnmeetable) maps to its own distinct, stable string.
// The implementation has no default case, so a future enumerator without a
// case is a -Wswitch warning at compile time AND a failure here.
TEST(SubmitStatusV2, ToStringIsExhaustiveAndDistinct) {
  const struct {
    SubmitStatus status;
    const char* expect;
  } kTable[] = {
      {SubmitStatus::kAccepted, "accepted"},
      {SubmitStatus::kQueueFull, "queue-full"},
      {SubmitStatus::kUnloaded, "unloaded"},
      {SubmitStatus::kShuttingDown, "shutting-down"},
      {SubmitStatus::kDeadlineUnmeetable, "deadline-unmeetable"},
  };
  std::set<std::string> seen;
  for (const auto& row : kTable) {
    const std::string got = to_string(row.status);
    EXPECT_EQ(got, row.expect);
    EXPECT_FALSE(got.empty());
    seen.insert(got);
  }
  // Pairwise distinct: no two statuses collapse to one label.
  EXPECT_EQ(seen.size(), sizeof(kTable) / sizeof(kTable[0]));
}

// The admission estimate is a pure function — table-driven unit coverage of
// the shedding math, independent of any real service-time measurement. The
// zero-EWMA rows are the cold-start path: the first request to a fresh model
// must never be shed on a guess (no service signal means no estimate), and
// the deadline boundary is INCLUSIVE to match the rest of the runtime
// (drop_expired_requests / finalize treat finishing AT the deadline as on
// time, so only a deadline strictly in the past is dead at admission).
TEST(AdmissionV2, DeadlineUnmeetableEstimate) {
  using us = std::chrono::microseconds;
  const TimePoint now = TimePoint{} + std::chrono::hours(1);
  const struct {
    const char* why;
    TimePoint deadline;
    std::uint64_t ewma_us;
    std::size_t items_ahead;
    std::size_t workers;
    bool unmeetable;
  } kTable[] = {
      {"no deadline: never shed, whatever the backlog",
       kNoDeadline, 1000, 1000000, 1, false},
      // --- zero-EWMA cold start: a fresh model has no service signal ---
      {"cold start, future deadline, empty queue: admit",
       now + us(1), 0, 0, 1, false},
      {"cold start, future deadline, huge backlog: still admit (no signal)",
       now + us(1), 0, 1000000, 4, false},
      {"cold start, deadline exactly now: inclusive boundary, admit",
       now, 0, 0, 1, false},
      {"cold start, deadline exactly now, deep queue: still no estimate",
       now, 0, 1000, 1, false},
      {"deadline strictly past: dead at admission even with no signal",
       now - us(1), 0, 0, 4, true},
      // --- warmed-up estimates ---
      {"10 items x 100 us on one worker: 1000 us drain, 999 us budget",
       now + us(999), 100, 10, 1, true},
      {"same drain, exactly 1000 us budget: inclusive, admit",
       now + us(1000), 100, 10, 1, false},
      {"warm model, deadline exactly now, work queued: certainly late",
       now, 100, 10, 1, true},
      {"4 workers drain in parallel: ceil(10/4) x 100 us = 300 us (best case)",
       now + us(299), 100, 10, 4, true},
      {"best-case boundary met exactly: admit",
       now + us(300), 100, 10, 4, false},
      {"defensive: workers == 0 behaves as one worker",
       now + us(999), 100, 10, 0, true},
  };
  for (const auto& row : kTable) {
    EXPECT_EQ(deadline_unmeetable(row.deadline, now, row.ewma_us,
                                  row.items_ahead, row.workers),
              row.unmeetable)
        << row.why;
  }
}

// Engine-level cold start: the very first request to a freshly loaded model
// carries a tight-but-future deadline and a backlog is already parked in the
// open lane — with no service EWMA yet, admission must stay optimistic (no
// shed), and the request completes. ManualClock: the whole test is timeless.
TEST(AdmissionV2, ColdStartNeverShedsOnMissingSignal) {
  ManualClock clock;
  Rng gen(134);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 64;
  const ModelHandle grid = engine.load("grid", nl, mopt);

  const std::vector<bool> bits(nl.num_inputs(), true);
  // Park a few deadline-less requests in the open lane first: items are
  // ahead of the probe, but the EWMA is still 0 — no estimate, no shed.
  std::vector<std::future<std::vector<bool>>> parked;
  for (int i = 0; i < 3; ++i) parked.push_back(engine.submit(grid, bits));

  std::future<std::vector<bool>> fut;
  EXPECT_EQ(engine.try_submit(grid, bits, &fut,
                              clock.now() + std::chrono::microseconds(1)),
            SubmitStatus::kAccepted);
  engine.drain();
  EXPECT_EQ(fut.get(), simulate_scalar(nl, bits));
  for (auto& f : parked) EXPECT_EQ(f.get(), simulate_scalar(nl, bits));

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.requests, 4u);
  EXPECT_EQ(rep.deadline_met, 4u);  // zero manual time passed: all on time
}

// Admission shedding on an already-missed deadline is deterministic (no EWMA
// involvement): the non-blocking path reports kDeadlineUnmeetable, the
// blocking path throws DeadlineExceeded in microseconds instead of parking,
// and both land in the shed counters.
TEST(AdmissionV2, PastDeadlineShedsAtAdmission) {
  ManualClock clock(TimePoint{} + std::chrono::hours(1));
  Rng gen(120);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle grid = engine.load("grid", nl);

  const std::vector<bool> bits(nl.num_inputs(), true);
  std::future<std::vector<bool>> fut;
  EXPECT_EQ(engine.try_submit(grid, bits, &fut,
                              clock.now() - std::chrono::microseconds(1)),
            SubmitStatus::kDeadlineUnmeetable);
  EXPECT_FALSE(fut.valid());  // rejection leaves the future untouched
  EXPECT_THROW(engine.submit(grid, bits, clock.now() - std::chrono::hours(2)),
               DeadlineExceeded);

  ServeReport rep = engine.report();
  EXPECT_EQ(rep.shed, 2u);
  EXPECT_EQ(rep.requests, 0u);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].shed, 2u);

  // A future deadline with no service-time signal admits normally and, once
  // completed in time, counts toward goodput.
  EXPECT_EQ(engine.try_submit(grid, bits, &fut,
                              clock.now() + std::chrono::hours(1)),
            SubmitStatus::kAccepted);
  engine.drain();
  EXPECT_EQ(fut.get(), simulate_scalar(nl, bits));
  rep = engine.report();
  EXPECT_EQ(rep.requests, 1u);
  EXPECT_EQ(rep.deadline_met, 1u);
  EXPECT_EQ(rep.expired, 0u);

  // Lifecycle states outrank shedding: to an unloaded model, or after
  // shutdown, a doomed-deadline submit reports the lifecycle state (plain
  // Error), never DeadlineExceeded, and records nothing in the shed counters.
  const ModelHandle gone = engine.load("gone", nl);
  ASSERT_TRUE(engine.unload(gone));
  EXPECT_EQ(engine.try_submit(gone, bits, &fut,
                              clock.now() - std::chrono::hours(1)),
            SubmitStatus::kUnloaded);
  try {
    engine.submit(gone, bits, clock.now() - std::chrono::hours(1));
    FAIL() << "submit to an unloaded model must throw";
  } catch (const DeadlineExceeded&) {
    FAIL() << "unload must take precedence over deadline shedding";
  } catch (const Error&) {
    // expected: "model 'gone' is unloaded"
  }
  EXPECT_EQ(engine.report().shed, 2u);

  engine.shutdown();
  try {
    engine.submit(grid, bits, clock.now() - std::chrono::hours(1));
    FAIL() << "submit after shutdown must throw";
  } catch (const DeadlineExceeded&) {
    FAIL() << "shutdown must take precedence over deadline shedding";
  } catch (const Error&) {
    // expected: "engine is shut down"
  }
  EXPECT_EQ(engine.report().shed, 2u);  // unchanged by the post-shutdown probe
}

// A blocking submit parked on backpressure re-runs the whole admission
// ladder when capacity frees: once its deadline has turned unmeetable it is
// shed, never admitted. The batch that frees the slot advances the clock by
// 2 ms inside its member run, which also teaches the service EWMA 2 ms. So
// whether the submitter parks first (the common case: it has claimed its
// in-flight slot before drain() starts), reads the clock only after the
// advance, or read it before but reaches the ladder after the slot freed,
// its 1 ms deadline is unmeetable — the test needs no sleep.
TEST(AdmissionV2, ParkedSubmitShedsWhenDeadlinePasses) {
  ManualClock clock;
  Rng gen(123);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 4;
  const ModelHandle grid = engine.load("grid", nl, mopt);
  engine.set_member_hook([&](const std::string&, std::size_t, bool) {
    clock.advance(std::chrono::milliseconds(2));
  });

  const std::vector<bool> bits(nl.num_inputs(), true);
  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(engine.submit(grid, bits));
  const TimePoint deadline = clock.now() + std::chrono::milliseconds(1);
  std::atomic<bool> shed{false};
  std::thread parked([&] {
    try {
      engine.submit(grid, bits, deadline);
    } catch (const DeadlineExceeded&) {
      shed.store(true);
    }
  });
  while (engine.in_flight() < 5) std::this_thread::yield();
  engine.drain();  // runs the 4 queued requests, freeing the parked slot
  parked.join();
  engine.set_member_hook(nullptr);

  EXPECT_TRUE(shed.load());
  for (auto& f : futs) EXPECT_EQ(f.get(), simulate_scalar(nl, bits));
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.shed, 1u);
  EXPECT_EQ(rep.requests, 4u);
}

namespace {

/// Blocks every dispatch while armed; used to pin the single worker so tests
/// can stage queues / advance the manual clock deterministically.
class DispatchGate {
 public:
  void arm() {
    std::lock_guard<std::mutex> lk(mu_);
    hold_ = true;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      hold_ = false;
    }
    cv_.notify_all();
  }
  void wait_if_armed() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !hold_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = true;
};

}  // namespace

// Requests that outlive their deadline while queued are dropped at dequeue:
// their futures fail with DeadlineExceeded BEFORE any simulator work, a
// fully-expired batch skips the simulator entirely (no batch/lane
// accounting), and a mixed batch still serves its live requests. All timing
// is ManualClock-driven — the test never sleeps.
TEST(AdmissionV2, ExpiredRequestsDropAtDequeue) {
  ManualClock clock;
  Rng gen(121);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);  // only lane-full seals
  eopt.clock = &clock;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 64;
  const ModelHandle grid = engine.load("grid", nl, mopt);
  const std::size_t lanes = 16;  // m = 8 -> word width 16

  DispatchGate gate;
  engine.set_dispatch_hook([&](const std::string&) { gate.wait_if_armed(); });

  const std::vector<bool> bits(nl.num_inputs(), true);
  const auto expect = simulate_scalar(nl, bits);

  // Batch A (no deadlines) seals lane-full; the worker dequeues it and parks
  // on the gate. Batch B (1 ms deadline) seals behind it.
  std::vector<std::future<std::vector<bool>>> batch_a, batch_b;
  for (std::size_t i = 0; i < lanes; ++i) {
    batch_a.push_back(engine.submit(grid, bits));
  }
  const TimePoint slo = clock.now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < lanes; ++i) {
    batch_b.push_back(engine.submit(grid, bits, slo));
  }
  // While both batches sit in the engine, time overtakes B's deadline.
  clock.advance(std::chrono::milliseconds(2));
  gate.release();

  for (auto& f : batch_a) EXPECT_EQ(f.get(), expect);  // A is unaffected
  for (auto& f : batch_b) EXPECT_THROW(f.get(), DeadlineExceeded);

  ServeReport rep = engine.report();
  EXPECT_EQ(rep.expired, lanes);
  EXPECT_EQ(rep.requests, lanes);       // only batch A completed
  EXPECT_EQ(rep.batches, 1u);           // batch B never ran
  EXPECT_EQ(rep.deadline_met, lanes);   // batch A (deadline-less) is goodput
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].expired, lanes);

  // Mixed batch: half with a soon-to-expire deadline, half without. The live
  // half still gets values; only the expired half fails.
  gate.arm();
  std::vector<std::future<std::vector<bool>>> doomed, live;
  const TimePoint slo2 = clock.now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < lanes; ++i) {
    if (i % 2 == 0) {
      doomed.push_back(engine.submit(grid, bits, slo2));
    } else {
      live.push_back(engine.submit(grid, bits));
    }
  }
  clock.advance(std::chrono::milliseconds(2));
  gate.release();
  for (auto& f : live) EXPECT_EQ(f.get(), expect);
  for (auto& f : doomed) EXPECT_THROW(f.get(), DeadlineExceeded);
  rep = engine.report();
  EXPECT_EQ(rep.expired, lanes + lanes / 2);
  EXPECT_EQ(rep.requests, lanes + lanes / 2);
  EXPECT_EQ(rep.batches, 2u);  // the mixed batch DID run (live lanes)

  engine.set_dispatch_hook(nullptr);
}

// ModelOptions::default_deadline stamps an SLO onto deadline-less submits:
// requests admitted under it expire exactly default_deadline after admission.
TEST(AdmissionV2, DefaultDeadlineAppliesToPlainSubmits) {
  ManualClock clock;
  Rng gen(122);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.default_deadline = std::chrono::milliseconds(1);
  const ModelHandle grid = engine.load("grid", nl, mopt);

  DispatchGate gate;
  engine.set_dispatch_hook([&](const std::string&) { gate.wait_if_armed(); });

  const std::vector<bool> bits(nl.num_inputs(), false);
  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 16; ++i) futs.push_back(engine.submit(grid, bits));
  clock.advance(std::chrono::milliseconds(2));  // past admission + 1 ms
  gate.release();
  for (auto& f : futs) EXPECT_THROW(f.get(), DeadlineExceeded);
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.expired, 16u);
  EXPECT_EQ(rep.requests, 0u);
  engine.set_dispatch_hook(nullptr);
}

RandomCircuitSpec wide_dag_spec() {
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = 80;
  spec.num_outputs = 6;
  return spec;  // 6 POs: supports up to 6 parallel assembly members
}

// Member-level work stealing: one worker dequeues the batch and parks in the
// dispatch hook (which fires on scheduler pops only, never on steals); the
// other — idle, nothing queued — steals BOTH members off the batch's cursor
// and completes it. Every future resolves while the claimer is still pinned,
// which is exactly the straggler-hiding property the stealing exists for.
TEST(StealingV2, IdleWorkersStealMembersFromInFlightBatch) {
  ManualClock clock;
  DispatchGate gate;  // declared before the engine: workers may touch it late
  Rng gen(130);
  const Netlist nl = random_dag(wide_dag_spec(), gen);
  EngineOptions eopt = small_engine(2);
  eopt.batch_timeout = std::chrono::hours(1);  // only lane-full seals
  eopt.clock = &clock;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 64;
  const ModelHandle dag = engine.load_parallel("dag", nl, 2, mopt);

  engine.set_dispatch_hook([&](const std::string&) { gate.wait_if_armed(); });

  const std::size_t lanes = 16;  // m = 8 -> word width 16
  const std::vector<bool> bits(nl.num_inputs(), true);
  const auto expect = simulate_scalar(nl, bits);
  std::vector<std::future<std::vector<bool>>> futs;
  for (std::size_t i = 0; i < lanes; ++i) {
    futs.push_back(engine.submit(dag, bits));  // 16th submit seals inline
  }
  // Whichever worker popped the batch is pinned in the hook; the other one
  // must finish the whole batch by stealing. get() hanging here = no steal.
  for (auto& f : futs) EXPECT_EQ(f.get(), expect);

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.requests, lanes);
  EXPECT_EQ(rep.member_runs, 2u);
  EXPECT_EQ(rep.steals, 2u);  // both members ran on the non-claimer
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].member_runs, 2u);
  EXPECT_EQ(rep.per_model[0].steals, 2u);

  gate.release();
  engine.drain();
  engine.set_dispatch_hook(nullptr);
}

// Member-granularity accounting under partial expiry: a 4-member batch whose
// requests partially expire mid-flight must close its books — accepted ==
// completed + expired, every future resolves exactly once (values for the
// live half, DeadlineExceeded for the expired half), and exactly 4 member
// work items ran for the one batch. All timing is ManualClock-driven.
TEST(StealingV2, MemberAccountingClosesOnPartialExpiry) {
  ManualClock clock;
  DispatchGate gate;
  Rng gen(132);
  const Netlist nl = random_dag(wide_dag_spec(), gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 64;
  const ModelHandle dag = engine.load_parallel("dag", nl, 4, mopt);

  engine.set_dispatch_hook([&](const std::string&) { gate.wait_if_armed(); });

  const std::size_t lanes = 16;
  const std::vector<bool> bits(nl.num_inputs(), true);
  const auto expect = simulate_scalar(nl, bits);
  const TimePoint slo = clock.now() + std::chrono::milliseconds(1);
  std::vector<std::future<std::vector<bool>>> doomed, live;
  for (std::size_t i = 0; i < lanes; ++i) {
    if (i < 2) {
      doomed.push_back(engine.submit(dag, bits, slo));
    } else {
      live.push_back(engine.submit(dag, bits));
    }
  }
  // The single worker has popped the sealed batch and parked in the hook;
  // time overtakes the two deadlines while all 4 members are still pending.
  clock.advance(std::chrono::milliseconds(2));
  gate.release();

  for (auto& f : live) EXPECT_EQ(f.get(), expect);
  for (auto& f : doomed) EXPECT_THROW(f.get(), DeadlineExceeded);

  const ServeReport rep = engine.report();
  const std::uint64_t accepted = lanes;
  EXPECT_EQ(rep.requests + rep.shed + rep.expired, accepted);  // books close
  EXPECT_EQ(rep.requests, accepted - 2);
  EXPECT_EQ(rep.expired, 2u);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.samples, accepted - 2);  // only live lanes count as samples
  EXPECT_EQ(rep.member_runs, 4u);        // the batch still ran all 4 members
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].expired, 2u);
  EXPECT_EQ(rep.per_model[0].member_runs, 4u);

  engine.set_dispatch_hook(nullptr);
}

// The admission estimate speaks member work items: requests parked in the
// still-open (unsealed) lane cost a full batch of members once they seal, so
// a deadline that the open lane's own service time already busts is shed at
// admission. The EWMA is taught deterministically through the member hook,
// which advances the ManualClock by exactly 1 ms per member run.
TEST(AdmissionV2, OpenBatchCountsTowardDrainEstimate) {
  ManualClock clock;
  Rng gen(133);
  const Netlist nl = random_dag(wide_dag_spec(), gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle dag = engine.load_parallel("dag", nl, 4);

  engine.set_member_hook([&](const std::string&, std::size_t, bool) {
    clock.advance(std::chrono::milliseconds(1));
  });

  const std::vector<bool> bits(nl.num_inputs(), true);
  // Teach the EWMA: one warm-up batch, 4 member runs of exactly 1000 us.
  auto warmup = engine.submit(dag, bits);
  engine.drain();
  EXPECT_EQ(warmup.get(), simulate_scalar(nl, bits));
  EXPECT_EQ(engine.report().member_runs, 4u);

  // Park one deadline-less request in the open lane. Nothing is sealed, so
  // the old batch-count estimate would see zero queued work — but that lane
  // costs 4 member runs (4000 us) the moment it seals.
  auto parked = engine.submit(dag, bits);
  std::future<std::vector<bool>> shed_fut;
  EXPECT_EQ(engine.try_submit(dag, bits, &shed_fut,
                              clock.now() + std::chrono::microseconds(3500)),
            SubmitStatus::kDeadlineUnmeetable);
  EXPECT_FALSE(shed_fut.valid());
  // A deadline with room for the full 4-member drain admits (4000 us is the
  // exact best-case boundary — the estimate is deliberately optimistic).
  std::future<std::vector<bool>> ok_fut;
  EXPECT_EQ(engine.try_submit(dag, bits, &ok_fut,
                              clock.now() + std::chrono::microseconds(4000)),
            SubmitStatus::kAccepted);

  engine.drain();  // seals the 2-request batch; 4 members, 4 ms of service
  EXPECT_EQ(parked.get(), simulate_scalar(nl, bits));
  EXPECT_EQ(ok_fut.get(), simulate_scalar(nl, bits));

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.shed, 1u);
  EXPECT_EQ(rep.expired, 0u);
  EXPECT_EQ(rep.requests, 3u);
  EXPECT_EQ(rep.deadline_met, 3u);  // the 4000 us deadline was met exactly
  EXPECT_EQ(rep.member_runs, 8u);

  engine.set_member_hook(nullptr);
}

// Deterministic stride-scheduler drain order: one worker, ManualClock (so
// nothing seals or reorders on real time), three models with weights 3:1:1
// and standing backlogs. The dequeue order is read from the trace stream's
// kDispatch events — the canonical sequence every scheduler transition lands
// in — while the dispatch hook keeps only its gating duty (pinning the
// worker while the backlogs stage). Stride scheduling must hand out every
// aligned window of 5 dispatches as {A,A,A,B,C} in some order — and 50
// dispatches as exactly 30/10/10. This replaces statistical-tolerance
// fairness checks with an exact assertion.
TEST(SchedulerV2, StrideDrainOrderMatchesWeightsExactly) {
  ManualClock clock;
  Rng gen(123);
  const Netlist nl = reconvergent_grid(8, 4, gen);
  EngineOptions eopt = small_engine(1);
  eopt.batch_timeout = std::chrono::hours(1);  // only lane-full seals
  eopt.clock = &clock;
  eopt.tracing = true;
  eopt.trace_ring_capacity = 1 << 14;  // 57 batches of events, no drops
  Engine engine(eopt);
  const std::size_t lanes = 16;

  ModelOptions heavy;
  heavy.weight = 3;
  heavy.queue_bound = 40 * lanes;
  ModelOptions light;
  light.weight = 1;
  light.queue_bound = 16 * lanes;
  const ModelHandle a = engine.load("A", nl, heavy);
  const ModelHandle b = engine.load("B", nl, light);
  const ModelHandle c = engine.load("C", nl, light);

  DispatchGate gate;
  engine.set_dispatch_hook([&](const std::string&) {
    gate.wait_if_armed();  // pin the worker on its first dispatch
  });

  // Stage the backlogs while the worker is pinned: full batches seal inline.
  // A is submitted first, so the worker's one pre-gate dispatch is an A batch.
  const std::vector<bool> bits(nl.num_inputs(), true);
  const auto submit_batches = [&](const ModelHandle& h, int n) {
    for (int i = 0; i < n * static_cast<int>(lanes); ++i) {
      auto fut = engine.submit(h, bits);  // resolves after the drain below
      (void)fut;
    }
  };
  submit_batches(a, 33);
  submit_batches(b, 12);
  submit_batches(c, 12);
  gate.release();
  engine.drain();
  engine.set_dispatch_hook(nullptr);

  // The dequeue order, replayed from the event stream.
  EXPECT_EQ(engine.trace_dropped(), 0u);
  std::vector<std::string> order;
  for (const TraceEvent& ev : engine.drain_trace()) {
    if (ev.type == TraceEventType::kDispatch) {
      order.push_back(engine.trace_model_name(ev.model_id));
    }
  }
  ASSERT_GE(order.size(), 51u);
  EXPECT_EQ(order[0], "A");  // the pinned pre-backlog dispatch
  // The 50 dispatches after the gate: exactly 3:1:1.
  std::map<std::string, int> counts;
  for (std::size_t i = 1; i <= 50; ++i) counts[order[i]]++;
  EXPECT_EQ(counts["A"], 30);
  EXPECT_EQ(counts["B"], 10);
  EXPECT_EQ(counts["C"], 10);
  // Stronger: stride's bounded lag means every aligned window of 5 holds
  // exactly three A dispatches and one each of B and C.
  for (std::size_t w = 1; w + 5 <= 51; w += 5) {
    std::map<std::string, int> win;
    for (std::size_t i = w; i < w + 5; ++i) win[order[i]]++;
    EXPECT_EQ(win["A"], 3) << "window at " << w;
    EXPECT_EQ(win["B"], 1) << "window at " << w;
    EXPECT_EQ(win["C"], 1) << "window at " << w;
  }
}

}  // namespace
}  // namespace lbnn::runtime
