// Router subsystem under a deterministic ManualClock: power-of-two-choices
// tie-breaking, shed-driven replica growth, idle retirement, and retire-time
// draining are all driven with zero real sleeps — time only moves when a test
// calls advance(), and the rebalancer's fixed-cadence wait makes
// advance(interval) + wait_for_ticks(n) an exact handshake. The suite audits
// the promises the Router makes on top of the Engine:
//
//   1. deterministic routing — a cold fleet (every drain estimate 0) spreads
//      strictly by the outstanding-count / shard-id tie-break, so placement
//      is assertable request by request;
//   2. rebalancing closes the loop — sustained admission sheds grow the
//      replica set within one tick, and an idle model shrinks back after
//      retire_idle_ticks windows, always retiring the colder replica;
//   3. nothing accepted is ever dropped — a retire removes the replica from
//      routing FIRST, then drains it, so every parked future still resolves;
//   4. fleet books close — accepted == requests + expired across shards, one
//      shed counted per refused request (the p2c loser is never retried on
//      kDeadlineUnmeetable).
//
// The EWMA-teaching idiom: the member hook advances the ManualClock 1 ms
// inside a member run, so the admission plane learns a known service time
// without any wall-clock dependence. This file is in the
// CI TSan set (with LBNN_FORCE_TRACING=1): routing, rebalancing, and the
// trace rings must be race-clean together.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "router/router.hpp"
#include "runtime/clock.hpp"
#include "runtime/engine.hpp"

namespace lbnn::router {
namespace {

using namespace std::chrono_literals;
using runtime::ManualClock;
using runtime::SubmitStatus;

constexpr std::size_t kLanes = 16;  // m = 8 -> 16-lane datapath words

CompileOptions small_lpu() {
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  return opt;
}

Netlist small_grid(std::uint64_t seed) {
  Rng gen(seed);
  return reconvergent_grid(8, 4, gen);
}

/// One-shot barrier for parking executors inside the member hook: arm()
/// before the run, wait_here() from the hook, await_arrivals() to
/// rendezvous, release() to let them through.
class Gate {
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
  void wait_here() {
    std::unique_lock<std::mutex> lk(mu_);
    ++arrivals_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return !hold_; });
  }
  void await_arrivals(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return arrivals_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = false;
  int arrivals_ = 0;
};

/// Two-shard, one-worker-per-shard router on a ManualClock. batch_timeout is
/// an hour, so batches seal ONLY when their 16 lanes fill — parked partial
/// batches are the test's to control, never a timer's.
struct RouterFixture {
  ManualClock clock;
  RouterOptions ropt;

  explicit RouterFixture(std::chrono::microseconds rebalance_interval = 0us,
                         std::size_t initial_replicas = 2) {
    ropt.num_shards = 2;
    ropt.initial_replicas = initial_replicas;
    ropt.rebalance_interval = rebalance_interval;
    ropt.engine.num_workers = 1;
    ropt.engine.batch_timeout = std::chrono::hours(1);
    ropt.engine.compile = small_lpu();
    ropt.engine.clock = &clock;
  }
};

/// Teach one shard's admission EWMA a known service time: a hook that
/// advances the ManualClock 1 ms inside each member run while `teaching` is
/// set. With one single-member model a full 16-lane batch is one member item,
/// so the learned per-item EWMA is the advance itself (~1000 us; exact with
/// one worker, bounded by the number of concurrent advances otherwise).
struct TeachingHook {
  ManualClock* clock = nullptr;
  std::atomic<bool> teaching{true};
  Gate gate;          ///< parks runs while armed, so multi-shard
                      ///< teaching can rendezvous before time moves
  std::atomic<int> runs{0};

  void operator()(const std::string&, std::size_t) {
    if (!teaching.load(std::memory_order_acquire)) return;
    gate.wait_here();
    clock->advance(1ms);
    runs.fetch_add(1, std::memory_order_acq_rel);
  }
};

// ---------------------------------------------------------------------------
// Deterministic p2c routing
// ---------------------------------------------------------------------------

TEST(Router, ColdFleetP2cAlternatesDeterministically) {
  RouterFixture fx;
  Router router(fx.ropt);
  const Netlist nl = small_grid(1);
  RoutedHandle h = router.load("grid", nl);

  ASSERT_EQ(router.replicas(h), 2u);
  EXPECT_EQ(router.replica_shards(h), (std::vector<std::size_t>{0, 1}));

  // Every drain estimate is 0 (no service signal) and nothing completes
  // (partial batches never seal), so routing is pure tie-breaking: equal
  // outstanding -> shard 0, else the smaller count. Submissions alternate
  // 0, 1, 0, 1, ... exactly.
  std::vector<std::future<std::vector<bool>>> futs;
  std::vector<bool> bits(nl.num_inputs(), true);
  for (int i = 0; i < 6; ++i) {
    futs.push_back(router.submit(h, bits));
    EXPECT_EQ(router.shard(0).in_flight(), static_cast<std::size_t>(i / 2 + 1))
        << "submission " << i;
    EXPECT_EQ(router.shard(1).in_flight(), static_cast<std::size_t>((i + 1) / 2))
        << "submission " << i;
  }

  router.drain();
  const std::vector<bool> want = simulate_scalar(nl, bits);
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(f.get(), want);
  }
  const FleetReport rep = router.report();
  EXPECT_EQ(rep.total.requests, 6u);
  EXPECT_EQ(rep.total.shed, 0u);
  EXPECT_EQ(rep.total.expired, 0u);
  EXPECT_EQ(rep.per_shard[0].requests, 3u);
  EXPECT_EQ(rep.per_shard[1].requests, 3u);
}

TEST(Router, DuplicateNameThrowsAndUnloadInvalidatesHandle) {
  RouterFixture fx;
  Router router(fx.ropt);
  const Netlist nl = small_grid(2);
  RoutedHandle h = router.load("grid", nl, {});
  EXPECT_THROW(router.load("grid", nl, {}), Error);

  EXPECT_TRUE(h.loaded());
  EXPECT_TRUE(router.unload(h));
  EXPECT_FALSE(h.loaded());
  EXPECT_FALSE(router.unload(h));  // second unload: clean false
  EXPECT_EQ(router.replicas(h), 0u);

  std::future<std::vector<bool>> fut;
  const SubmitStatus st =
      router.try_submit(h, std::vector<bool>(nl.num_inputs()), &fut);
  EXPECT_EQ(st, SubmitStatus::kUnloaded);
  EXPECT_FALSE(fut.valid());
  EXPECT_THROW(router.submit(h, std::vector<bool>(nl.num_inputs())), Error);
}

// ---------------------------------------------------------------------------
// Rebalancer: shed-driven growth, idle retirement
// ---------------------------------------------------------------------------

TEST(Router, SustainedShedsGrowReplicasThenIdleRetires) {
  RouterFixture fx(/*rebalance_interval=*/1s, /*initial_replicas=*/1);
  fx.ropt.retire_idle_ticks = 2;
  Router router(fx.ropt);
  const Netlist nl = small_grid(3);
  RoutedHandle h = router.load("grid", nl);
  ASSERT_EQ(router.replica_shards(h), (std::vector<std::size_t>{0}));

  // Teach shard 0's EWMA exactly 1000 us: one full 16-lane batch whose single
  // member run advances the ManualClock 1 ms (one worker, so the measured
  // duration is exactly the advance).
  TeachingHook hook;
  hook.clock = &fx.clock;
  router.shard(0).set_member_hook(std::ref(hook));
  std::vector<std::future<std::vector<bool>>> warm;
  std::vector<bool> bits(nl.num_inputs(), true);
  for (std::size_t i = 0; i < kLanes; ++i) warm.push_back(router.submit(h, bits));
  for (auto& f : warm) f.get();
  hook.teaching.store(false, std::memory_order_release);
  ASSERT_EQ(hook.runs.load(), 1);

  // Five refused requests: the drain estimate (1000 us) already exceeds a
  // 500 us deadline, so admission sheds each one — and the fleet counts
  // EXACTLY five sheds (single replica, no loser retry to double-count).
  for (int i = 0; i < 5; ++i) {
    std::future<std::vector<bool>> fut;
    const SubmitStatus st =
        router.try_submit(h, bits, &fut, fx.clock.now() + 500us);
    EXPECT_EQ(st, SubmitStatus::kDeadlineUnmeetable);
    EXPECT_FALSE(fut.valid());
  }
  EXPECT_EQ(router.report().total.shed, 5u);

  // Tick 1: the window saw 5 sheds out of 21 offered (>= add_shed_fraction)
  // -> a replica appears on the other shard within the tick.
  fx.clock.advance(1s);
  router.wait_for_ticks(1);
  EXPECT_EQ(router.replicas(h), 2u);
  EXPECT_EQ(router.replica_shards(h), (std::vector<std::size_t>{0, 1}));

  // Ticks 2 and 3 see zero traffic: after retire_idle_ticks (2) consecutive
  // fitting windows the set shrinks back. The victim is the COLD replica —
  // shard 1 probes (drain 0) below warm shard 0 (EWMA 1000 us) — so scaling
  // down never throws away the service signal.
  fx.clock.advance(1s);
  router.wait_for_ticks(2);
  EXPECT_EQ(router.replicas(h), 2u);  // fit_ticks = 1, not yet
  fx.clock.advance(1s);
  router.wait_for_ticks(3);
  EXPECT_EQ(router.replicas(h), 1u);
  EXPECT_EQ(router.replica_shards(h), (std::vector<std::size_t>{0}));

  // One replica is the floor: further idle ticks never retire below it.
  fx.clock.advance(1s);
  router.wait_for_ticks(4);
  EXPECT_EQ(router.replicas(h), 1u);

  router.shard(0).set_member_hook(nullptr);
  const FleetReport rep = router.report();
  EXPECT_EQ(rep.total.requests, kLanes);
  EXPECT_EQ(rep.total.shed, 5u);
  EXPECT_EQ(rep.total.expired, 0u);
}

// A shard's Engine::reset_stats() between two ticks restarts its counters
// below the rebalancer's last reading: the window then counts everything
// since the reset instead of reading 0. Each reset below would otherwise
// flip the decision — hiding 16 completions makes 2 sheds look like
// shedding, and hiding 1 shed (the counter fell from 2 to 1) misses a real
// add signal.
TEST(Router, RebalancerWindowSpansShardReset) {
  RouterFixture fx(/*rebalance_interval=*/1s, /*initial_replicas=*/1);
  fx.ropt.add_shed_fraction = 0.5;
  Router router(fx.ropt);
  const Netlist nl = small_grid(7);
  RoutedHandle h = router.load("grid", nl);
  const std::vector<bool> bits(nl.num_inputs(), true);
  const auto serve_batch = [&] {
    std::vector<std::future<std::vector<bool>>> futs;
    for (std::size_t i = 0; i < kLanes; ++i) futs.push_back(router.submit(h, bits));
    for (auto& f : futs) f.get();
  };
  const auto shed = [&](int n) {
    for (int i = 0; i < n; ++i) {
      std::future<std::vector<bool>> fut;
      ASSERT_EQ(router.try_submit(h, bits, &fut, fx.clock.now() + 500us),
                SubmitStatus::kDeadlineUnmeetable);
    }
  };
  // Teach shard 0 a 1000 us service EWMA, so a 500 us deadline sheds.
  TeachingHook hook;
  hook.clock = &fx.clock;
  router.shard(0).set_member_hook(std::ref(hook));
  serve_batch();
  hook.teaching.store(false, std::memory_order_release);
  serve_batch();

  fx.clock.advance(1s);  // window 1: 32 completed, no sheds
  router.wait_for_ticks(1);
  EXPECT_EQ(router.replicas(h), 1u);

  router.shard(0).reset_stats();
  serve_batch();
  shed(2);
  fx.clock.advance(1s);  // window 2: 16 completed (counter 32 -> 16), 2 shed
  router.wait_for_ticks(2);
  EXPECT_EQ(router.replicas(h), 1u);  // 2 of 18 is below the add fraction

  router.shard(0).reset_stats();
  shed(1);
  fx.clock.advance(1s);  // window 3: 1 shed (counter 2 -> 1), nothing done
  router.wait_for_ticks(3);
  EXPECT_EQ(router.replicas(h), 2u);
  router.shard(0).set_member_hook(nullptr);
}

// The first deadline is one interval after construction, not after the
// rebalancer thread first runs: an advance that lands before the thread
// reads the clock must still yield its tick. The start hook plays a thread
// scheduled late by advancing the clock one interval before the loop starts;
// a cadence started from the thread's own clock reading would wait for a
// second interval and this test would never return.
TEST(Router, FirstTickDeadlineStartsAtConstruction) {
  RouterFixture fx(/*rebalance_interval=*/1s);
  ManualClock* clock = &fx.clock;
  fx.ropt.rebalancer_start_hook = [clock] { clock->advance(1s); };
  Router router(fx.ropt);
  router.wait_for_ticks(1);
  EXPECT_EQ(router.rebalance_ticks(), 1u);
}

// ---------------------------------------------------------------------------
// Retirement drains — nothing accepted is ever dropped
// ---------------------------------------------------------------------------

TEST(Router, SetReplicasRetireDrainsParkedRequests) {
  RouterFixture fx;
  Router router(fx.ropt);
  const Netlist nl = small_grid(4);
  RoutedHandle h = router.load("grid", nl);

  // Five parked requests alternate 0,1,0,1,0 (cold-fleet tie-break): shard 0
  // holds submissions {0,2,4}, shard 1 holds {1,3}. None seal (16 lanes).
  std::vector<std::future<std::vector<bool>>> futs;
  std::vector<bool> bits(nl.num_inputs());
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (i % 3) == 0;
  for (int i = 0; i < 5; ++i) futs.push_back(router.submit(h, bits));
  ASSERT_EQ(router.shard(0).in_flight(), 3u);
  ASSERT_EQ(router.shard(1).in_flight(), 2u);

  // Scale down: the least-loaded replica (shard 1, 2 outstanding) leaves the
  // routing set first, THEN drains — both its parked futures resolve before
  // set_replicas returns, and nothing is dropped.
  router.set_replicas(h, 1);
  EXPECT_EQ(router.replica_shards(h), (std::vector<std::size_t>{0}));
  const std::vector<bool> want = simulate_scalar(nl, bits);
  for (int i : {1, 3}) {
    ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready)
        << "retired replica dropped parked request " << i;
    EXPECT_EQ(futs[i].get(), want);
  }
  EXPECT_EQ(futs[0].wait_for(0s), std::future_status::timeout);

  // New traffic routes only to the survivor. (shard(1).in_flight() is NOT
  // asserted zero here: the engine-wide counter is released after the unload
  // wait can already be satisfied, so it may transiently read stale.)
  futs.push_back(router.submit(h, bits));
  EXPECT_EQ(router.shard(0).in_flight(), 4u);

  router.drain();
  for (int i : {0, 2, 4, 5}) {
    ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready);
    EXPECT_EQ(futs[i].get(), want);
  }
  const FleetReport rep = router.report();
  EXPECT_EQ(rep.total.requests, 6u);
  EXPECT_EQ(rep.total.shed, 0u);
  EXPECT_EQ(rep.total.expired, 0u);
  // The retired shard saw exactly its two pre-retire requests; everything
  // after the scale-down (including the post-retire submit) ran on shard 0.
  EXPECT_EQ(rep.per_shard[0].requests, 4u);
  EXPECT_EQ(rep.per_shard[1].requests, 2u);

  // Scale back up: the replica returns to the vacated shard.
  router.set_replicas(h, 2);
  EXPECT_EQ(router.replica_shards(h), (std::vector<std::size_t>{0, 1}));
}

// ---------------------------------------------------------------------------
// Fleet books close across shed + expired + completed
// ---------------------------------------------------------------------------

TEST(Router, FleetBooksCloseAcrossShedExpiredCompleted) {
  RouterFixture fx;
  Router router(fx.ropt);
  const Netlist nl = small_grid(5);
  RoutedHandle h = router.load("grid", nl);

  // Teach BOTH shards a service signal: 32 alternating submissions fill one
  // 16-lane batch per shard. The gate parks both workers after dispatch so
  // neither batch completes mid-stream (which would break the alternation
  // invariant), then releases them together; each member run advances the
  // clock 1 ms, so both EWMAs land in [1000, 2000] us — any value > 500 us
  // is enough for the shed phase below.
  TeachingHook hook;
  hook.clock = &fx.clock;
  hook.gate.arm();
  router.shard(0).set_member_hook(std::ref(hook));
  router.shard(1).set_member_hook(std::ref(hook));

  std::vector<std::future<std::vector<bool>>> futs;
  std::vector<bool> bits(nl.num_inputs(), true);
  for (std::size_t i = 0; i < 2 * kLanes; ++i) {
    futs.push_back(router.submit(h, bits));
  }
  hook.gate.await_arrivals(2);  // both shards sealed and dispatched
  hook.gate.release();
  for (auto& f : futs) f.get();
  hook.teaching.store(false, std::memory_order_release);
  ASSERT_EQ(hook.runs.load(), 2);

  // Shed phase: both drain estimates exceed 500 us, so the p2c winner refuses
  // and the loser is NEVER retried on kDeadlineUnmeetable — exactly one shed
  // per refused request, or the fleet books below would not close.
  const std::uint64_t kShed = 4;
  for (std::uint64_t i = 0; i < kShed; ++i) {
    std::future<std::vector<bool>> fut;
    EXPECT_EQ(router.try_submit(h, bits, &fut, fx.clock.now() + 500us),
              SubmitStatus::kDeadlineUnmeetable);
  }

  // Expiry phase: three requests with a comfortable 10 ms deadline are
  // admitted and parked; advancing past the deadline before the batches seal
  // expires them at dequeue (futures fail, expired counters bump).
  std::vector<std::future<std::vector<bool>>> doomed;
  for (int i = 0; i < 3; ++i) {
    std::future<std::vector<bool>> fut;
    ASSERT_EQ(router.try_submit(h, bits, &fut, fx.clock.now() + 10ms),
              SubmitStatus::kAccepted);
    doomed.push_back(std::move(fut));
  }
  fx.clock.advance(20ms);
  router.drain();
  for (auto& f : doomed) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_THROW(f.get(), DeadlineExceeded);
  }

  // The fleet ledger: accepted == requests + expired, sheds counted once,
  // and every total is exactly the sum of its per-shard rows.
  const std::uint64_t accepted = 2 * kLanes + 3;
  const FleetReport rep = router.report();
  EXPECT_EQ(rep.total.requests + rep.total.expired, accepted);
  EXPECT_EQ(rep.total.requests, 2 * kLanes);
  EXPECT_EQ(rep.total.expired, 3u);
  EXPECT_EQ(rep.total.shed, kShed);
  ASSERT_EQ(rep.per_shard.size(), 2u);
  EXPECT_EQ(rep.per_shard[0].requests + rep.per_shard[1].requests,
            rep.total.requests);
  EXPECT_EQ(rep.per_shard[0].shed + rep.per_shard[1].shed, rep.total.shed);
  EXPECT_EQ(rep.per_shard[0].expired + rep.per_shard[1].expired,
            rep.total.expired);
  // The replicated model reads as ONE merged row in the fleet total.
  ASSERT_EQ(rep.total.per_model.size(), 1u);
  EXPECT_EQ(rep.total.per_model[0].name, "grid");
  EXPECT_EQ(rep.total.per_model[0].requests, rep.total.requests);

  // Shard labels land on the exposition: one HELP block per metric, one
  // sample per shard.
  const std::string prom = router.metrics_prometheus();
  EXPECT_NE(prom.find("lbnn_requests_total{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(prom.find("lbnn_requests_total{shard=\"1\"}"), std::string::npos);
  EXPECT_NE(prom.find("model=\"grid\",shard=\"1\""), std::string::npos);

  router.shard(0).set_member_hook(nullptr);
  router.shard(1).set_member_hook(nullptr);
}

// The fleet report is the per-shard records merged, not a field-by-field
// approximation: every counter in `total` (each backend column too) and in
// the merged per-model row is the sum over shards, and the fleet p99 is the
// p99 of the merged histogram buckets. One shard serves 100 fast batches and
// the other one slow batch, so the worst shard's p99 sits far above the
// fleet's.
TEST(Router, FleetTotalsAreMergedShardRecords) {
  RouterFixture fx;
  Router router(fx.ropt);
  const Netlist nl = small_grid(6);
  const std::vector<bool> bits(nl.num_inputs(), true);
  // Load the same name straight onto each shard, so the test alone decides
  // which shard serves what; the fleet merges rows by name all the same.
  const auto serve = [&](std::size_t shard, int batches,
                         std::chrono::microseconds service) {
    runtime::Engine& engine = router.shard(shard);
    const runtime::ModelHandle h = engine.load("m", nl);
    engine.set_member_hook([&fx, service](const std::string&, std::size_t) {
      fx.clock.advance(service);
    });
    for (int b = 0; b < batches; ++b) {
      std::vector<std::future<std::vector<bool>>> futs;
      for (std::size_t i = 0; i < kLanes; ++i) futs.push_back(engine.submit(h, bits));
      for (auto& f : futs) (void)f.get();
    }
    engine.set_member_hook(nullptr);
  };
  serve(0, 100, 10us);
  serve(1, 1, 1ms);

  const FleetReport rep = router.report();
  ASSERT_EQ(rep.per_shard.size(), 2u);
  ASSERT_EQ(rep.total.per_model.size(), 1u);
  const runtime::ModelReport& row = rep.total.per_model[0];
  EXPECT_EQ(row.name, "m");
  using S = runtime::StatsSummary;
  const std::pair<const char*, std::uint64_t S::*> counters[] = {
      {"requests", &S::requests},
      {"batches", &S::batches},
      {"samples", &S::samples},
      {"lanes_offered", &S::lanes_offered},
      {"shed", &S::shed},
      {"expired", &S::expired},
      {"failed", &S::failed},
      {"deadline_met", &S::deadline_met},
      {"member_runs", &S::member_runs},
      {"steals", &S::steals},
  };
  for (const auto& [name, field] : counters) {
    const std::uint64_t sum = rep.per_shard[0].*field + rep.per_shard[1].*field;
    EXPECT_EQ(rep.total.*field, sum) << name;
    EXPECT_EQ(row.*field, sum) << "per_model " << name;
  }
  std::uint64_t by_backend = 0;
  for (std::size_t b = 0; b < kNumBackendKinds; ++b) {
    const std::uint64_t sum = rep.per_shard[0].member_runs_by_backend[b] +
                              rep.per_shard[1].member_runs_by_backend[b];
    EXPECT_EQ(rep.total.member_runs_by_backend[b], sum) << "backend " << b;
    EXPECT_EQ(row.member_runs_by_backend[b], sum) << "per_model backend " << b;
    by_backend += sum;
  }
  EXPECT_EQ(rep.total.member_runs, 101u);
  EXPECT_EQ(by_backend, rep.total.member_runs);
  EXPECT_EQ(rep.total.sim.wavefronts,
            rep.per_shard[0].sim.wavefronts + rep.per_shard[1].sim.wavefronts);
  EXPECT_EQ(row.sim.lpe_computes, rep.per_shard[0].sim.lpe_computes +
                                      rep.per_shard[1].sim.lpe_computes);

  // Percentiles: the merged buckets', which no shard's p99 equals here.
  runtime::LatencyHistogram merged;
  for (std::size_t i = 0; i < router.num_shards(); ++i) {
    for (const runtime::ModelRecord& r : router.shard(i).stats_snapshot().rows) {
      merged.merge(r.stats.latency);
    }
  }
  EXPECT_EQ(merged.count(), 101 * kLanes);
  EXPECT_EQ(rep.per_shard[0].p99_latency_us, 10u);
  EXPECT_EQ(rep.per_shard[1].p99_latency_us, 1023u);  // [992, 1024)
  EXPECT_EQ(rep.total.p99_latency_us, merged.percentile_us(99.0));
  EXPECT_EQ(rep.total.p99_latency_us, 10u);
  EXPECT_EQ(row.p99_latency_us, 10u);
  EXPECT_EQ(rep.total.p50_latency_us, merged.percentile_us(50.0));
}

// ---------------------------------------------------------------------------
// try_submit retry vs a concurrently retired replica
// ---------------------------------------------------------------------------

// The retry after a refused first attempt must target the CURRENT replica
// set, not the loser sampled before the attempt: a set_replicas (or alias
// flip) can retire the sampled loser in between. The route hook lands the
// retire deterministically inside that window. Pre-fix, the stale loser
// surfaced kUnloaded for a model that is still very much loaded; the
// re-sampling retry reports the survivor's honest kQueueFull. A shed probe
// then pins that a refusal still costs exactly one fleet shed — the retire
// path never double-counts.
TEST(Router, TrySubmitRetryResamplesCurrentReplicaSet) {
  RouterFixture fx;
  Router router(fx.ropt);
  const Netlist nl = small_grid(7);
  runtime::ModelOptions mopt;
  mopt.queue_bound = 4;
  RoutedHandle h = router.load("grid", nl, mopt);
  ASSERT_EQ(router.replicas(h), 2u);

  // Fill both replicas to their bound: 8 submissions alternate shards
  // (cold-fleet tie-break), 4 parked on each, nothing seals (16 lanes).
  std::vector<std::future<std::vector<bool>>> parked;
  std::vector<bool> bits(nl.num_inputs(), true);
  for (int i = 0; i < 8; ++i) parked.push_back(router.submit(h, bits));
  ASSERT_EQ(router.shard(0).in_flight(), 4u);
  ASSERT_EQ(router.shard(1).in_flight(), 4u);

  // Inside the sampling->attempt window, retire shard 1's replica. Its four
  // parked futures drain out during set_replicas — nothing is dropped.
  bool shrink = true;
  router.set_route_hook([&] {
    if (shrink) {
      shrink = false;
      router.set_replicas(h, 1);
    }
  });
  std::future<std::vector<bool>> fut;
  const SubmitStatus st = router.try_submit(h, bits, &fut);
  router.set_route_hook(nullptr);
  // Both candidates were sampled pre-retire (winner: shard 0 by tie-break).
  // The first attempt hits shard 0's bound; the retry re-samples and finds
  // only shard 0 again — kQueueFull, not the stale loser's kUnloaded.
  EXPECT_EQ(st, SubmitStatus::kQueueFull);
  EXPECT_FALSE(fut.valid());
  EXPECT_EQ(router.replica_shards(h), (std::vector<std::size_t>{0}));

  router.drain();
  const std::vector<bool> want = simulate_scalar(nl, bits);
  for (auto& f : parked) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(f.get(), want);
  }

  // Exactly one shed per refusal across the survivor: teach shard 0 a
  // service signal, then refuse one doomed deadline.
  TeachingHook hook;
  hook.clock = &fx.clock;
  router.shard(0).set_member_hook(std::ref(hook));
  std::vector<std::future<std::vector<bool>>> warm;
  for (int i = 0; i < 4; ++i) warm.push_back(router.submit(h, bits));
  router.drain();  // seals the partial batch (the bound is below lane-fill)
  for (auto& f : warm) f.get();
  hook.teaching.store(false, std::memory_order_release);

  const FleetReport before = router.report();
  std::future<std::vector<bool>> doomed;
  EXPECT_EQ(router.try_submit(h, bits, &doomed, fx.clock.now() + 1us),
            SubmitStatus::kDeadlineUnmeetable);
  const FleetReport after = router.report();
  EXPECT_EQ(after.total.shed, before.total.shed + 1);  // once, not per attempt
  EXPECT_EQ(after.total.requests, before.total.requests);
  router.shard(0).set_member_hook(nullptr);
}

// The fleet trace multiplexes every shard into one Chrome trace, one process
// per shard. (CI also runs this whole file with LBNN_FORCE_TRACING=1; here
// tracing is on explicitly so the test asserts unconditionally.)
TEST(Router, FleetTraceRendersOneProcessPerShard) {
  RouterFixture fx;
  fx.ropt.engine.tracing = true;
  Router router(fx.ropt);
  const Netlist nl = small_grid(6);
  RoutedHandle h = router.load("grid", nl);
  std::vector<bool> bits(nl.num_inputs(), true);
  std::vector<std::future<std::vector<bool>>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(router.submit(h, bits));
  router.drain();
  for (auto& f : futs) f.get();

  std::ostringstream os;
  router.export_trace(os);
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"shard 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"shard 1\""), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(trace.find("\"droppedEvents\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared bench Zipf generator (bench/bench_common.hpp)
// ---------------------------------------------------------------------------

// The bench workload generator is part of the perf-trajectory contract: every
// serve_* bench must draw the same model-popularity stream on every platform,
// or cross-machine BENCH_*.json comparisons measure the workload, not the
// engine. lbnn::Rng is platform-stable, so this whole test is deterministic —
// the tolerances below guard the math, not the sampling noise.
TEST(ZipfPicker, MatchesTheoreticalShape) {
  const std::size_t kN = 8;
  const bench::ZipfPicker zipf(kN, 1.0);
  ASSERT_EQ(zipf.size(), kN);

  double total = 0.0;
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_GT(zipf.probability(k), 0.0);
    if (k > 0) EXPECT_LT(zipf.probability(k), zipf.probability(k - 1));
    total += zipf.probability(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // s = 1: P(k) proportional to 1/(k+1), so P(0) = 2*P(1) = 8*P(7).
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(1), 2.0, 1e-9);
  EXPECT_NEAR(zipf.probability(0) / zipf.probability(7), 8.0, 1e-9);

  Rng rng(42);
  const int kDraws = 100000;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.pick(rng)];
  for (std::size_t k = 0; k < kN; ++k) {
    const double emp = static_cast<double>(counts[k]) / kDraws;
    EXPECT_NEAR(emp, zipf.probability(k), 0.01)
        << "index " << k << " empirical " << emp;
    if (k > 0) {
      EXPECT_LT(counts[k], counts[k - 1])
          << "popularity must decay monotonically";
    }
  }
}

TEST(ZipfPicker, UniformWhenExponentZero) {
  const bench::ZipfPicker zipf(4, 0.0);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(zipf.probability(k), 0.25, 1e-9);
  }
}

}  // namespace
}  // namespace lbnn::router
