// Speculative straggler hedging, proven correct under a deterministic
// ManualClock: every scenario below forces (or forbids) the hedge trigger
// exactly by advancing manual time, gates the racing copies through the
// member hook, and then audits the three promises the feature makes:
//
//   1. exactly-once resolution — whichever copy wins the member's result
//      claim, every accepted future resolves exactly once (a value or a
//      DeadlineExceeded), never twice, never not at all;
//   2. bit-exactness — the winning copy's outputs equal the single-execution
//      oracle (simulate_scalar), original winner or duplicate winner alike;
//   3. closed books — accepted == completed + shed + expired on the report,
//      and the hedge ledger (hedges_launched / hedge_wins / hedge_wasted_us)
//      matches the forced schedule.
//
// The hedge trigger reads the injected ClockSource, so each test drives it
// with zero real sleeps: advance() past started_at + hedge_factor x EWMA
// forces the duplicate, standing still forbids it. The whole file is in the
// CI TSan job's test set — the claim state machine must be race-clean, not
// just race-tolerant.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "runtime/clock.hpp"
#include "runtime/engine.hpp"

namespace lbnn::runtime {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kLanes = 16;  // m = 8 -> 16-lane datapath words

CompileOptions small_lpu() {
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  return opt;
}

Netlist wide_dag(std::uint64_t seed) {
  Rng gen(seed);
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = 80;
  spec.num_outputs = 6;  // enough POs to split across 4 assembly members
  return random_dag(spec, gen);
}

/// Reusable one-shot barrier for pinning executors inside the member hook.
/// arm() before the run, wait_here() from the hook (records the arrival so
/// the test can rendezvous on it), release() from the test.
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
    ++departures_;
    cv_.notify_all();
  }
  /// Block (real cv wait, no polling) until `n` executors are parked or have
  /// passed through since construction.
  void await_arrivals(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return arrivals_ >= n; });
  }
  /// Block until `n` executors have passed THROUGH the gate. Re-arming a
  /// released gate before a parked loser has left would trap it for another
  /// round — multi-round tests rendezvous here first.
  void await_departures(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return departures_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = false;
  int arrivals_ = 0;
  int departures_ = 0;
};

/// The scripted hook driving every scenario. Phases:
///   kWarmup  — advance the ManualClock 1 ms per member run, teaching the
///              admission/hedge EWMA exactly 1000 us;
///   kScript  — originals of `gated_member` park on gate_original, hedge
///              duplicates park on gate_hedge (when armed); everything else
///              passes through untouched.
struct HookScript {
  enum Phase { kWarmup, kScript };
  ManualClock* clock = nullptr;
  std::atomic<int> phase{kWarmup};
  std::atomic<int> gated_member{-1};  ///< -1: gate every member's original
  std::atomic<bool> gate_duplicates{false};
  Gate gate_original;
  Gate gate_hedge;

  void operator()(const std::string&, std::size_t member, bool hedge) {
    if (phase.load() == kWarmup) {
      clock->advance(1ms);
      return;
    }
    if (hedge) {
      if (gate_duplicates.load()) gate_hedge.wait_here();
      return;
    }
    const int gated = gated_member.load();
    if (gated < 0 || static_cast<int>(member) == gated) {
      gate_original.wait_here();
    }
  }
};

/// Asserts the report's request books close: everything admitted was
/// answered exactly once, as a completion, a shed, or an expiry.
void expect_books_close(const ServeReport& rep, std::uint64_t accepted) {
  EXPECT_EQ(rep.requests + rep.shed + rep.expired, accepted);
}

class HedgingTest : public ::testing::Test {
 protected:
  /// Builds a hedging engine over `members`-way "dag" with the scripted
  /// hook installed and the EWMA pre-taught via one warmup batch (1 ms of
  /// manual time per member run => EWMA in [1 ms, members ms] — exactly
  /// 1 ms for a single-member model). hedge_factor 8 makes the warmup
  /// provably hedge-proof: at most `members` (<= 4) advances of 1 ms can
  /// land after any warmup member starts, while its trigger sits at
  /// >= 8 x 1 ms — so no advance schedule, however the workers interleave
  /// in real time (TSan!), reaches it. Tests then force the hedge by
  /// advancing past 8 x the worst-case EWMA in one deliberate step.
  void start(std::uint32_t workers, std::uint32_t members,
             bool hedging = true) {
    nl_ = wide_dag(500 + members);
    expect_ = simulate_scalar(nl_, std::vector<bool>(nl_.num_inputs(), true));
    EngineOptions eopt;
    eopt.num_workers = workers;
    eopt.compile = small_lpu();
    eopt.batch_timeout = std::chrono::hours(1);  // only lane-full seals
    eopt.clock = &clock_;
    eopt.hedging = hedging;
    eopt.hedge_factor = 8;
    engine_ = std::make_unique<Engine>(eopt);
    script_.clock = &clock_;
    engine_->set_member_hook(
        [this](const std::string& n, std::size_t m, bool h) {
          script_(n, m, h);
        });
    ModelOptions mopt;
    mopt.queue_bound = 64;
    dag_ = members > 1 ? engine_->load_parallel("dag", nl_, members, mopt)
                       : engine_->load("dag", nl_, mopt);

    // Warmup: one full batch teaches the EWMA 1000 us per member run.
    std::vector<std::future<std::vector<bool>>> warm;
    for (std::size_t i = 0; i < kLanes; ++i) warm.push_back(submit_one());
    engine_->drain();
    for (auto& f : warm) EXPECT_EQ(f.get(), expect_);
    EXPECT_EQ(engine_->report().hedges_launched, 0u);  // never during warmup
    accepted_ = kLanes;
    script_.phase.store(HookScript::kScript);
  }

  std::future<std::vector<bool>> submit_one(TimePoint deadline = kNoDeadline) {
    return engine_->submit(dag_, std::vector<bool>(nl_.num_inputs(), true),
                           deadline);
  }

  /// Seals one lane-full batch (16 submits; the 16th seals inline) whose
  /// futures the caller audits. Counts toward accepted_.
  std::vector<std::future<std::vector<bool>>> submit_batch() {
    std::vector<std::future<std::vector<bool>>> futs;
    for (std::size_t i = 0; i < kLanes; ++i) futs.push_back(submit_one());
    accepted_ += kLanes;
    return futs;
  }

  /// Releases any parked executors and tears the engine down so losing
  /// copies finish before the report audit (shutdown joins all workers).
  void settle() {
    script_.gate_original.release();
    script_.gate_hedge.release();
    engine_->shutdown();
  }

  ManualClock clock_;
  HookScript script_;
  Netlist nl_;
  std::vector<bool> expect_;
  std::unique_ptr<Engine> engine_;
  ModelHandle dag_;
  std::uint64_t accepted_ = 0;
};

// Forced hedge, duplicate wins: the only member's original parks in the
// hook; advancing past the 8 ms trigger launches the duplicate, which runs
// to completion and claims the result while the original is still pinned.
// The futures resolve bit-exactly BEFORE the original ever resumes.
TEST_F(HedgingTest, DuplicateWinsWhileOriginalStalls) {
  start(/*workers=*/2, /*members=*/1);
  script_.gate_original.arm();

  auto futs = submit_batch();
  // The original is parked inside its hook — its claim state is published,
  // so the idle worker can time the trigger.
  script_.gate_original.await_arrivals(1);
  clock_.advance(9ms);  // past started_at + 8 x 1000 us: forces the hedge

  // The duplicate (not gated) wins the claim and finalizes the batch; these
  // get() calls return while the original is still parked.
  for (auto& f : futs) EXPECT_EQ(f.get(), expect_);

  ServeReport rep = engine_->report();
  EXPECT_EQ(rep.hedges_launched, 1u);
  EXPECT_EQ(rep.hedge_wins, 1u);
  EXPECT_EQ(rep.requests, accepted_);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].hedges_launched, 1u);
  EXPECT_EQ(rep.per_model[0].hedge_wins, 1u);

  // Release the loser; shutdown joins it, so the waste it burned (>= the
  // 9 ms of manual time that passed while it was parked) is on the books.
  settle();
  rep = engine_->report();
  expect_books_close(rep, accepted_);
  EXPECT_EQ(rep.expired, 0u);
  EXPECT_GE(rep.hedge_wasted_us, 9000u);
  // A hedged member resolves once: warmup's 1 member_run + this batch's 1.
  EXPECT_EQ(rep.member_runs, 2u);
}

// Forced hedge, original wins: the duplicate is gated instead. Once the
// hedge is provably launched (ledger says so before its hook runs), the
// original is released, finishes, and claims the result; the duplicate
// loses and is discarded.
TEST_F(HedgingTest, OriginalWinsWhileDuplicateStalls) {
  start(/*workers=*/2, /*members=*/1);
  script_.gate_original.arm();
  script_.gate_hedge.arm();
  script_.gate_duplicates.store(true);

  auto futs = submit_batch();
  script_.gate_original.await_arrivals(1);
  clock_.advance(9ms);
  // The duplicate parks in ITS hook — the launch is now a fact.
  script_.gate_hedge.await_arrivals(1);
  EXPECT_EQ(engine_->report().hedges_launched, 1u);
  EXPECT_EQ(engine_->report().requests, kLanes);  // warmup only; batch pending

  script_.gate_original.release();  // original finishes first and wins
  for (auto& f : futs) EXPECT_EQ(f.get(), expect_);

  ServeReport rep = engine_->report();
  EXPECT_EQ(rep.hedges_launched, 1u);
  EXPECT_EQ(rep.hedge_wins, 0u);  // the original kept its member

  settle();  // frees the duplicate; it loses the claim and records waste
  rep = engine_->report();
  expect_books_close(rep, accepted_);
  EXPECT_EQ(rep.hedge_wins, 0u);
  EXPECT_EQ(rep.member_runs, 2u);
}

// Both copies released at once race the claim CAS directly. Whoever wins,
// the futures resolve exactly once and bit-exactly, and the ledger stays
// coherent (1 launch, 0 or 1 win). Repeated a few rounds so both outcomes
// get real chances under TSan.
TEST_F(HedgingTest, ConcurrentFinishResolvesExactlyOnce) {
  start(/*workers=*/2, /*members=*/1);
  for (int round = 0; round < 8; ++round) {
    script_.gate_original.arm();
    script_.gate_hedge.arm();
    script_.gate_duplicates.store(true);

    auto futs = submit_batch();
    script_.gate_original.await_arrivals(round + 1);
    // The advance triples per round because an original-win round feeds
    // its parked time into the EWMA (it is the legitimate winner sample):
    // with EWMA_k <= 1000 x 3^k us, the round's advance of 8 x that bound
    // gives EWMA_{k+1} <= (3 + 8) / 4 x bound < 3 x bound — the induction
    // holds and every round's advance clears its trigger. Manual time is
    // free.
    std::uint64_t bound_us = 1000;
    for (int i = 0; i < round; ++i) bound_us *= 3;
    clock_.advance(std::chrono::microseconds(8 * bound_us));
    script_.gate_hedge.await_arrivals(round + 1);

    // Gate both at the claim point, then fire: the two copies run the
    // simulator back to back and race the kHedged -> kDone transition.
    script_.gate_original.release();
    script_.gate_hedge.release();
    for (auto& f : futs) EXPECT_EQ(f.get(), expect_);
    // The round's loser must be OUT of the gate before the next round arms
    // it again, or it would be trapped a second time and its worker would
    // never go idle to hedge the next batch.
    script_.gate_original.await_departures(round + 1);
    script_.gate_hedge.await_departures(round + 1);

    const ServeReport rep = engine_->report();
    EXPECT_EQ(rep.hedges_launched, static_cast<std::uint64_t>(round + 1));
    EXPECT_LE(rep.hedge_wins, rep.hedges_launched);
    EXPECT_EQ(rep.requests, accepted_);
  }
  settle();
  const ServeReport rep = engine_->report();
  expect_books_close(rep, accepted_);
  EXPECT_EQ(rep.member_runs, 9u);  // warmup + 8 rounds, one resolution each
  EXPECT_EQ(rep.hedges_launched, 8u);
}

// Hedge racing drain and unload: the duplicate completes the batch while
// the original is still parked, so drain() and then unload() both finish
// with a loser still in flight. The unloaded model's state must stay alive
// for the loser (it holds the batch), and a post-unload submit is cleanly
// rejected. Exactly-once resolution throughout.
TEST_F(HedgingTest, HedgeCompletesBatchAcrossDrainAndUnload) {
  start(/*workers=*/2, /*members=*/1);
  script_.gate_original.arm();

  auto futs = submit_batch();
  script_.gate_original.await_arrivals(1);
  clock_.advance(9ms);  // duplicate launches, wins, finalizes

  engine_->drain();  // returns: every accepted request is answered
  for (auto& f : futs) EXPECT_EQ(f.get(), expect_);

  // Unload while the losing original is STILL parked in its hook: the drain
  // inside unload has nothing left to wait for, and the loser's keep-alive
  // (BatchWork's model shared_ptr) outlives the registry entry.
  EXPECT_TRUE(engine_->unload(dag_));
  EXPECT_FALSE(dag_.loaded());
  std::future<std::vector<bool>> rejected;
  EXPECT_EQ(engine_->try_submit(dag_, std::vector<bool>(nl_.num_inputs()),
                                &rejected),
            SubmitStatus::kUnloaded);

  settle();
  const ServeReport rep = engine_->report();
  expect_books_close(rep, accepted_);
  EXPECT_EQ(rep.hedges_launched, 1u);
  EXPECT_EQ(rep.hedge_wins, 1u);
  // The loser returned after the unload folded the model's record into the
  // retired row: its waste (the 9 ms it sat parked) still lands there.
  EXPECT_GE(rep.hedge_wasted_us, 9000u);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].name, "(retired)");
  EXPECT_EQ(rep.per_model[0].hedge_wasted_us, rep.hedge_wasted_us);
}

// A 4-member batch that partially expires before dispatch AND hedges its
// last member: two requests are settled as expired at first claim, the live
// fourteen are served by members 0..3 — member 3's original parks, the
// duplicate wins it. Books close: accepted == completed + expired, every
// future resolves exactly once, member_runs counts each member once.
TEST_F(HedgingTest, HedgeOnPartiallyExpiredBatch) {
  start(/*workers=*/2, /*members=*/4);
  script_.gated_member.store(3);  // only member 3's original parks
  script_.gate_original.arm();

  // Two doomed requests, then the clock overtakes them while the batch is
  // still assembling; the final submit seals it lane-full. The 20 ms SLO is
  // wide enough to clear admission (the warmed EWMA estimates at most
  // 4 members x 4 ms best-case drain) yet still expires before dispatch.
  std::vector<std::future<std::vector<bool>>> doomed, live;
  const TimePoint slo = clock_.now() + 20ms;
  doomed.push_back(submit_one(slo));
  doomed.push_back(submit_one(slo));
  for (std::size_t i = 2; i < kLanes - 1; ++i) live.push_back(submit_one());
  clock_.advance(21ms);  // both deadlines pass pre-seal
  live.push_back(submit_one());  // 16th submit seals inline
  accepted_ += kLanes;

  // Members 0-2 run (split between the workers), member 3's original parks.
  // A sibling still mid-run when we advance absorbs the advance into its
  // timed region and feeds it to the EWMA — the trigger then grows 8x
  // faster than `now`, so no single fixed advance is guaranteed to catch
  // it. Step instead: once members 0-2 have completed, the EWMA (and with
  // it the trigger) freezes, and the stepped advances must cross it. The
  // poll is pure progress observation — no wall-clock waits.
  script_.gate_original.await_arrivals(1);
  while (engine_->report().hedges_launched == 0) {
    clock_.advance(9ms);
    std::this_thread::yield();
  }

  for (auto& f : live) EXPECT_EQ(f.get(), expect_);
  for (auto& f : doomed) EXPECT_THROW(f.get(), DeadlineExceeded);

  settle();
  const ServeReport rep = engine_->report();
  expect_books_close(rep, accepted_);
  EXPECT_EQ(rep.expired, 2u);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.requests, accepted_ - 2);
  EXPECT_EQ(rep.hedges_launched, 1u);
  EXPECT_EQ(rep.hedge_wins, 1u);
  // 4 warmup members + 4 batch members, each resolved exactly once.
  EXPECT_EQ(rep.member_runs, 8u);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].expired, 2u);
  EXPECT_EQ(rep.per_model[0].hedge_wins, 1u);
}

// Cold start forbids hedging: with no EWMA signal (the hook adds no manual
// time, so sub-microsecond samples never feed it), no advance can force a
// duplicate — the trigger would be a guess, and the runtime refuses to
// guess. The parked original stays the only executor.
TEST(HedgingColdStart, NoSignalMeansNoHedge) {
  ManualClock clock;
  const Netlist nl = wide_dag(77);
  const auto expect =
      simulate_scalar(nl, std::vector<bool>(nl.num_inputs(), true));
  EngineOptions eopt;
  eopt.num_workers = 2;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  eopt.hedging = true;
  eopt.hedge_factor = 1;  // the most eager trigger there is
  Engine engine(eopt);
  const ModelHandle m = engine.load("cold", nl);

  Gate gate;
  gate.arm();
  engine.set_member_hook(
      [&](const std::string&, std::size_t, bool hedge) {
        ASSERT_FALSE(hedge) << "hedge launched with no service signal";
        gate.wait_here();
      });
  std::vector<std::future<std::vector<bool>>> futs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    futs.push_back(engine.submit(m, std::vector<bool>(nl.num_inputs(), true)));
  }
  gate.await_arrivals(1);
  clock.advance(1h);  // a whole hour of "straggling": still no estimate
  gate.release();
  for (auto& f : futs) EXPECT_EQ(f.get(), expect);
  engine.shutdown();

  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.hedges_launched, 0u);
  EXPECT_EQ(rep.hedge_wasted_us, 0u);
  EXPECT_EQ(rep.requests, kLanes);
}

// EngineOptions::hedging = false is the steal-only baseline: the identical
// forced-straggler schedule launches nothing.
TEST_F(HedgingTest, DisabledMeansNoDuplicates) {
  start(/*workers=*/2, /*members=*/1, /*hedging=*/false);
  script_.gate_original.arm();

  auto futs = submit_batch();
  script_.gate_original.await_arrivals(1);
  clock_.advance(1h);  // far past any trigger — and nothing may fire
  script_.gate_original.release();
  for (auto& f : futs) EXPECT_EQ(f.get(), expect_);

  settle();
  const ServeReport rep = engine_->report();
  expect_books_close(rep, accepted_);
  EXPECT_EQ(rep.hedges_launched, 0u);
  EXPECT_EQ(rep.hedge_wins, 0u);
  EXPECT_EQ(rep.hedge_wasted_us, 0u);
}

}  // namespace
}  // namespace lbnn::runtime
