// Randomized admission/lifecycle property test: a seeded interleaving of
// submit / try_submit / unload / evict_idle / drain across 4 models — one of
// them a 3-member parallel assembly, so batches are multi-member work and
// member claiming/stealing runs under churn — drives the engine through its
// whole admission surface, then asserts the three properties the serving API
// promises:
//
//   1. every accepted future resolves exactly once — to a value or an error,
//      never hanging, never left unresolved;
//   2. accepted-count bookkeeping closes: ServeReport::requests equals the
//      number of accepted requests (nothing double-counted or dropped), and
//      no shed/expired events occur when no deadlines are in play;
//   3. results are bit-exact against a direct LpuSimulator::run of the same
//      compiled program (the runtime adds batching/threading, never bits).
//
// The op stream is reproducible from its seed (lbnn::Rng is platform-stable);
// the worker/timer interleaving underneath varies, which is the point — the
// assertions must hold for all of them.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "router/router.hpp"
#include "runtime/engine.hpp"

namespace lbnn::runtime {
namespace {

constexpr int kModels = 4;
/// Model index served as a multi-member parallel LPU assembly: its batches
/// are 3 cooperative member work items each, so the fuzz exercises the
/// member cursor, idle-worker stealing, and member-granular accounting.
constexpr int kParallelModel = 3;
constexpr std::uint32_t kParallelMembers = 3;

CompileOptions small_lpu() {
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  return opt;  // word width 2m = 16 lanes
}

/// One issued-and-accepted request, held until the end-of-run audit.
struct PendingRequest {
  int model = 0;
  std::vector<bool> inputs;
  std::future<std::vector<bool>> future;
};

/// Reference oracle: the same program the engine serves, run directly on a
/// width-1 word per request.
std::vector<bool> direct_run(LpuSimulator& sim, const Netlist& nl,
                             const std::vector<bool>& bits) {
  std::vector<BitVec> inputs(nl.num_inputs(), BitVec(1));
  for (std::size_t pi = 0; pi < bits.size(); ++pi) {
    if (bits[pi]) inputs[pi].set(0, true);
  }
  const std::vector<BitVec> out = sim.run(inputs);
  std::vector<bool> result(out.size());
  for (std::size_t po = 0; po < out.size(); ++po) result[po] = out[po].get(0);
  return result;
}

/// `workers` sizes the engine: a third worker leaves idle hands to steal
/// members under the full lifecycle churn.
void run_fuzz_round(std::uint64_t seed, int num_ops, std::uint32_t workers = 2) {
  Rng circuits(900 + seed);
  std::vector<Netlist> nls;
  for (int i = 0; i < kModels; ++i) {
    if (i == kParallelModel) {
      // Enough POs to split across kParallelMembers assembly members.
      RandomCircuitSpec spec;
      spec.num_inputs = 10;
      spec.num_gates = 80;
      spec.num_outputs = 6;
      nls.push_back(random_dag(spec, circuits));
    } else {
      nls.push_back(reconvergent_grid(8, 4 + i, circuits));
    }
  }
  const CompileOptions copt = small_lpu();
  // Direct simulators over the identical compiled artifact (the program
  // cache fingerprints netlist + options, so these are the same programs the
  // engine's workers execute). The parallel model's oracle is the single-LPU
  // compile of the same netlist: a member-partitioned assembly must reproduce
  // the whole netlist's outputs bit-exactly however its members are claimed
  // or stolen.
  std::vector<CompileResult> compiled;
  std::vector<LpuSimulator> sims;
  compiled.reserve(kModels);
  for (int i = 0; i < kModels; ++i) compiled.push_back(compile(nls[i], copt));
  sims.reserve(kModels);
  for (int i = 0; i < kModels; ++i) sims.emplace_back(compiled[i].program);

  EngineOptions eopt;
  eopt.num_workers = workers;
  eopt.batch_timeout = std::chrono::microseconds(50);
  eopt.compile = copt;
  Engine engine(eopt);

  std::vector<ModelHandle> handles(kModels);
  std::vector<int> generation(kModels, 0);
  const auto ensure_loaded = [&](int i) {
    if (handles[i] && handles[i].loaded()) return;
    ModelOptions mopt;
    mopt.queue_bound = 48;
    mopt.weight = static_cast<std::uint32_t>(1 + i);
    const std::string name =
        "m" + std::to_string(i) + "-g" + std::to_string(++generation[i]);
    handles[i] = i == kParallelModel
                     ? engine.load_parallel(name, nls[i], kParallelMembers, mopt)
                     : engine.load(name, nls[i], mopt);
  };
  for (int i = 0; i < kModels; ++i) ensure_loaded(i);

  Rng rng(seed);
  std::vector<PendingRequest> pending;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;  // try_submit non-accepted + submit throws

  for (int op = 0; op < num_ops; ++op) {
    const int model = static_cast<int>(rng.next_below(kModels));
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 42) {
      // Blocking submit. May throw if the model lost a lifecycle race.
      ensure_loaded(model);
      std::vector<bool> bits(nls[model].num_inputs());
      for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
      try {
        auto fut = engine.submit(handles[model], bits);
        pending.push_back({model, std::move(bits), std::move(fut)});
        ++accepted;
      } catch (const Error&) {
        ++rejected;
      }
    } else if (dice < 84) {
      ensure_loaded(model);
      std::vector<bool> bits(nls[model].num_inputs());
      for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
      std::future<std::vector<bool>> fut;
      const SubmitStatus st = engine.try_submit(handles[model], bits, &fut);
      if (st == SubmitStatus::kAccepted) {
        pending.push_back({model, std::move(bits), std::move(fut)});
        ++accepted;
      } else {
        ++rejected;
        EXPECT_FALSE(fut.valid());  // rejection never hands out a future
      }
    } else if (dice < 90) {
      // unload() drains the model: its outstanding futures resolve before it
      // returns. A stale/empty handle is a clean false.
      engine.unload(handles[model]);
    } else if (dice < 94) {
      engine.evict_idle(std::chrono::seconds(0));
    } else if (dice < 97) {
      engine.drain();
    } else {
      // Stale-handle probe: submits against an unloaded generation must fail
      // cleanly (status/exception), never corrupt accounting.
      if (handles[model] && !handles[model].loaded()) {
        std::future<std::vector<bool>> fut;
        const SubmitStatus st = engine.try_submit(
            handles[model], std::vector<bool>(nls[model].num_inputs()), &fut);
        EXPECT_EQ(st, SubmitStatus::kUnloaded);
      }
    }
  }

  engine.drain();

  // Property 1: every accepted future is resolved after the final drain.
  // Property 3: each resolved value is bit-exact vs the direct simulator.
  std::uint64_t resolved = 0;
  for (auto& req : pending) {
    ASSERT_EQ(req.future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "accepted future left unresolved (seed " << seed << ")";
    try {
      const std::vector<bool> got = req.future.get();
      const std::vector<bool> want =
          direct_run(sims[req.model], nls[req.model], req.inputs);
      EXPECT_EQ(got, want) << "bit mismatch, model " << req.model << " seed "
                           << seed;
    } catch (const Error&) {
      // Acceptable resolution (e.g. batch failure) — but never a hang.
    }
    ++resolved;
  }
  EXPECT_EQ(resolved, accepted);

  // Property 2: accounting closes. Global stats outlive unloads, so every
  // accepted request is a completed request; nothing was shed or expired
  // (no deadlines in this stream) and completing deadline-less work always
  // counts as goodput.
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, accepted);
  EXPECT_EQ(rep.deadline_met, accepted);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.expired, 0u);
  // Every completed lane is a completed request: batch sample accounting
  // agrees with the request ledger.
  EXPECT_EQ(rep.samples, accepted);
  // Member-granular execution closes too: every batch ran every one of its
  // assembly members exactly once (a steal is an executed member, never an
  // extra one), so the global member ledger is bounded by batches x widest
  // assembly and at least one member per batch.
  EXPECT_GE(rep.member_runs, rep.batches);
  EXPECT_LE(rep.member_runs,
            rep.batches * static_cast<std::uint64_t>(kParallelMembers));
  EXPECT_LE(rep.steals, rep.member_runs);
  (void)rejected;
}

/// The same lifecycle-churn property test one layer up: a 2-shard Router
/// with p2c dispatch, replica scaling (set_replicas up/down mid-traffic),
/// scripted rebalancer ticks, and generation-named reloads. The promises are
/// the fleet-level versions of the engine round's: every accepted future
/// resolves bit-exactly, and the FLEET books close — total requests equal
/// accepted with zero shed/expired (no deadlines in play), per-shard rows
/// summing exactly to the total. Replica retires and unloads drain, so
/// lifecycle churn can never strand or drop an accepted request.
void run_router_fuzz_round(std::uint64_t seed, int num_ops) {
  Rng circuits(900 + seed);
  std::vector<Netlist> nls;
  for (int i = 0; i < kModels; ++i) {
    if (i == kParallelModel) {
      RandomCircuitSpec spec;
      spec.num_inputs = 10;
      spec.num_gates = 80;
      spec.num_outputs = 6;
      nls.push_back(random_dag(spec, circuits));
    } else {
      nls.push_back(reconvergent_grid(8, 4 + i, circuits));
    }
  }
  const CompileOptions copt = small_lpu();
  std::vector<CompileResult> compiled;
  std::vector<LpuSimulator> sims;
  compiled.reserve(kModels);
  for (int i = 0; i < kModels; ++i) compiled.push_back(compile(nls[i], copt));
  sims.reserve(kModels);
  for (int i = 0; i < kModels; ++i) sims.emplace_back(compiled[i].program);

  router::RouterOptions ropt;
  ropt.num_shards = 2;
  ropt.initial_replicas = 1;
  ropt.engine.num_workers = 1;
  ropt.engine.batch_timeout = std::chrono::microseconds(50);
  ropt.engine.compile = copt;
  router::Router router(ropt);

  std::vector<router::RoutedHandle> handles(kModels);
  std::vector<int> generation(kModels, 0);
  const auto ensure_loaded = [&](int i) {
    if (handles[i] && handles[i].loaded()) return;
    ModelOptions mopt;
    mopt.queue_bound = 48;
    mopt.weight = static_cast<std::uint32_t>(1 + i);
    const std::string name =
        "m" + std::to_string(i) + "-g" + std::to_string(++generation[i]);
    handles[i] =
        i == kParallelModel
            ? router.load_parallel(name, nls[i], kParallelMembers, mopt)
            : router.load(name, nls[i], mopt);
  };
  for (int i = 0; i < kModels; ++i) ensure_loaded(i);

  Rng rng(seed);
  std::vector<PendingRequest> pending;
  std::uint64_t accepted = 0;

  for (int op = 0; op < num_ops; ++op) {
    const int model = static_cast<int>(rng.next_below(kModels));
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 40) {
      ensure_loaded(model);
      std::vector<bool> bits(nls[model].num_inputs());
      for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
      try {
        auto fut = router.submit(handles[model], bits);
        pending.push_back({model, std::move(bits), std::move(fut)});
        ++accepted;
      } catch (const Error&) {
      }
    } else if (dice < 80) {
      ensure_loaded(model);
      std::vector<bool> bits(nls[model].num_inputs());
      for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
      std::future<std::vector<bool>> fut;
      const SubmitStatus st = router.try_submit(handles[model], bits, &fut);
      if (st == SubmitStatus::kAccepted) {
        pending.push_back({model, std::move(bits), std::move(fut)});
        ++accepted;
      } else {
        EXPECT_FALSE(fut.valid());
      }
    } else if (dice < 86) {
      // Replica scaling under live traffic: scale-down retires (drains, never
      // drops), scale-up compiles onto the vacant shard.
      if (handles[model] && handles[model].loaded()) {
        router.set_replicas(handles[model],
                            1 + static_cast<std::size_t>(rng.next_below(2)));
      }
    } else if (dice < 90) {
      router.unload(handles[model]);
    } else if (dice < 94) {
      router.drain();
    } else if (dice < 97) {
      // A scripted rebalancer tick: with no deadlines there are no sheds, so
      // the only possible action is an idle retire — which must also drain.
      router.rebalance_now();
    } else {
      if (handles[model] && !handles[model].loaded()) {
        std::future<std::vector<bool>> fut;
        const SubmitStatus st = router.try_submit(
            handles[model], std::vector<bool>(nls[model].num_inputs()), &fut);
        EXPECT_EQ(st, SubmitStatus::kUnloaded);
      }
    }
  }

  router.drain();

  std::uint64_t resolved = 0;
  for (auto& req : pending) {
    ASSERT_EQ(req.future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "accepted future left unresolved (router seed " << seed << ")";
    try {
      const std::vector<bool> got = req.future.get();
      const std::vector<bool> want =
          direct_run(sims[req.model], nls[req.model], req.inputs);
      EXPECT_EQ(got, want) << "bit mismatch, model " << req.model
                           << " router seed " << seed;
    } catch (const Error&) {
    }
    ++resolved;
  }
  EXPECT_EQ(resolved, accepted);

  // Fleet books: routing and rebalancing add placement, never accounting.
  // Whatever shard each request landed on, the totals close and the
  // per-shard rows sum to them exactly.
  const router::FleetReport rep = router.report();
  EXPECT_EQ(rep.total.requests, accepted);
  EXPECT_EQ(rep.total.deadline_met, accepted);
  EXPECT_EQ(rep.total.shed, 0u);
  EXPECT_EQ(rep.total.expired, 0u);
  EXPECT_EQ(rep.total.samples, accepted);
  ASSERT_EQ(rep.per_shard.size(), 2u);
  EXPECT_EQ(rep.per_shard[0].requests + rep.per_shard[1].requests,
            rep.total.requests);
  EXPECT_EQ(rep.per_shard[0].samples + rep.per_shard[1].samples,
            rep.total.samples);
}

TEST(AdmissionFuzz, Seed1) { run_fuzz_round(1, 400); }
TEST(AdmissionFuzz, Seed2) { run_fuzz_round(2, 400); }
TEST(AdmissionFuzz, Seed3) { run_fuzz_round(3, 400); }

// The fleet-level round: the op stream runs against a 2-shard Router under
// p2c dispatch, replica scaling, and scripted rebalancer ticks — same
// resolution/bit-exactness/closed-books promises, now across shards.
TEST(AdmissionFuzz, RouterSeed1) { run_router_fuzz_round(21, 300); }
TEST(AdmissionFuzz, RouterSeed2) { run_router_fuzz_round(22, 300); }

// The same op stream on three workers: more idle hands steal members of
// in-flight batches under unload/evict/drain churn, and the oracle
// comparison still holds bit-exactly.
TEST(AdmissionFuzz, ThreeWorkerSeed1) { run_fuzz_round(11, 400, /*workers=*/3); }
TEST(AdmissionFuzz, ThreeWorkerSeed2) { run_fuzz_round(12, 400, /*workers=*/3); }
TEST(AdmissionFuzz, ThreeWorkerSeed3) { run_fuzz_round(13, 400, /*workers=*/3); }

// Nightly sweep hook: LBNN_FUZZ_SEEDS=<n> widens the run to n extra seeds
// (alternating 2 and 3 workers). The scheduled CI job sets 20; interactive
// and per-PR runs skip.
TEST(AdmissionFuzz, EnvSeedSweep) {
  const char* env = std::getenv("LBNN_FUZZ_SEEDS");
  if (env == nullptr) {
    GTEST_SKIP() << "set LBNN_FUZZ_SEEDS=<n> to sweep n extra seeds";
  }
  const long n = std::atol(env);
  for (long s = 1; s <= n; ++s) {
    SCOPED_TRACE("sweep seed " + std::to_string(100 + s));
    run_fuzz_round(static_cast<std::uint64_t>(100 + s), 400,
                   /*workers=*/s % 2 == 0 ? 3 : 2);
  }
}

}  // namespace
}  // namespace lbnn::runtime
