// Versioned hot-swap correctness gate: a scripted 0% -> 25% -> 100% canary
// rollout under live traffic, with a zero-drop / bit-exactness audit.
//
//   $ ./serve_canary [requests]
//
// One generator thread pushes every request through the alias ("jsc@prod")
// while the main thread runs the rollout script against it mid-stream:
// publish v1, stage v2 at 0%, open the split to 25% at the 1/3 mark, then
// flip to 100% at the 2/3 mark.
// v1 and v2 are the same zoo netlist loaded under two names, so (a) the
// second load must dedup in the program cache (versions share compiled
// programs), and (b) a SINGLE-version scalar simulation is the oracle for
// every phase — any dropped, double-resolved, or misrouted future shows up
// as a missing/ready-twice/wrong-bits entry in the audit. After the flip,
// evict_idle reaps the idle v1 while the freshly-used v2 survives.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist/simulate.hpp"
#include "nn/model_zoo.hpp"
#include "runtime/engine.hpp"
#include "serve/alias.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;
using lbnn::serve::AliasReport;
using lbnn::serve::AliasTable;
using SteadyClock = std::chrono::steady_clock;

bool check(bool cond, const char* what, int& failures) {
  if (!cond) {
    std::cout << "CHECK FAILED: " << what << "\n";
    ++failures;
  }
  return cond;
}

}  // namespace

int main(int argc, char** argv) {
  const long long requested = argc > 1 ? std::atoll(argv[1]) : 3000;
  const std::size_t kRequests =
      static_cast<std::size_t>(requested > 0 ? requested : 3000);

  const nn::ModelDesc desc = nn::jsc_m();
  Rng rng(43);
  const Netlist nl =
      nn::synthesize_layer_ffcl(desc.layers[0], bench::tiny_synth(), rng).ffcl;

  EngineOptions eopt;
  eopt.num_workers = 2;
  eopt.batch_timeout = std::chrono::microseconds(200);
  eopt.compile.lpu.m = 8;
  eopt.compile.lpu.n = 8;
  Engine engine(eopt);
  ModelOptions mopt;
  mopt.queue_bound = 8 * 16;
  const ModelHandle v1 = engine.load("jsc_v1", nl, mopt);
  const ModelHandle v2 = engine.load("jsc_v2", nl, mopt);

  int failures = 0;
  // Loading v2 next to v1 must reuse v1's compiled program, not recompile.
  const CacheStats cs = engine.cache_stats();
  check(cs.entries == 1, "versions share one ProgramCache entry", failures);
  check(cs.hits >= 1, "v2 load hit the program cache", failures);

  AliasTable table(engine);
  table.publish("jsc@prod", v1);
  table.set_canary("jsc@prod", v2, 0, 1);  // staged dark: 0% of traffic

  // The oracle: a fixed pool of inputs with single-version expected outputs
  // (v1 and v2 are the same netlist — every phase must reproduce these bits).
  constexpr std::size_t kPool = 64;
  std::vector<std::vector<bool>> pool(kPool);
  std::vector<std::vector<bool>> want(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    pool[i].resize(nl.num_inputs());
    for (std::size_t j = 0; j < pool[i].size(); ++j) pool[i][j] = rng.next_bool();
    want[i] = simulate_scalar(nl, pool[i]);
  }

  std::vector<std::future<std::vector<bool>>> futs(kRequests);
  // The phase boundaries are request indices, not wall-clock moments: the
  // generator parks at each one until the script has applied that phase, so
  // every phase gets exactly its share of the stream however the threads
  // are scheduled.
  const std::size_t kStaged = kRequests / 3;
  const std::size_t kFlipped = 2 * kRequests / 3;
  std::atomic<std::size_t> submitted{0};
  std::atomic<int> applied{0};  // phases the script has applied
  const auto park_until = [&applied](int phase) {
    while (applied.load(std::memory_order_acquire) < phase) std::this_thread::yield();
  };
  const auto t_start = SteadyClock::now();
  std::thread generator([&] {
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (i == kStaged) park_until(1);
      if (i == kFlipped) park_until(2);
      futs[i] = table.submit("jsc@prod", pool[i % kPool]);
      submitted.store(i + 1, std::memory_order_release);
    }
  });
  const auto wait_submitted = [&submitted](std::size_t n) {
    while (submitted.load(std::memory_order_acquire) < n) std::this_thread::yield();
  };

  // The rollout script, applied mid-stream at the phase boundaries.
  wait_submitted(kStaged);
  const AliasReport dark = table.report("jsc@prod");
  check(dark.to_canary == 0, "0% stage sends v2 nothing", failures);
  table.set_split("jsc@prod", 1, 3);  // 25%
  engine.set_weight(v2, 1);           // matching QoS share for the canary
  applied.store(1, std::memory_order_release);

  wait_submitted(kFlipped);
  const AliasReport staged = table.report("jsc@prod");
  const auto t_flip = SteadyClock::now();
  const ModelHandle old = table.flip("jsc@prod");  // 100%
  applied.store(2, std::memory_order_release);
  check(old.name() == "jsc_v1", "flip returns the old primary", failures);
  check(table.resolve("jsc@prod").name() == "jsc_v2", "alias repointed",
        failures);

  generator.join();
  engine.drain();
  const double wall =
      std::chrono::duration<double>(SteadyClock::now() - t_start).count();

  // The audit: every submitted future resolved, exactly once, bit-exactly.
  std::size_t ready = 0;
  std::size_t exact = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (!futs[i].valid() ||
        futs[i].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      continue;  // dropped — counted by the ready check below
    }
    ++ready;
    if (futs[i].get() == want[i % kPool]) ++exact;
  }
  check(ready == kRequests, "zero dropped futures across the rollout",
        failures);
  check(exact == kRequests, "every phase bit-exact vs the one-version oracle",
        failures);

  const AliasReport rep = table.report("jsc@prod");
  check(rep.submitted == kRequests, "alias ledger covers every request",
        failures);
  check(rep.to_primary + rep.to_canary == rep.submitted,
        "every request routed exactly once", failures);
  check(rep.flips == 1, "one flip recorded", failures);
  // The stride split is exact over aligned windows of 4 and restarts on
  // set_split, so the 25% stage sends v2 a quarter of its requests, rounded
  // either way; after the flip v2 is the primary and gets no canary picks.
  const std::size_t staged_requests = kFlipped - kStaged;
  check(staged.to_canary == staged_requests / 4 ||
            staged.to_canary == (staged_requests + 3) / 4,
        "the 25% stage sent the canary a quarter of its requests", failures);
  check(rep.to_canary == staged.to_canary,
        "post-flip requests count as primary", failures);

  // Reap the old version: v1 has been idle since the flip; one fresh request
  // re-stamps v2 so half the flip-to-now gap evicts exactly one of them.
  auto touch = table.submit("jsc@prod", pool[1]);
  engine.drain();
  check(touch.get() == want[1], "keep-warm request served by v2", failures);
  const auto idle = SteadyClock::now() - t_flip;
  const std::size_t evicted = engine.evict_idle(idle / 2);
  check(evicted == 1, "evict_idle reaps exactly the old version", failures);
  check(!v1.loaded(), "v1 unloaded", failures);
  check(v2.loaded(), "v2 still serving", failures);
  auto post = table.submit("jsc@prod", pool[0]);
  engine.drain();
  check(post.get() == want[0], "alias serves after the reap", failures);

  const ServeReport srep = engine.report();
  std::cout << kRequests << " requests through the rollout in " << std::fixed
            << std::setprecision(3) << wall << " s ("
            << std::setprecision(0) << static_cast<double>(kRequests) / wall
            << " req/s); split " << rep.to_primary << " primary / "
            << rep.to_canary << " canary; 0% -> 25% -> flip -> reap\n";

  const bool ok = failures == 0;
  std::cout << (ok ? "PASS" : "FAIL")
            << ": zero-drop, bit-exact scripted rollout with dedup load and "
               "idle reap\n";
  lbnn::bench::emit_bench_json("serve_canary",
                               static_cast<double>(srep.p50_latency_us),
                               static_cast<double>(srep.p99_latency_us),
                               static_cast<double>(kRequests) / wall, ok);
  return ok ? 0 : 1;
}
