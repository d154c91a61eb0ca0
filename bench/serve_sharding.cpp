// Multi-engine sharding: an 8-shard Router vs 8 statically-pinned isolated
// engines, under a Zipf-skewed multi-model mix.
//
//   $ ./serve_sharding [ms_per_mode] [slo_us]
//
// Both modes drive the SAME deterministic open-loop arrival process (paced
// try_submit, Zipf model popularity from bench_common's ZipfPicker) against
// the same 8 models with the same per-request SLO deadline:
//
//   isolated   8 independent 1-worker engines; model m is pinned to engine
//              m % 8. The classic static-sharding deployment: no routing
//              layer, no cross-shard decisions, but also no way to move load.
//   router     one Router over 8 in-process 1-worker shards, every model at 1
//              replica (same placement as the static pin), dispatch through
//              power-of-two-choices over the shards' admission probes.
//
// The claim under test (ISSUE 7 acceptance): the routing layer is not a tax —
// aggregate router goodput >= 0.95x the isolated sum — and a scripted replica
// add/retire cycle (1 -> 4 -> 1 replicas on the hottest model, while an
// open-loop generator keeps submitting) completes with ZERO dropped in-flight
// requests: every accepted future resolves with a value, because a retiring
// replica leaves the routing set before its drain begins.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist/random_circuits.hpp"
#include "router/router.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;
using lbnn::bench::ZipfPicker;
using SteadyClock = std::chrono::steady_clock;

constexpr std::size_t kShards = 8;
constexpr std::size_t kModels = 8;
constexpr double kZipfS = 1.0;

EngineOptions shard_options() {
  EngineOptions eopt;
  eopt.num_workers = 1;  // per shard; the fleet's parallelism IS the shards
  eopt.batch_timeout = std::chrono::microseconds(200);
  eopt.compile.lpu.m = 8;
  eopt.compile.lpu.n = 8;
  return eopt;
}

std::vector<Netlist> make_models() {
  std::vector<Netlist> nls;
  nls.reserve(kModels);
  for (std::size_t m = 0; m < kModels; ++m) {
    Rng gen(100 + m);
    nls.push_back(reconvergent_grid(32, 8, gen));
  }
  return nls;
}

/// Closed-loop calibration on one shard-sized engine: its sustainable rate,
/// times kShards, bounds what the fleet can absorb.
double per_shard_sustainable_rps(const Netlist& nl) {
  Engine engine(shard_options());
  ModelOptions mopt;
  mopt.queue_bound = 8 * 16;
  const ModelHandle h = engine.load("calib", nl, mopt);
  Rng rng(7);
  std::vector<bool> bits(nl.num_inputs());
  constexpr int kRequests = 1024;
  const auto t0 = SteadyClock::now();
  for (int i = 0; i < kRequests; ++i) {
    for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
    engine.submit(h, bits);
  }
  engine.drain();
  const double secs =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  return static_cast<double>(kRequests) / secs;
}

/// One request's admission outcome, routed by either topology.
using SubmitFn = std::function<SubmitStatus(
    std::size_t model, const std::vector<bool>& bits,
    std::future<std::vector<bool>>* fut, TimePoint deadline)>;

struct ModeResult {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t on_slo = 0;
  std::uint64_t late_or_dead = 0;
  double goodput_per_sec = 0.0;
};

/// The shared open-loop driver: identical arrivals (same Rng seeds, same Zipf
/// stream, same pacing) regardless of which topology answers them.
ModeResult run_mode(const SubmitFn& submit, const std::function<void()>& drain,
                    const std::vector<Netlist>& nls, double offered_rps,
                    std::chrono::milliseconds run_for,
                    std::chrono::microseconds slo) {
  struct InFlight {
    std::future<std::vector<bool>> future;
    SteadyClock::time_point submitted;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;
  bool generator_done = false;
  ModeResult r;

  std::thread joiner([&] {
    std::size_t idx = 0;
    for (;;) {
      InFlight* item = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return idx < in_flight.size() || generator_done; });
        if (idx >= in_flight.size()) break;
        item = &in_flight[idx++];
      }
      try {
        item->future.get();
        const auto latency = SteadyClock::now() - item->submitted;
        if (latency <= slo) {
          ++r.on_slo;
        } else {
          ++r.late_or_dead;
        }
      } catch (const Error&) {
        ++r.late_or_dead;  // expired in queue
      }
    }
  });

  const auto interarrival =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / offered_rps));
  ZipfPicker zipf(kModels, kZipfS);
  Rng pick_rng(21);
  Rng bit_rng(22);
  const auto t_start = SteadyClock::now();
  const auto t_end = t_start + run_for;
  auto next_fire = t_start;
  while (SteadyClock::now() < t_end) {
    if (SteadyClock::now() < next_fire) {
      std::this_thread::yield();
      continue;
    }
    next_fire += interarrival;
    const std::size_t m = zipf.pick(pick_rng);
    std::vector<bool> bits(nls[m].num_inputs());
    for (std::size_t pi = 0; pi < bits.size(); ++pi) {
      bits[pi] = bit_rng.next_bool();
    }
    ++r.offered;
    const auto t0 = SteadyClock::now();
    std::future<std::vector<bool>> fut;
    if (submit(m, bits, &fut, t0 + slo) == SubmitStatus::kAccepted) {
      ++r.accepted;
      {
        std::lock_guard<std::mutex> lk(mu);
        in_flight.push_back({std::move(fut), t0});
      }
      cv.notify_one();
    } else {
      ++r.rejected;
    }
  }
  drain();
  const double wall =
      std::chrono::duration<double>(SteadyClock::now() - t_start).count();
  {
    std::lock_guard<std::mutex> lk(mu);
    generator_done = true;
  }
  cv.notify_all();
  joiner.join();
  r.goodput_per_sec = static_cast<double>(r.on_slo) / wall;
  return r;
}

void print_mode(const char* name, const ModeResult& r) {
  std::cout << name << ": offered " << r.offered << ", accepted " << r.accepted
            << ", rejected " << r.rejected << ", on-SLO " << r.on_slo
            << ", late/dead " << r.late_or_dead << ", goodput " << std::fixed
            << std::setprecision(0) << r.goodput_per_sec << " req/s\n";
}

/// Scripted elasticity cycle: scale the hottest model 1 -> 4 -> 1 replicas
/// while a generator keeps submitting (deadline-less, so every accepted
/// future MUST resolve with a value). Returns the number of accepted requests
/// that failed — the gate demands exactly zero.
std::uint64_t replica_cycle(lbnn::router::Router& router,
                            const lbnn::router::RoutedHandle& hot,
                            std::size_t num_inputs) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failed{0};
  std::uint64_t accepted = 0;
  std::vector<std::future<std::vector<bool>>> futures;
  std::thread generator([&] {
    Rng rng(31);
    std::vector<bool> bits(num_inputs);
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t pi = 0; pi < bits.size(); ++pi) {
        bits[pi] = rng.next_bool();
      }
      std::future<std::vector<bool>> fut;
      if (router.try_submit(hot, bits, &fut) == SubmitStatus::kAccepted) {
        ++accepted;
        futures.push_back(std::move(fut));
      } else {
        std::this_thread::yield();  // queue-full backoff
      }
    }
  });
  router.set_replicas(hot, 4);
  const std::size_t grown = router.replicas(hot);
  router.set_replicas(hot, 1);
  const std::size_t shrunk = router.replicas(hot);
  stop.store(true, std::memory_order_release);
  generator.join();
  router.drain();
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const Error&) {
      failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::cout << "replica cycle: " << accepted << " accepted across 1 -> "
            << grown << " -> " << shrunk << " replicas, "
            << failed.load() << " dropped\n";
  if (grown != 4 || shrunk != 1) failed.fetch_add(1);  // scale must take
  return failed.load();
}

}  // namespace

int main(int argc, char** argv) {
  const long long requested_ms = argc > 1 ? std::atoll(argv[1]) : 400;
  const auto run_for =
      std::chrono::milliseconds(requested_ms > 0 ? requested_ms : 400);

  const std::vector<Netlist> nls = make_models();
  const double per_shard = per_shard_sustainable_rps(nls[0]);
  // Offered: ~25% of the fleet's aggregate capacity. Shards beyond the
  // machine's cores time-share rather than add capacity (the calibration ran
  // one shard with the whole machine to itself), so the fleet multiplier is
  // min(shards, cores). Deliberately below the saturation cliff: at the
  // cliff, goodput is chaotic (whether admission sheds in time decides
  // everything) and a 0.95x gate would measure luck, not the routing layer.
  // Below it, goodput ~= accepted rate and the comparison isolates the
  // router's per-request overhead — which is the claim under test. The Zipf
  // skew still concentrates ~35% of traffic on the hot model's shard.
  const double parallelism = static_cast<double>(std::min<std::size_t>(
      kShards, std::max(1u, std::thread::hardware_concurrency())));
  const double offered = 0.25 * per_shard * parallelism;
  const long long slo_arg = argc > 2 ? std::atoll(argv[2]) : 0;
  const auto slo = std::chrono::microseconds(
      slo_arg > 0 ? slo_arg
                  : static_cast<long long>(64.0 * 16.0 * 1e6 / per_shard));

  std::cout << "per-shard sustainable ~" << std::fixed << std::setprecision(0)
            << per_shard << " req/s; offering " << offered << " req/s ("
            << kModels << " models, Zipf s=" << std::setprecision(1) << kZipfS
            << ") for " << run_for.count() << " ms per mode, SLO "
            << slo.count() << " us\n\n";

  ModelOptions mopt;
  mopt.queue_bound = 16 * 16;
  ModeResult isolated;
  {
    // Static sharding: engine per shard, model m pinned to engine m % 8.
    std::vector<std::unique_ptr<Engine>> engines;
    std::vector<ModelHandle> handles;
    for (std::size_t i = 0; i < kShards; ++i) {
      engines.push_back(std::make_unique<Engine>(shard_options()));
    }
    for (std::size_t m = 0; m < kModels; ++m) {
      handles.push_back(
          engines[m % kShards]->load("model" + std::to_string(m), nls[m], mopt));
    }
    isolated = run_mode(
        [&](std::size_t m, const std::vector<bool>& bits,
            std::future<std::vector<bool>>* fut, TimePoint deadline) {
          return engines[m % kShards]->try_submit(handles[m], bits, fut,
                                                  deadline);
        },
        [&] {
          for (auto& e : engines) e->drain();
        },
        nls, offered, run_for, slo);
    print_mode("isolated (static pin)", isolated);
  }

  ModeResult routed;
  std::uint64_t cycle_failures = 0;
  {
    lbnn::router::RouterOptions ropt;
    ropt.num_shards = kShards;
    ropt.engine = shard_options();
    ropt.initial_replicas = 1;  // same placement budget as the static pin
    lbnn::router::Router router(ropt);
    std::vector<lbnn::router::RoutedHandle> handles;
    for (std::size_t m = 0; m < kModels; ++m) {
      handles.push_back(
          router.load("model" + std::to_string(m), nls[m], mopt));
    }
    routed = run_mode(
        [&](std::size_t m, const std::vector<bool>& bits,
            std::future<std::vector<bool>>* fut, TimePoint deadline) {
          return router.try_submit(handles[m], bits, fut, deadline);
        },
        [&] { router.drain(); }, nls, offered, run_for, slo);
    print_mode("router (8 shards, p2c)", routed);

    cycle_failures = replica_cycle(router, handles[0], nls[0].num_inputs());
    router.shutdown();
  }

  std::cout << "\naggregate goodput: isolated " << std::setprecision(0)
            << isolated.goodput_per_sec << " req/s, router "
            << routed.goodput_per_sec << " req/s";
  if (isolated.goodput_per_sec > 0.0) {
    std::cout << " (" << std::setprecision(2)
              << routed.goodput_per_sec / isolated.goodput_per_sec << "x)";
  }
  std::cout << "\n";
  // Acceptance gate, mirrored by CI: routing must not tax aggregate goodput,
  // and elasticity must never drop accepted work.
  const bool ok =
      routed.goodput_per_sec >= 0.95 * isolated.goodput_per_sec &&
      cycle_failures == 0;
  std::cout << (ok ? "PASS" : "FAIL")
            << ": router goodput >= 0.95x isolated sum and replica cycle "
               "dropped nothing\n";
  // The gate is a goodput ratio; no latency percentile is measured here.
  lbnn::bench::emit_bench_json("serve_sharding", 0.0, lbnn::bench::unmeasured(),
                               routed.goodput_per_sec, ok);
  return ok ? 0 : 1;
}
