#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "runtime/engine.hpp"

namespace lbnn::router {

/// Fleet-level serving view: every shard's ServeReport plus their aggregate.
/// Counters in `total` are sums across shards; latency percentiles are the
/// MAX across shards (conservative — the fleet p99 is at least the worst
/// shard's p99, and log2-bucketed per-shard percentiles cannot be re-merged
/// exactly); rates (requests_per_sec, goodput_per_sec) are sums and
/// wall_seconds is the max. total.per_model merges same-named rows across
/// shards with the same rules, so a replicated model reads as one row.
struct FleetReport {
  runtime::ServeReport total;
  std::vector<runtime::ServeReport> per_shard;  ///< index = shard id
};

struct RouterOptions {
  /// In-process Engine shards. Each shard is a full Engine (own workers,
  /// program cache, stats plane, trace rings); the router owns their
  /// lifetime.
  std::size_t num_shards = 2;
  /// Per-shard engine template. `engine.clock` is shared by every shard and
  /// the rebalancer, so one ManualClock drives the whole fleet in tests.
  /// When `engine.aot` is on and `engine.artifact_dir` is empty, the router
  /// substitutes ONE shared temp directory for the whole fleet (removed at
  /// shutdown), so replicated models pay for native codegen once and the
  /// other shards warm-load the artifact from disk.
  runtime::EngineOptions engine;
  /// Replicas created per load() before any rebalancing (clamped to
  /// [1, num_shards]).
  std::size_t initial_replicas = 1;
  /// Rebalancer cadence on the injected clock. 0 disables the background
  /// thread entirely — rebalance_now() still works for scripted ticks.
  std::chrono::microseconds rebalance_interval{0};
  /// Add a replica when a model's shed fraction over the last window
  /// (shed / (shed + completed)) reaches this. <= 0 adds on any shed.
  double add_shed_fraction = 0.05;
  /// Retire a replica only after this many consecutive windows in which the
  /// model shed nothing AND its demand fits the remaining replicas.
  std::size_t retire_idle_ticks = 3;
  /// Demand-fit slack for retirement: the last window's completed work
  /// (completed * ewma_us) must use at most this fraction of the remaining
  /// replicas' capacity ((replicas - 1) * workers * window_us). Lower is more
  /// conservative.
  double retire_headroom = 0.5;
  /// Seed for the power-of-two-choices candidate picker.
  std::uint64_t seed = 0x7073686172640001ull;
  /// Test instrumentation, in the style of Router::set_route_hook but fixed
  /// at construction: the rebalancer thread calls it once when it starts,
  /// before its first clock read. A test advances the ManualClock here to
  /// stand in for a thread that is scheduled late. Empty: no call.
  std::function<void()> rebalancer_start_hook;
};

struct RoutedModel;  // internal; defined in router.cpp

/// Ref-counted reference to a model loaded through a Router — the fleet-level
/// twin of runtime::ModelHandle. Copyable and cheap; holding a copy across
/// unload() never dangles, submits just fail with kUnloaded. A
/// default-constructed handle is empty. Handles are router-specific.
class RoutedHandle {
 public:
  RoutedHandle() = default;

  explicit operator bool() const { return model_ != nullptr; }
  const std::string& name() const;
  std::size_t num_inputs() const;
  std::size_t num_outputs() const;
  /// False once unload() has begun on this model.
  bool loaded() const;

 private:
  friend class Router;
  explicit RoutedHandle(std::shared_ptr<RoutedModel> model)
      : model_(std::move(model)) {}
  std::shared_ptr<RoutedModel> model_;
};

/// Multi-engine sharding layer: N in-process Engine shards behind the same
/// handle-based serving API the Engine itself presents.
///
/// Replica sets: load() compiles a model onto `initial_replicas` shards
/// (parallel load_async — the compiles overlap) and keeps the netlist so more
/// replicas can be added later without the caller. Each per-shard replica is
/// an ordinary ref-counted ModelHandle, so replica adds and retires reuse the
/// Engine's zero-downtime load/drain machinery: a retiring replica is removed
/// from the routing set FIRST, then drained via Engine::unload — every
/// request it already accepted still resolves.
///
/// Routing: power-of-two-choices over the admission plane. Two distinct
/// replicas are sampled per request and the one with the smaller
/// ModelProbe::drain_estimate_us() wins (ties: fewer outstanding requests,
/// then the lower shard id — fully deterministic on a cold fleet). The probe
/// reads the same EWMA/queue counters admission shedding uses; the router
/// never maintains a second estimator. try_submit retries the losing
/// candidate once on kQueueFull/kUnloaded — but NEVER on
/// kDeadlineUnmeetable: the winner had the minimum drain estimate, so the
/// loser would shed too, and retrying would double-count the shed.
///
/// Rebalancing: a background tick on the injected ClockSource (ManualClock
/// in tests — zero real sleeps) diffs each model's per-shard shed/completed
/// counters over the window. A model shedding more than add_shed_fraction of
/// its offered load gains a replica on the least-loaded non-hosting shard; a
/// model that shed nothing for retire_idle_ticks consecutive windows and
/// whose demand fits one fewer replica (retire_headroom) loses its
/// least-loaded replica, drained without dropping anything.
///
/// Observability: report() aggregates per-shard ServeReports into a
/// FleetReport; metrics_prometheus() tags every series with shard="<id>";
/// export_trace() renders all shards into one Chrome trace, one process per
/// shard.
///
/// Thread-safety: every public method may be called from any thread.
class Router {
 public:
  explicit Router(const RouterOptions& options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Compile `nl` onto the initial replica set (least-loaded shards) and
  /// register the model. Throws lbnn::Error if a model of this name is
  /// already loaded — per-shard stats rows are keyed by name, so fleet names
  /// must be unique.
  RoutedHandle load(const std::string& name, const Netlist& nl,
                    const runtime::ModelOptions& mopt = {});
  /// load() as a `parallel_lpus`-way parallel LPU assembly on every replica.
  RoutedHandle load_parallel(const std::string& name, const Netlist& nl,
                             std::uint32_t parallel_lpus,
                             const runtime::ModelOptions& mopt = {});
  /// load() on a background thread; the future rethrows compile errors.
  std::future<RoutedHandle> load_async(std::string name, Netlist nl,
                                       runtime::ModelOptions mopt = {});

  /// Blocking submit, routed to the winning replica (see class comment).
  /// Semantics match Engine::submit, including the DeadlineExceeded throw on
  /// a doomed deadline — which is final (no second candidate is tried).
  std::future<std::vector<bool>> submit(const RoutedHandle& model,
                                        std::vector<bool> inputs,
                                        runtime::TimePoint deadline =
                                            runtime::kNoDeadline);

  /// Non-blocking submit with one fallback: the losing candidate is tried
  /// once on kQueueFull/kUnloaded/kShuttingDown, never on
  /// kDeadlineUnmeetable. Semantics otherwise match Engine::try_submit.
  runtime::SubmitStatus try_submit(const RoutedHandle& model,
                                   std::vector<bool> inputs,
                                   std::future<std::vector<bool>>* result,
                                   runtime::TimePoint deadline =
                                       runtime::kNoDeadline);

  /// Stop routing to this model, drain every replica (all accepted futures
  /// still resolve), and drop it from the fleet. Returns false if the handle
  /// is empty or already unloaded (concurrent unloads: one caller gets true).
  bool unload(const RoutedHandle& model);

  /// Manually scale a model's replica set to n (clamped to [1, num_shards]).
  /// Scale-up compiles on every new shard in parallel; scale-down retires
  /// replicas one at a time, each removed from routing before its drain — no
  /// accepted request is ever dropped by a retire.
  void set_replicas(const RoutedHandle& model, std::size_t n);
  /// Current replica count (0 once unloaded).
  std::size_t replicas(const RoutedHandle& model) const;
  /// Shard ids currently hosting a replica, ascending.
  std::vector<std::size_t> replica_shards(const RoutedHandle& model) const;

  /// Run one rebalancer tick inline (also bumps the tick counter). Serialized
  /// with the background tick.
  void rebalance_now();
  /// Ticks completed since construction (background + rebalance_now).
  std::uint64_t rebalance_ticks() const;
  /// Block until at least n ticks have completed. Pure condition-variable
  /// wait — no clock involved, so ManualClock tests stay sleep-free:
  /// advance() the clock past the interval, then wait here.
  void wait_for_ticks(std::uint64_t n);

  /// Seal and drain every shard.
  void drain();
  /// drain(), stop the rebalancer, shut every shard down. Idempotent; the
  /// destructor calls it.
  void shutdown();

  FleetReport report() const;
  /// Prometheus exposition with every series labelled shard="<id>" (one
  /// HELP/TYPE block per metric, N samples each; per-model series carry
  /// model= and shard=).
  std::string metrics_prometheus() const;
  /// One Chrome trace for the whole fleet: shard i renders as process i + 1
  /// ("shard i"), with its worker/client tracks as threads. Drop counts are
  /// summed into otherData.
  void export_trace(std::ostream& os);

  /// Test instrumentation, mirroring Engine::set_dispatch_hook: called by
  /// try_submit between candidate sampling and the first dispatch attempt —
  /// the window where a concurrent set_replicas/flip can retire a sampled
  /// replica. The retry-vs-retire tests shrink the replica set inside the
  /// hook to pin that the retry re-samples the current set. nullptr clears.
  void set_route_hook(std::function<void()> hook);

  std::size_t num_shards() const { return shards_.size(); }
  /// Direct access to one shard's Engine (tests, per-shard introspection).
  runtime::Engine& shard(std::size_t i) { return *shards_[i]; }
  runtime::ClockSource& clock() const { return *clock_; }
  /// The fleet-wide AOT artifact directory (empty when AOT is off). Shared by
  /// every shard; router-owned unless the caller named one in RouterOptions.
  const std::string& artifact_dir() const {
    return options_.engine.artifact_dir;
  }

 private:
  struct Candidates;

  std::shared_ptr<RoutedModel> model_of(const RoutedHandle& handle) const;
  RoutedHandle load_impl(const std::string& name, const Netlist& nl,
                         std::uint32_t parallel_lpus,
                         const runtime::ModelOptions& mopt);
  /// Pick up to two distinct replica candidates (p2c) and order them
  /// winner-first by drain estimate / outstanding / shard id.
  Candidates route(const RoutedModel& model);
  /// Shards not hosting `model`, least-loaded first: by Engine::in_flight(),
  /// then hosted-model count (a cold fleet spreads loads round-robin), then
  /// the shard id. Empty when the model is on every shard.
  std::vector<std::size_t> placement_order(const RoutedModel& model) const;
  /// Add one replica of `model` on `shard` (compiles synchronously).
  void add_replica(const std::shared_ptr<RoutedModel>& model,
                   std::size_t shard);
  /// Retire the least-loaded replica: removed from routing first, then
  /// drained via Engine::unload. No-op if only one replica remains.
  void retire_replica(const std::shared_ptr<RoutedModel>& model);
  /// The background cadence: ticks at start + k * rebalance_interval.
  void rebalance_loop(runtime::TimePoint start);
  void tick();
  void tick_model(const std::shared_ptr<RoutedModel>& model,
                  const std::vector<runtime::ServeReport>& reports,
                  std::uint64_t window_us);

  RouterOptions options_;
  runtime::ClockSource* clock_;  ///< options_.engine.clock or the system clock
  bool own_artifact_dir_ = false;  ///< we created engine.artifact_dir
  std::vector<std::unique_ptr<runtime::Engine>> shards_;

  mutable std::mutex models_mu_;
  std::vector<std::shared_ptr<RoutedModel>> models_;
  /// Guarded by models_mu_; try_submit snapshots the shared_ptr and calls
  /// outside the lock (see set_route_hook).
  std::shared_ptr<const std::function<void()>> route_hook_;

  std::mutex rng_mu_;
  Rng rng_;

  std::mutex tick_mu_;          ///< one tick at a time (background or manual)
  runtime::TimePoint last_tick_;  ///< guarded by tick_mu_

  mutable std::mutex ticks_mu_;
  std::condition_variable ticks_cv_;
  std::uint64_t ticks_ = 0;
  bool stop_ = false;
  std::thread rebalancer_;
};

}  // namespace lbnn::router
