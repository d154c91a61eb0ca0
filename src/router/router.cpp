#include "router/router.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "runtime/metrics.hpp"

namespace lbnn::router {

using runtime::Engine;
using runtime::ModelHandle;
using runtime::ModelProbe;
using runtime::ModelReport;
using runtime::PhaseStats;
using runtime::ServeReport;
using runtime::SubmitStatus;
using runtime::TimePoint;

namespace {

/// Per-(model, shard) counter snapshot from the last rebalancer tick; deltas
/// against it give the window's traffic. Entries are erased when the replica
/// retires (the shard folds the row into its retired aggregate, so the next
/// hosting stint restarts from zero).
struct ShardWindow {
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
};

/// One artifact directory for the whole fleet, so replica shards share
/// content-keyed native artifacts: the first shard to finish codegen for a
/// program publishes the .so, every other shard's codegen job finds it on
/// disk (a native_disk_hit) instead of recompiling. Mirrors the Engine's
/// private-dir naming with a "fleet" marker for debuggability.
std::string make_fleet_artifact_dir() {
  static std::atomic<std::uint64_t> counter{0};
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("lbnn-aot-fleet-" + std::to_string(static_cast<long>(::getpid())) + "-" +
       std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir.string();
}

const ModelReport* find_model_row(const ServeReport& report,
                                  const std::string& name) {
  for (const ModelReport& m : report.per_model) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void merge_phase(PhaseStats& into, const PhaseStats& from) {
  into.p50_us = std::max(into.p50_us, from.p50_us);
  into.p99_us = std::max(into.p99_us, from.p99_us);
  into.count += from.count;
}

void merge_phases(runtime::PhaseBreakdown& into,
                  const runtime::PhaseBreakdown& from) {
  merge_phase(into.assembly_wait, from.assembly_wait);
  merge_phase(into.queue_wait, from.queue_wait);
  merge_phase(into.execution, from.execution);
  merge_phase(into.finalize, from.finalize);
}

void merge_model_row(ModelReport& into, const ModelReport& from) {
  into.requests += from.requests;
  into.batches += from.batches;
  into.samples += from.samples;
  into.lanes_offered += from.lanes_offered;
  into.lane_occupancy =
      into.lanes_offered == 0
          ? 0.0
          : static_cast<double>(into.samples) / into.lanes_offered;
  into.p50_latency_us = std::max(into.p50_latency_us, from.p50_latency_us);
  into.p99_latency_us = std::max(into.p99_latency_us, from.p99_latency_us);
  into.queue_depth_hwm = std::max(into.queue_depth_hwm, from.queue_depth_hwm);
  into.shed += from.shed;
  into.expired += from.expired;
  into.deadline_met += from.deadline_met;
  into.goodput_per_sec += from.goodput_per_sec;
  into.member_runs += from.member_runs;
  into.steals += from.steals;
  into.hedges_launched += from.hedges_launched;
  into.hedge_wins += from.hedge_wins;
  into.hedge_wasted_us += from.hedge_wasted_us;
  merge_phases(into.phases, from.phases);
}

}  // namespace

/// One per-shard copy of a routed model: the shard id plus the ordinary
/// Engine handle routing submits through.
struct Replica {
  std::size_t shard = 0;
  ModelHandle handle;
};

struct RoutedModel {
  std::string name;
  /// Retained load arguments so the rebalancer can add replicas without the
  /// caller (each shard compiles its own copy; same-shard duplicate loads
  /// still dedup through that shard's program cache).
  Netlist netlist;
  std::uint32_t parallel_lpus = 1;
  runtime::ModelOptions mopt;
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;

  mutable std::mutex mu;
  std::vector<Replica> replicas;         ///< guarded by mu
  std::map<std::size_t, ShardWindow> window;  ///< guarded by mu
  std::size_t fit_ticks = 0;             ///< guarded by mu
  std::atomic<bool> loaded{true};

  std::vector<Replica> snapshot() const {
    std::lock_guard<std::mutex> lk(mu);
    return replicas;
  }
};

const std::string& RoutedHandle::name() const {
  if (!model_) throw Error("empty RoutedHandle");
  return model_->name;
}

std::size_t RoutedHandle::num_inputs() const {
  if (!model_) throw Error("empty RoutedHandle");
  return model_->num_inputs;
}

std::size_t RoutedHandle::num_outputs() const {
  if (!model_) throw Error("empty RoutedHandle");
  return model_->num_outputs;
}

bool RoutedHandle::loaded() const {
  return model_ != nullptr && model_->loaded.load(std::memory_order_acquire);
}

struct Router::Candidates {
  Replica winner;
  Replica loser;       ///< empty handle when only one replica exists
  bool has_loser = false;
};

Router::Router(const RouterOptions& options)
    : options_(options),
      clock_(options.engine.clock != nullptr
                 ? options.engine.clock
                 : &runtime::SystemClock::instance()),
      rng_(options.seed) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.initial_replicas == 0) options_.initial_replicas = 1;
  options_.initial_replicas =
      std::min(options_.initial_replicas, options_.num_shards);
  // When AOT is on and the caller named no artifact_dir, give every shard ONE
  // shared directory instead of letting each Engine make a private one: a
  // model replicated across shards then pays for codegen once and the other
  // replicas warm-load the .so from disk. The gate is the Engine's own
  // enablement predicate, so we never create a directory no shard will use.
  if (Engine::resolve_aot(options_.engine) &&
      options_.engine.artifact_dir.empty()) {
    options_.engine.artifact_dir = make_fleet_artifact_dir();
    own_artifact_dir_ = true;
  }
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Engine>(options_.engine));
  }
  last_tick_ = clock_->now();
  if (options_.rebalance_interval.count() > 0) {
    rebalancer_ =
        std::thread([this, start = last_tick_] { rebalance_loop(start); });
  }
}

Router::~Router() { shutdown(); }

std::shared_ptr<RoutedModel> Router::model_of(const RoutedHandle& h) const {
  if (!h.model_) throw Error("empty RoutedHandle");
  return h.model_;
}

RoutedHandle Router::load(const std::string& name, const Netlist& nl,
                          const runtime::ModelOptions& mopt) {
  return load_impl(name, nl, 1, mopt);
}

RoutedHandle Router::load_parallel(const std::string& name, const Netlist& nl,
                                   std::uint32_t parallel_lpus,
                                   const runtime::ModelOptions& mopt) {
  return load_impl(name, nl, parallel_lpus == 0 ? 1 : parallel_lpus, mopt);
}

std::future<RoutedHandle> Router::load_async(std::string name, Netlist nl,
                                             runtime::ModelOptions mopt) {
  return std::async(std::launch::async,
                    [this, name = std::move(name), nl = std::move(nl),
                     mopt]() { return load(name, nl, mopt); });
}

RoutedHandle Router::load_impl(const std::string& name, const Netlist& nl,
                               std::uint32_t parallel_lpus,
                               const runtime::ModelOptions& mopt) {
  {
    std::lock_guard<std::mutex> lk(models_mu_);
    for (const auto& m : models_) {
      if (m->name == name) {
        throw Error("model '" + name + "' is already loaded in this router");
      }
    }
  }
  auto model = std::make_shared<RoutedModel>();
  model->name = name;
  model->netlist = nl;
  model->parallel_lpus = parallel_lpus;
  model->mopt = mopt;

  // Initial placement: the least-loaded shards. Compiles overlap — one
  // load_async per target shard, then a join.
  std::vector<std::size_t> order = placement_order(*model);
  order.resize(std::min(options_.initial_replicas, order.size()));
  std::vector<std::future<ModelHandle>> pending;
  pending.reserve(order.size());
  for (std::size_t shard : order) {
    if (parallel_lpus > 1) {
      // load_parallel has no async form; compile inline (rare path).
      pending.push_back(std::async(std::launch::deferred, [=] {
        return shards_[shard]->load_parallel(name, nl, parallel_lpus, mopt);
      }));
    } else {
      pending.push_back(shards_[shard]->load_async(name, nl, mopt));
    }
  }
  std::vector<Replica> replicas;
  replicas.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    replicas.push_back({order[i], pending[i].get()});
  }
  model->num_inputs = replicas.front().handle.num_inputs();
  model->num_outputs = replicas.front().handle.num_outputs();
  {
    std::lock_guard<std::mutex> lk(model->mu);
    model->replicas = std::move(replicas);
  }
  {
    std::lock_guard<std::mutex> lk(models_mu_);
    models_.push_back(model);
  }
  return RoutedHandle(model);
}

std::vector<std::size_t> Router::placement_order(
    const RoutedModel& model) const {
  std::vector<bool> hosting(shards_.size(), false);
  {
    std::lock_guard<std::mutex> lk(model.mu);
    for (const Replica& r : model.replicas) hosting[r.shard] = true;
  }
  // (in_flight, hosted models, shard): live load first, then model count so
  // a cold fleet spreads loads round-robin instead of piling onto shard 0,
  // then the id for determinism.
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> load;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!hosting[i]) {
      load.emplace_back(shards_[i]->in_flight(), shards_[i]->num_models(), i);
    }
  }
  std::sort(load.begin(), load.end());
  std::vector<std::size_t> out;
  out.reserve(load.size());
  for (const auto& t : load) out.push_back(std::get<2>(t));
  return out;
}

Router::Candidates Router::route(const RoutedModel& model) {
  std::vector<Replica> replicas = model.snapshot();
  if (replicas.empty()) return {};
  Candidates c;
  if (replicas.size() == 1) {
    c.winner = replicas[0];
    return c;
  }
  std::size_t a = 0, b = 1;
  if (replicas.size() > 2) {
    std::lock_guard<std::mutex> lk(rng_mu_);
    a = rng_.next_below(replicas.size());
    b = rng_.next_below(replicas.size() - 1);
    if (b >= a) ++b;
  }
  // Order winner-first: smaller drain estimate, then fewer outstanding
  // requests (outstanding bumps the instant a request is accepted, so a cold
  // fleet — every estimate 0 — still spreads deterministically), then the
  // lower shard id.
  const ModelProbe pa = shards_[replicas[a].shard]->probe(replicas[a].handle);
  const ModelProbe pb = shards_[replicas[b].shard]->probe(replicas[b].handle);
  const auto key = [](const ModelProbe& p, std::size_t shard) {
    return std::make_tuple(p.drain_estimate_us(), p.outstanding, shard);
  };
  if (key(pb, replicas[b].shard) < key(pa, replicas[a].shard)) std::swap(a, b);
  c.winner = replicas[a];
  c.loser = replicas[b];
  c.has_loser = true;
  return c;
}

std::future<std::vector<bool>> Router::submit(const RoutedHandle& h,
                                              std::vector<bool> inputs,
                                              TimePoint deadline) {
  auto model = model_of(h);
  Candidates c = route(*model);
  if (!c.winner.handle) throw Error("model '" + model->name + "' is unloaded");
  if (!c.has_loser) {
    return shards_[c.winner.shard]->submit(c.winner.handle, std::move(inputs),
                                           deadline);
  }
  // A replica can retire between routing and submission; fall over once
  // then. DeadlineExceeded is final — the winner had the minimum drain
  // estimate, the loser would shed too.
  if (!c.winner.handle.loaded()) std::swap(c.winner, c.loser);
  std::vector<bool> copy = inputs;  // retry payload: the first attempt
                                    // consumes `inputs` at the call site,
                                    // throw or no throw
  try {
    return shards_[c.winner.shard]->submit(c.winner.handle, std::move(inputs),
                                           deadline);
  } catch (const DeadlineExceeded&) {
    throw;
  } catch (const Error&) {
    // Retry against the CURRENT replica set, not the loser sampled before
    // the first attempt: a set_replicas retire or an alias flip may have
    // removed that replica from routing while the attempt ran, and the stale
    // handle would just throw "unloaded" for a model that is still loaded.
    Candidates r = route(*model);
    if (!r.winner.handle) throw;
    Replica retry = r.winner;
    if (r.has_loser && r.winner.shard == c.winner.shard) retry = r.loser;
    return shards_[retry.shard]->submit(retry.handle, std::move(copy),
                                        deadline);
  }
}

SubmitStatus Router::try_submit(const RoutedHandle& h,
                                std::vector<bool> inputs,
                                std::future<std::vector<bool>>* result,
                                TimePoint deadline) {
  auto model = model_of(h);
  Candidates c = route(*model);
  if (!c.winner.handle) return SubmitStatus::kUnloaded;
  std::vector<bool> copy;
  if (c.has_loser) copy = inputs;  // keep a retry payload
  {
    std::shared_ptr<const std::function<void()>> hook;
    {
      std::lock_guard<std::mutex> lk(models_mu_);
      hook = route_hook_;
    }
    if (hook) (*hook)();
  }
  const SubmitStatus first = shards_[c.winner.shard]->try_submit(
      c.winner.handle, std::move(inputs), result, deadline);
  if (first == SubmitStatus::kAccepted ||
      first == SubmitStatus::kDeadlineUnmeetable || !c.has_loser) {
    // kDeadlineUnmeetable never retries: the winner had the minimum drain
    // estimate, so the loser sheds too — and the fleet must count exactly
    // one shed per refused request (books: accepted + shed + expired).
    return first;
  }
  // Retry against the CURRENT replica set, not the pair sampled above: while
  // the first attempt ran, a set_replicas retire or an alias flip may have
  // removed the sampled loser from routing, and retrying the stale handle
  // would surface kUnloaded for a model that is still loaded. Prefer a
  // replica other than the one that just refused when the fresh sample
  // offers one.
  Candidates r = route(*model);
  if (!r.winner.handle) return first;
  Replica retry = r.winner;
  if (r.has_loser && r.winner.shard == c.winner.shard) retry = r.loser;
  return shards_[retry.shard]->try_submit(retry.handle, std::move(copy),
                                          result, deadline);
}

void Router::set_route_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(models_mu_);
  if (hook) {
    route_hook_ =
        std::make_shared<const std::function<void()>>(std::move(hook));
  } else {
    route_hook_ = nullptr;
  }
}

bool Router::unload(const RoutedHandle& h) {
  if (!h.model_) return false;
  auto model = h.model_;
  if (!model->loaded.exchange(false, std::memory_order_acq_rel)) return false;
  {
    std::lock_guard<std::mutex> lk(models_mu_);
    models_.erase(std::remove(models_.begin(), models_.end(), model),
                  models_.end());
  }
  std::vector<Replica> replicas;
  {
    std::lock_guard<std::mutex> lk(model->mu);
    replicas = std::move(model->replicas);
    model->replicas.clear();
    model->window.clear();
  }
  for (Replica& r : replicas) shards_[r.shard]->unload(r.handle);
  return true;
}

void Router::add_replica(const std::shared_ptr<RoutedModel>& model,
                         std::size_t shard) {
  ModelHandle handle =
      model->parallel_lpus > 1
          ? shards_[shard]->load_parallel(model->name, model->netlist,
                                          model->parallel_lpus, model->mopt)
          : shards_[shard]->load(model->name, model->netlist, model->mopt);
  std::lock_guard<std::mutex> lk(model->mu);
  if (!model->loaded.load(std::memory_order_acquire)) {
    // Lost the race with unload(): don't resurrect a routing entry; the
    // handle going out of scope leaves only an idle engine-side model, which
    // we unload below.
  } else {
    model->replicas.push_back({shard, handle});
    return;
  }
  shards_[shard]->unload(handle);
}

void Router::retire_replica(const std::shared_ptr<RoutedModel>& model) {
  Replica victim;
  {
    std::lock_guard<std::mutex> lk(model->mu);
    if (model->replicas.size() <= 1) return;
    // Least-loaded replica goes (ties: the HIGHEST shard id, biasing the
    // fleet back toward low shards so placement stays deterministic).
    std::size_t best = 0;
    auto best_key = std::make_tuple(std::uint64_t{0}, std::size_t{0});
    for (std::size_t i = 0; i < model->replicas.size(); ++i) {
      const Replica& r = model->replicas[i];
      const ModelProbe p = shards_[r.shard]->probe(r.handle);
      const auto key = std::make_tuple(p.drain_estimate_us() + p.outstanding,
                                       shards_.size() - r.shard);
      if (i == 0 || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    victim = model->replicas[best];
    // Out of the routing set FIRST: no new request can reach the replica
    // once the drain below starts, so nothing accepted is ever dropped.
    model->replicas.erase(model->replicas.begin() +
                          static_cast<std::ptrdiff_t>(best));
    model->window.erase(victim.shard);
  }
  shards_[victim.shard]->unload(victim.handle);
}

void Router::set_replicas(const RoutedHandle& h, std::size_t n) {
  auto model = model_of(h);
  n = std::max<std::size_t>(1, std::min(n, shards_.size()));
  std::size_t current;
  {
    std::lock_guard<std::mutex> lk(model->mu);
    current = model->replicas.size();
  }
  if (n > current) {
    std::vector<std::size_t> order = placement_order(*model);
    order.resize(std::min(n - current, order.size()));
    std::vector<std::thread> loaders;
    loaders.reserve(order.size());
    for (std::size_t shard : order) {
      loaders.emplace_back([this, model, shard] { add_replica(model, shard); });
    }
    for (std::thread& t : loaders) t.join();
  } else {
    while (current > n) {
      retire_replica(model);
      --current;
    }
  }
}

std::size_t Router::replicas(const RoutedHandle& h) const {
  auto model = model_of(h);
  std::lock_guard<std::mutex> lk(model->mu);
  return model->replicas.size();
}

std::vector<std::size_t> Router::replica_shards(const RoutedHandle& h) const {
  auto model = model_of(h);
  std::vector<std::size_t> out;
  {
    std::lock_guard<std::mutex> lk(model->mu);
    for (const Replica& r : model->replicas) out.push_back(r.shard);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Router::rebalance_loop(TimePoint start) {
  if (options_.rebalancer_start_hook) options_.rebalancer_start_hook();
  std::unique_lock<std::mutex> lk(ticks_mu_);
  // Fixed absolute cadence from the constructor's clock reading (next +=
  // interval, never now + interval): a ManualClock advance of k intervals
  // yields exactly k ticks no matter how the advance interleaves with the
  // thread's start or with the loop re-registering its wait — which is what
  // makes wait_for_ticks(n) after advance(n * interval) deterministic.
  TimePoint next = start + options_.rebalance_interval;
  while (!stop_) {
    clock_->wait_until(lk, ticks_cv_, next, [&] { return stop_; });
    if (stop_) break;
    next += options_.rebalance_interval;
    lk.unlock();
    tick();
    lk.lock();
  }
}

void Router::rebalance_now() { tick(); }

void Router::tick() {
  std::lock_guard<std::mutex> serialize(tick_mu_);
  const TimePoint now = clock_->now();
  const auto window_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - last_tick_)
          .count());
  last_tick_ = now;

  std::vector<ServeReport> reports;
  reports.reserve(shards_.size());
  for (const auto& s : shards_) reports.push_back(s->report());

  std::vector<std::shared_ptr<RoutedModel>> models;
  {
    std::lock_guard<std::mutex> lk(models_mu_);
    models = models_;
  }
  for (const auto& model : models) tick_model(model, reports, window_us);

  {
    std::lock_guard<std::mutex> lk(ticks_mu_);
    ++ticks_;
  }
  ticks_cv_.notify_all();
}

void Router::tick_model(const std::shared_ptr<RoutedModel>& model,
                        const std::vector<ServeReport>& reports,
                        std::uint64_t window_us) {
  if (!model->loaded.load(std::memory_order_acquire)) return;

  // Window deltas + the decision, under the model lock; any engine calls
  // (compile, drain) happen after it drops.
  enum class Action { kNone, kAdd, kRetire };
  Action action = Action::kNone;
  {
    std::lock_guard<std::mutex> lk(model->mu);
    std::uint64_t shed_delta = 0, done_delta = 0, max_ewma_us = 0;
    for (const Replica& r : model->replicas) {
      const ModelReport* row = find_model_row(reports[r.shard], model->name);
      ShardWindow& prev = model->window[r.shard];
      if (row != nullptr) {
        shed_delta += row->shed - std::min(prev.shed, row->shed);
        done_delta += row->requests - std::min(prev.completed, row->requests);
        prev.shed = row->shed;
        prev.completed = row->requests;
      }
      max_ewma_us = std::max(max_ewma_us,
                             shards_[r.shard]->probe(r.handle).ewma_item_us);
    }
    const std::uint64_t offered = shed_delta + done_delta;
    const bool shedding =
        shed_delta > 0 &&
        static_cast<double>(shed_delta) >=
            options_.add_shed_fraction * static_cast<double>(offered);
    if (shedding && model->replicas.size() < shards_.size()) {
      action = Action::kAdd;
      model->fit_ticks = 0;
    } else if (shed_delta == 0 && model->replicas.size() > 1) {
      // Would the window's completed work have fit one fewer replica? With
      // no service signal (all EWMAs 0) or a zero-length window, only a
      // fully idle model counts as fitting.
      const double capacity_us =
          options_.retire_headroom *
          static_cast<double>((model->replicas.size() - 1) *
                              shards_[0]->num_workers()) *
          static_cast<double>(window_us);
      const bool fits =
          max_ewma_us == 0 || window_us == 0
              ? done_delta == 0
              : static_cast<double>(done_delta) *
                        static_cast<double>(max_ewma_us) <=
                    capacity_us;
      model->fit_ticks = fits ? model->fit_ticks + 1 : 0;
      if (model->fit_ticks >= options_.retire_idle_ticks) {
        action = Action::kRetire;
        model->fit_ticks = 0;
      }
    } else {
      model->fit_ticks = 0;
    }
  }

  if (action == Action::kAdd) {
    const std::vector<std::size_t> order = placement_order(*model);
    if (!order.empty()) add_replica(model, order.front());
  } else if (action == Action::kRetire) {
    retire_replica(model);
  }
}

std::uint64_t Router::rebalance_ticks() const {
  std::lock_guard<std::mutex> lk(ticks_mu_);
  return ticks_;
}

void Router::wait_for_ticks(std::uint64_t n) {
  std::unique_lock<std::mutex> lk(ticks_mu_);
  ticks_cv_.wait(lk, [&] { return ticks_ >= n || stop_; });
}

void Router::drain() {
  for (const auto& s : shards_) s->drain();
}

void Router::shutdown() {
  {
    std::lock_guard<std::mutex> lk(ticks_mu_);
    stop_ = true;
  }
  ticks_cv_.notify_all();
  if (rebalancer_.joinable()) rebalancer_.join();
  for (const auto& s : shards_) s->shutdown();
  if (own_artifact_dir_) {
    // Every shard is down (their AOT jobs joined inside shutdown), so nothing
    // can still be writing here. dlopen'd code stays mapped for any artifact
    // a caller still holds; only the on-disk cache goes away.
    std::error_code ec;
    std::filesystem::remove_all(options_.engine.artifact_dir, ec);
    own_artifact_dir_ = false;
  }
}

FleetReport Router::report() const {
  FleetReport fleet;
  fleet.per_shard.reserve(shards_.size());
  for (const auto& s : shards_) fleet.per_shard.push_back(s->report());

  ServeReport& t = fleet.total;
  std::map<std::string, std::size_t> model_index;
  double util_weight = 0.0;
  for (const ServeReport& r : fleet.per_shard) {
    t.requests += r.requests;
    t.batches += r.batches;
    t.samples += r.samples;
    t.lanes_offered += r.lanes_offered;
    t.p50_latency_us = std::max(t.p50_latency_us, r.p50_latency_us);
    t.p99_latency_us = std::max(t.p99_latency_us, r.p99_latency_us);
    t.wall_seconds = std::max(t.wall_seconds, r.wall_seconds);
    t.requests_per_sec += r.requests_per_sec;
    t.goodput_per_sec += r.goodput_per_sec;
    t.shed += r.shed;
    t.expired += r.expired;
    t.deadline_met += r.deadline_met;
    t.member_runs += r.member_runs;
    t.steals += r.steals;
    t.hedges_launched += r.hedges_launched;
    t.hedge_wins += r.hedge_wins;
    t.hedge_wasted_us += r.hedge_wasted_us;
    t.member_p50_us = std::max(t.member_p50_us, r.member_p50_us);
    t.member_p99_us = std::max(t.member_p99_us, r.member_p99_us);
    t.straggler_gap_p50_us =
        std::max(t.straggler_gap_p50_us, r.straggler_gap_p50_us);
    t.straggler_gap_p99_us =
        std::max(t.straggler_gap_p99_us, r.straggler_gap_p99_us);
    merge_phases(t.phases, r.phases);
    t.sim.wavefronts += r.sim.wavefronts;
    t.sim.macro_cycles += r.sim.macro_cycles;
    t.sim.clock_cycles += r.sim.clock_cycles;
    t.sim.lpe_computes += r.sim.lpe_computes;
    t.sim.route_writes += r.sim.route_writes;
    t.sim.input_reads += r.sim.input_reads;
    t.sim.feedback_words += r.sim.feedback_words;
    util_weight += r.sim.lpe_utilization * static_cast<double>(r.sim.wavefronts);
    for (const ModelReport& m : r.per_model) {
      auto [it, inserted] = model_index.emplace(m.name, t.per_model.size());
      if (inserted) {
        t.per_model.push_back(m);
      } else {
        merge_model_row(t.per_model[it->second], m);
      }
    }
  }
  t.lane_occupancy = t.lanes_offered == 0
                         ? 0.0
                         : static_cast<double>(t.samples) / t.lanes_offered;
  t.sim.lpe_utilization =
      t.sim.wavefronts == 0
          ? 0.0
          : util_weight / static_cast<double>(t.sim.wavefronts);
  return fleet;
}

std::string Router::metrics_prometheus() const {
  const FleetReport fleet = report();
  std::vector<runtime::LabelledReport> labelled;
  labelled.reserve(fleet.per_shard.size());
  for (std::size_t i = 0; i < fleet.per_shard.size(); ++i) {
    labelled.push_back({std::to_string(i), &fleet.per_shard[i]});
  }
  return runtime::to_prometheus(labelled);
}

void Router::export_trace(std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    dropped += shards_[i]->export_trace_events(
        os, static_cast<int>(i) + 1, "shard " + std::to_string(i), &first);
  }
  os << "\n],\"otherData\":{\"droppedEvents\":" << dropped << "}}\n";
}

}  // namespace lbnn::router
