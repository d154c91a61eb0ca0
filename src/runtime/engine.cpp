#include "runtime/engine.hpp"

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "aot/artifact.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "lpu/kernels.hpp"
#include "lpu/simulator.hpp"
#include "runtime/batcher.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace lbnn::runtime {

namespace {

/// Stride scheduling granularity: pass advances by kStrideScale / weight per
/// dispatched work item, so a weight-w model receives a w-proportional share
/// of dispatches while backlogged.
constexpr std::uint64_t kStrideScale = 1ull << 20;

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// A unique private artifact directory for an engine constructed without
/// EngineOptions::artifact_dir (pid + per-process counter: two engines in one
/// process, or two processes on one machine, never collide).
std::string make_private_artifact_dir() {
  static std::atomic<std::uint64_t> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lbnn-aot-" + std::to_string(static_cast<long>(::getpid())) +
                    "-" + std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Best case: `workers` drain `items` work items in parallel, each costing
/// the per-item service EWMA. 0 when the EWMA is 0 (no service signal).
std::uint64_t drain_us(std::uint64_t ewma_item_us, std::size_t items,
                       std::size_t workers) {
  if (workers == 0) workers = 1;
  return ewma_item_us * ((items + workers - 1) / workers);
}

/// Work items a new request queues behind, counted in the unit of the
/// service EWMA: `queued_items` is the unclaimed members of already-sealed
/// batches (a queued 4-member batch is 4 items, not 1), and the batch this
/// request joins costs `members` items once it seals. That last term also
/// makes requests parked in the still-open lane visible: they share the same
/// future batch, so its full member cost is charged whether the lane holds
/// one request or fifteen — a model with a loaded open lane can no longer
/// accept a deadline that the lane's own seal-and-run time already busts.
std::size_t work_items_ahead(const ModelProbe& p) {
  return p.queued_items + p.members;
}

}  // namespace

// No default case and no fallthrough return: -Wswitch (in -Wall) turns a
// forgotten enumerator into a compile warning instead of a silent "unknown".
const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kQueueFull:
      return "queue-full";
    case SubmitStatus::kUnloaded:
      return "unloaded";
    case SubmitStatus::kShuttingDown:
      return "shutting-down";
    case SubmitStatus::kDeadlineUnmeetable:
      return "deadline-unmeetable";
  }
  return "invalid-submit-status";  // out-of-range cast, not an enumerator
}

bool deadline_unmeetable(TimePoint deadline, TimePoint now,
                         std::uint64_t ewma_item_us, std::size_t items_ahead,
                         std::size_t workers) {
  if (deadline == kNoDeadline) return false;
  // Deadlines are inclusive everywhere in the runtime — finishing AT the
  // deadline is on time (see drop_expired_requests / finalize) — so only a
  // deadline strictly in the past is certainly dead at admission. A request
  // due exactly now still admits on a cold-start model (no service signal):
  // the estimate stays deliberately optimistic.
  if (deadline < now) return true;
  if (ewma_item_us == 0) return false;  // no service-time signal yet
  const std::uint64_t drain = drain_us(ewma_item_us, items_ahead, workers);
  return now + std::chrono::microseconds(drain) > deadline;
}

std::uint64_t ModelProbe::drain_estimate_us() const {
  return drain_us(ewma_item_us, work_items_ahead(*this), workers);
}

/// One sealed batch in flight. Its assembly members are claimed one at a
/// time from `next_member` — by the worker that dequeued the batch and by
/// idle workers stealing it off Impl::dispatched.
/// Members write disjoint slots of `outputs` (their own po_indices) and their
/// own MemberSlot, so no lock is needed on the data plane; the last member to
/// finish (members_left, the completion latch) finalizes. Holds a shared_ptr
/// to its model: an unloading model stays alive until its queued batches
/// resolve.
struct Engine::BatchWork {
  std::shared_ptr<ModelState> model;
  std::vector<Request> requests;
  std::vector<MemberSlot> slots;  ///< one per assembly member (from the batcher)
  std::vector<BitVec> inputs;   ///< packed PIs, width == requests.size()
  std::vector<BitVec> outputs;  ///< original PO order
  std::uint64_t seq = 0;        ///< global enqueue order; the trace's batch id
  /// Phase-decomposition stamps (us by the engine clock). sealed_at_us is
  /// written by the sealing thread before the batch enters the ready queue;
  /// dispatched_at_us by the popping worker inside the scheduler critical
  /// section. Both are plain fields: every later reader acquired queue_mu
  /// after the writer released it (pop and steal both go through it).
  std::int64_t sealed_at_us = 0;
  std::int64_t dispatched_at_us = 0;
  /// Claim cursor: fetch_add hands out member indices exactly once; values
  /// >= slots.size() mean "nothing left to claim" (overshoot is harmless).
  std::atomic<std::size_t> next_member{0};
  std::atomic<std::size_t> members_left{0};
  std::atomic<bool> failed{false};
  /// Exactly one member-claiming worker settles expired requests — its
  /// writes to Request::expired are ordered before finalize by the
  /// members_left decrement chain.
  std::atomic<bool> expiry_claimed{false};
  /// Every request expired before dispatch: members skip the simulator run.
  std::atomic<bool> skip_run{false};
  std::mutex error_mu;
  std::string error;
};

/// A loaded model: the shared read-only compiled artifact(s), the model's
/// batching queue, its admission state (bounded outstanding count), and its
/// slot in the weighted-fair scheduler. Members are the units of dispatch —
/// one for a single-LPU model, one per assembly member for a parallel model.
///
/// Lock order: the admission plane (mu/cv/outstanding) and the scheduler
/// plane (ready/pass/in_ready_list, guarded by the engine's queue_mu) are
/// disjoint; no code path holds both locks at once.
struct ModelState {
  // Immutable after registration.
  std::uint64_t id = 0;
  std::string name;
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  std::uint64_t cache_key = 0;  ///< released on unload (unless key-sharing)
  Engine* engine = nullptr;
  std::size_t queue_bound = 0;
  /// QoS share of the stride scheduler. Set at registration and re-written by
  /// Engine::set_weight (the canary lever); atomic so handle and report reads
  /// need no lock. The derived stride lives on the scheduler plane below.
  std::atomic<std::uint32_t> weight{1};
  /// SLO applied to deadline-less submits; zero means none.
  std::chrono::microseconds default_deadline{0};

  struct Member {
    const Program* program = nullptr;
    /// Index maps into the original PI/PO spaces; nullptr means identity
    /// (single-LPU models serve the whole netlist).
    const std::vector<std::uint32_t>* pi_indices = nullptr;
    const std::vector<std::uint32_t>* po_indices = nullptr;
    /// The member's AOT artifact — null until the background codegen job
    /// promotes it. Accessed with std::atomic_load/atomic_store: workers
    /// sample it once per member run, so a promotion lands between two runs,
    /// never inside one (the zero-dropped/zero-doubled guarantee), and a
    /// request already running on the interpreter finishes there bit-exactly.
    std::shared_ptr<const aot::ProgramArtifact> artifact;
  };
  std::vector<Member> members;

  /// Keep-alive for the Program pointers above; cache eviction (including the
  /// unload path) must not invalidate a model that is still being served or
  /// whose handle is still held.
  std::shared_ptr<const CompileResult> single_owner;
  std::shared_ptr<const ParallelCompileResult> parallel_owner;

  std::unique_ptr<Batcher> batcher;
  std::weak_ptr<ModelState> self;  ///< for keep-alive refs in BatchWork

  // Admission plane. `accepting` is atomic so handle queries need no lock,
  // but it is only WRITTEN under mu (the cv's lost-wakeup rule).
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;  ///< accepted, not yet answered
  std::atomic<bool> accepting{true};

  // Scheduler plane — guarded by the engine's queue_mu. `ready` holds whole
  // sealed batches; members are claimed from each batch's atomic cursor.
  std::deque<std::shared_ptr<Engine::BatchWork>> ready;
  std::uint64_t pass = 0;
  /// kStrideScale / weight. Written at registration and by set_weight's
  /// rescale path; after registration every read/write is under queue_mu.
  std::uint64_t stride = kStrideScale;
  bool in_ready_list = false;

  /// Unclaimed member work items across this model's sealed batches —
  /// incremented by members-per-batch at enqueue, decremented per member
  /// claim (by claimer or stealer). Readable without the scheduler lock: the
  /// admission plane's drain estimate must not take queue_mu on every
  /// submit, and its unit must match the per-work-item service EWMA below.
  std::atomic<std::size_t> queued_items{0};
  /// EWMA of per-work-item simulator service time (us), fed by workers. 0
  /// until the first measurable (>= 1 us) sample — admission never sheds on a
  /// model it has no service signal for.
  std::atomic<std::uint64_t> ewma_item_us{0};

  std::atomic<std::int64_t> last_used_us{0};  ///< admission time, for evict_idle

  ModelStats stats;
};

namespace {

const ModelState& deref(const std::shared_ptr<ModelState>& state) {
  if (!state) throw Error("empty model handle");
  return *state;
}

/// The lock-free counters the drain estimate reads, sampled from `m` — the
/// same for admission shedding and for probe().
ModelProbe estimate_inputs(const ModelState& m, std::size_t workers) {
  ModelProbe p;
  p.queued_items = m.queued_items.load(std::memory_order_relaxed);
  p.members = m.members.size();
  p.ewma_item_us = m.ewma_item_us.load(std::memory_order_relaxed);
  p.workers = workers;
  return p;
}

}  // namespace

const std::string& ModelHandle::name() const { return deref(state_).name; }
std::size_t ModelHandle::num_inputs() const { return deref(state_).num_inputs; }
std::size_t ModelHandle::num_outputs() const { return deref(state_).num_outputs; }
std::uint32_t ModelHandle::weight() const { return deref(state_).weight.load(); }
std::size_t ModelHandle::queue_bound() const { return deref(state_).queue_bound; }
bool ModelHandle::loaded() const {
  return state_ != nullptr && state_->accepting.load();
}

struct Engine::Impl {
  mutable std::mutex models_mu;
  /// Ordered by id == load order, so reports list models stably. unload()
  /// erases — the registry finally shrinks.
  std::map<std::uint64_t, std::shared_ptr<ModelState>> registry;
  std::uint64_t next_model_id = 1;
  /// Unloaded models' full stats history, folded in by unload() so the
  /// "(retired)" report row (and metrics spanning a version flip) keep what
  /// the registry erase would otherwise lose; the folded records forward
  /// their late events here. retired_models counts the folds. The fold and
  /// the registry erase are one step under models_mu, and a snapshot reads
  /// both under it, so it counts each history exactly once.
  ModelStats retired_stats;
  std::uint64_t retired_models = 0;

  /// Trace request-id allocator (monotonic, 1-based so 0 reads "untraced").
  std::atomic<std::uint64_t> next_req_id{1};

  /// Scheduler: models with a non-empty ready deque. Workers pick the lowest
  /// pass (weighted-fair).
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::vector<ModelState*> ready_models;
  std::uint64_t vtime = 0;  ///< pass of the most recently dispatched batch
  std::uint64_t next_seq = 0;
  bool stopping = false;
  /// Dispatched multi-member batches, whose unclaimed members idle workers
  /// may steal. Finalized husks are pruned before every scheduler pop and
  /// idle scan. Guarded by queue_mu; the member claim itself is the atomic
  /// cursor, so claimers never take this lock between members.
  std::vector<std::shared_ptr<Engine::BatchWork>> dispatched;
  /// Test instrumentation (see Engine::set_dispatch_hook /
  /// set_member_hook). Guarded by queue_mu; workers grab the shared_ptr
  /// during the pop/steal critical section and invoke outside all locks.
  std::shared_ptr<const std::function<void(const std::string&)>> dispatch_hook;
  std::shared_ptr<const Engine::MemberHook> member_hook;
  /// Fires inside evict_idle between a model's idle checks and its unload —
  /// the admission-vs-evict race window (see Engine::set_evict_hook).
  std::shared_ptr<const std::function<void(const std::string&)>> evict_hook;

  /// The timekeeper sleeps until the earliest open-batch deadline; submit
  /// bumps the epoch so a new (possibly earlier) deadline re-arms the wait.
  std::mutex timer_mu;
  std::condition_variable timer_cv;
  std::uint64_t timer_epoch = 0;
  bool timer_stop = false;

  std::atomic<std::size_t> in_flight{0};  ///< accepted, not yet answered
  std::mutex drain_mu;
  std::condition_variable drain_cv;

  std::atomic<bool> accepting{true};

  /// Programs of unloaded models, append-only. Workers cache one simulator
  /// per Program* they have served; without pruning, an unload would leak
  /// those simulators AND leave dangling-pointer keys that a later Program
  /// allocated at the same address could falsely hit. Each worker consumes
  /// this list (tracking its own position) before every sims-cache lookup.
  std::mutex retired_mu;
  std::vector<const Program*> retired_programs;
  std::atomic<std::size_t> retired_count{0};

  /// Background AOT codegen jobs — one thread per load while AOT is on,
  /// joined at shutdown. aot_pending counts jobs not yet finished;
  /// wait_aot_ready() parks on aot_cv until it hits zero (no sleeps).
  std::mutex aot_mu;
  std::condition_variable aot_cv;
  std::size_t aot_pending = 0;
  bool aot_stopping = false;
  std::vector<std::thread> aot_jobs;
};

Engine::Engine(const EngineOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : &SystemClock::instance()),
      cache_(options.cache_capacity),
      stats_since_us_(to_us(clock_->now())),
      impl_(new Impl) {
  std::uint32_t workers = options_.num_workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  if (options_.tracing || std::getenv("LBNN_FORCE_TRACING") != nullptr) {
    tracer_ = std::make_unique<Tracer>(workers, options_.trace_ring_capacity,
                                       *clock_);
  }
  aot_enabled_ = resolve_aot(options_);
  if (aot_enabled_) {
    aot_avx2_ = kernels::cpu_has_avx2() && !env_set("LBNN_NO_AVX2");
    if (!options_.artifact_dir.empty()) {
      artifact_dir_ = options_.artifact_dir;
      std::filesystem::create_directories(artifact_dir_);
    } else {
      artifact_dir_ = make_private_artifact_dir();
      own_artifact_dir_ = true;
    }
  }
  workers_.reserve(workers);
  try {
    for (std::uint32_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(1 + i); });
    }
    timer_ = std::thread([this] { timer_loop(); });
  } catch (...) {
    // A thread failed to spawn (e.g. resource exhaustion): stop and join the
    // ones that did start, so the half-built Engine destructs cleanly instead
    // of std::terminate-ing on a joinable std::thread.
    {
      std::lock_guard<std::mutex> lk(impl_->queue_mu);
      impl_->stopping = true;
    }
    impl_->queue_cv.notify_all();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    throw;
  }
}

Engine::~Engine() { shutdown(); }

void Engine::emit_trace(std::size_t track, TraceEventType type,
                        std::uint64_t model_id, std::uint64_t id,
                        std::uint32_t member, std::uint64_t arg,
                        std::uint8_t flags) {
  if (!tracer_) return;
  TraceEvent ev;
  ev.type = type;
  ev.flags = flags;
  ev.member = member;
  ev.model_id = model_id;
  ev.id = id;
  ev.arg = arg;
  tracer_->emit(track, ev);
}

ModelHandle Engine::register_model(std::shared_ptr<ModelState> state,
                                   std::size_t lane_capacity,
                                   const ModelOptions& mopt) {
  state->engine = this;
  state->weight.store(mopt.weight == 0 ? 1 : mopt.weight);
  // Floor of 1: a stride of 0 (weight > kStrideScale) would freeze the
  // model's pass at the minimum and starve every other model forever.
  state->stride = kStrideScale / state->weight.load();
  if (state->stride == 0) state->stride = 1;
  state->queue_bound =
      mopt.queue_bound != 0 ? mopt.queue_bound : 4 * lane_capacity;
  state->default_deadline = mopt.default_deadline;
  state->self = state;
  state->last_used_us.store(to_us(clock_->now()));
  ModelState* raw = state.get();
  state->batcher = std::make_unique<Batcher>(
      *clock_, state->num_inputs, lane_capacity, state->members.size(),
      options_.batch_timeout,
      [this, raw](Batch&& batch) { enqueue_batch(*raw, std::move(batch)); });
  {
    std::lock_guard<std::mutex> lk(impl_->models_mu);
    if (!impl_->accepting.load()) throw Error("engine is shut down");
    state->id = impl_->next_model_id++;
    impl_->registry.emplace(state->id, state);
  }
  if (tracer_) tracer_->register_model(state->id, state->name);
  return ModelHandle(std::move(state));
}

ModelHandle Engine::load(const std::string& name, const Netlist& nl,
                         const ModelOptions& mopt) {
  std::uint64_t key = 0;
  auto compiled = cache_.get_or_compile(nl, options_.compile, &key);
  auto state = std::make_shared<ModelState>();
  state->name = name;
  state->num_inputs = nl.num_inputs();
  state->num_outputs = nl.num_outputs();
  state->cache_key = key;
  state->single_owner = compiled;
  state->members.push_back({&compiled->program, nullptr, nullptr, nullptr});
  ModelHandle handle = register_model(
      std::move(state), compiled->program.cfg.effective_word_width(), mopt);
  if (aot_enabled_) spawn_aot_jobs(handle.state_);
  return handle;
}

ModelHandle Engine::load_parallel(const std::string& name, const Netlist& nl,
                                  std::uint32_t parallel_lpus,
                                  const ModelOptions& mopt) {
  std::uint64_t key = 0;
  auto compiled =
      cache_.get_or_compile_parallel(nl, options_.compile, parallel_lpus, &key);
  auto state = std::make_shared<ModelState>();
  state->name = name;
  state->num_inputs = nl.num_inputs();
  state->num_outputs = nl.num_outputs();
  state->cache_key = key;
  state->parallel_owner = compiled;
  for (const auto& member : compiled->members) {
    state->members.push_back(
        {&member.program, &member.pi_indices, &member.po_indices, nullptr});
  }
  ModelHandle handle = register_model(
      std::move(state),
      compiled->members.front().program.cfg.effective_word_width(), mopt);
  if (aot_enabled_) spawn_aot_jobs(handle.state_);
  return handle;
}

void Engine::spawn_aot_jobs(std::shared_ptr<ModelState> state) {
  std::lock_guard<std::mutex> lk(impl_->aot_mu);
  if (impl_->aot_stopping) return;
  ++impl_->aot_pending;
  impl_->aot_jobs.emplace_back([this, state = std::move(state)]() mutable {
    aot_build_model(*state);
    state.reset();  // release the model keep-alive before signalling ready
    {
      std::lock_guard<std::mutex> lk2(impl_->aot_mu);
      --impl_->aot_pending;
    }
    impl_->aot_cv.notify_all();
  });
}

bool Engine::resolve_aot(const EngineOptions& options) {
  // AOT needs the sliced-stream compiler: with simd off (or pinned off via
  // LBNN_FORCE_SCALAR) the engine serves the scalar oracle and artifacts
  // would diverge from the configured baseline, so the option is ignored.
  return (options.aot || env_set("LBNN_FORCE_AOT")) &&
         !env_set("LBNN_NO_AOT") && options.simd &&
         !env_set("LBNN_FORCE_SCALAR");
}

void Engine::aot_build_model(ModelState& m) {
  aot::AotOptions opt;
  opt.artifact_dir = artifact_dir_;
  opt.avx2 = aot_avx2_;
  for (std::size_t i = 0; i < m.members.size(); ++i) {
    const TimePoint t0 = clock_->now();
    std::shared_ptr<const aot::ProgramArtifact> art;
    try {
      art = cache_.get_or_build_native(*m.members[i].program, opt);
    } catch (...) {
      // compile_artifact never throws on a failed native build, so this is a
      // resource failure (e.g. the artifact dir vanished). The member simply
      // keeps serving on the interpreter — promotion is an optimization,
      // never a liveness dependency.
      continue;
    }
    // Promote only to native code. An artifact without it (no compiler, or a
    // failed codegen — counted in CacheStats::native_failures) would replay
    // the same stream the member's sliced interpreter already runs.
    if (art->kind != BackendKind::kAotNative) continue;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        clock_->now() - t0)
                        .count();
    std::atomic_store(&m.members[i].artifact, std::move(art));
    emit_trace(Tracer::kSharedTrack, TraceEventType::kPromote, m.id, 0,
               static_cast<std::uint32_t>(i),
               us > 0 ? static_cast<std::uint64_t>(us) : 0, kTraceFlagNative);
  }
}

void Engine::wait_aot_ready() {
  std::unique_lock<std::mutex> lk(impl_->aot_mu);
  impl_->aot_cv.wait(lk, [this] { return impl_->aot_pending == 0; });
}

std::future<ModelHandle> Engine::load_async(std::string name, Netlist nl,
                                            ModelOptions mopt) {
  // Compilation no longer holds the cache lock, so concurrent async loads of
  // distinct models genuinely overlap; same-key loads join one compile.
  return std::async(std::launch::async,
                    [this, name = std::move(name), nl = std::move(nl), mopt] {
                      return load(name, nl, mopt);
                    });
}

ModelState* Engine::state_of(const ModelHandle& handle) const {
  if (!handle.state_) throw Error("empty model handle");
  if (handle.state_->engine != this) {
    throw Error("model handle belongs to a different engine");
  }
  return handle.state_.get();
}

std::vector<std::shared_ptr<ModelState>> Engine::model_snapshot() const {
  std::vector<std::shared_ptr<ModelState>> out;
  std::lock_guard<std::mutex> lk(impl_->models_mu);
  out.reserve(impl_->registry.size());
  for (const auto& [id, state] : impl_->registry) out.push_back(state);
  return out;
}

ModelProbe Engine::probe(const ModelHandle& model) const {
  ModelState* m = state_of(model);
  ModelProbe p = estimate_inputs(*m, workers_.size());
  p.loaded = m->accepting.load();
  {
    std::lock_guard<std::mutex> lk(m->mu);
    p.outstanding = m->outstanding;
  }
  return p;
}

std::size_t Engine::in_flight() const { return impl_->in_flight.load(); }

std::size_t Engine::num_models() const {
  std::lock_guard<std::mutex> lk(impl_->models_mu);
  return impl_->registry.size();
}

namespace {

/// Arity is a usage bug: reject before claiming admission (a wrong-arity
/// blocking submit must throw immediately, not park on backpressure first).
void check_arity(const ModelState& m, std::size_t got) {
  if (got != m.num_inputs) {
    throw Error("request has " + std::to_string(got) +
                " input bits, model expects " + std::to_string(m.num_inputs));
  }
}

/// The request's absolute deadline: explicit per-submit wins; otherwise the
/// model's default SLO anchored at admission time; otherwise none.
TimePoint effective_deadline(const ModelState& m, TimePoint requested,
                             TimePoint now) {
  if (requested != kNoDeadline) return requested;
  if (m.default_deadline.count() == 0) return kNoDeadline;
  return now + m.default_deadline;
}

/// Would admitting a request with this deadline be dead work, given the
/// model's queued work (see work_items_ahead) and its recent service rate?
bool shed_check(const ModelState& m, TimePoint deadline, TimePoint now,
                std::size_t workers) {
  const ModelProbe p = estimate_inputs(m, workers);
  return deadline_unmeetable(deadline, now, p.ewma_item_us,
                             work_items_ahead(p), p.workers);
}

}  // namespace

std::future<std::vector<bool>> Engine::submit(const ModelHandle& model,
                                              std::vector<bool> inputs,
                                              TimePoint deadline) {
  std::future<std::vector<bool>> fut;
  const SubmitStatus status =
      admit(model, std::move(inputs), deadline, /*block=*/true, &fut);
  if (status == SubmitStatus::kShuttingDown) throw Error("engine is shut down");
  if (status == SubmitStatus::kUnloaded) {
    throw Error("model '" + model.name() + "' is unloaded");
  }
  if (status == SubmitStatus::kDeadlineUnmeetable) {
    throw DeadlineExceeded("model '" + model.name() +
                           "': estimated drain time exceeds the deadline");
  }
  LBNN_CHECK(status == SubmitStatus::kAccepted,
             "blocking admission returned " << to_string(status));
  return fut;
}

SubmitStatus Engine::try_submit(const ModelHandle& model,
                                std::vector<bool> inputs,
                                std::future<std::vector<bool>>* result,
                                TimePoint deadline) {
  return admit(model, std::move(inputs), deadline, /*block=*/false, result);
}

SubmitStatus Engine::admit(const ModelHandle& model, std::vector<bool>&& inputs,
                           TimePoint deadline, bool block,
                           std::future<std::vector<bool>>* result) {
  ModelState* m = state_of(model);
  check_arity(*m, inputs.size());
  TimePoint now = clock_->now();
  deadline = effective_deadline(*m, deadline, now);
  const std::uint64_t req_id =
      impl_->next_req_id.fetch_add(1, std::memory_order_relaxed);
  emit_trace(Tracer::kSharedTrack, TraceEventType::kSubmit, m->id, req_id, 0,
             deadline == kNoDeadline ? 0
                                     : static_cast<std::uint64_t>(to_us(deadline)));
  // Claim the request BEFORE the accepting checks: shutdown() flips accepting
  // and then drains, so either this claim lands before drain's in_flight read
  // (drain waits for us; timer/workers stay alive until we're answered) or it
  // lands after, in which case accepting is already false here and we bail.
  impl_->in_flight.fetch_add(1);
  // Lifecycle states outrank shedding (a shut-down engine reports shutdown,
  // not a shed), and shedding precedes the bound: a doomed request fails in
  // microseconds instead of waiting out a slot it could only waste. Runs
  // under m->mu.
  const auto ladder = [&] {
    if (!impl_->accepting.load()) return SubmitStatus::kShuttingDown;
    if (!m->accepting.load()) return SubmitStatus::kUnloaded;
    if (shed_check(*m, deadline, now, workers_.size())) {
      return SubmitStatus::kDeadlineUnmeetable;
    }
    if (m->outstanding < m->queue_bound) return SubmitStatus::kAccepted;
    return SubmitStatus::kQueueFull;
  };
  std::unique_lock<std::mutex> lk(m->mu);
  SubmitStatus status = ladder();
  // A blocked caller re-runs the whole ladder on every wake, at the new time:
  // backpressure may have parked it long enough for its deadline to become
  // unmeetable.
  while (block && status == SubmitStatus::kQueueFull) {
    m->cv.wait(lk);
    now = clock_->now();
    status = ladder();
  }
  if (status == SubmitStatus::kAccepted) ++m->outstanding;
  lk.unlock();
  if (status != SubmitStatus::kAccepted) {
    if (status == SubmitStatus::kDeadlineUnmeetable) {
      m->stats.record([](StatsRecord& s) { ++s.shed; });
      emit_trace(Tracer::kSharedTrack, TraceEventType::kShed, m->id, req_id);
    }
    release_requests(1);
    return status;
  }
  m->last_used_us.store(to_us(now));
  // kAdmit BEFORE the batcher call: a lane-full submit seals inline, and the
  // admit of the sealing request must precede its batch's seal in the stream.
  emit_trace(Tracer::kSharedTrack, TraceEventType::kAdmit, m->id, req_id);
  bool opened_batch = false;
  try {
    *result =
        m->batcher->submit(std::move(inputs), deadline, &opened_batch, req_id);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(m->mu);
      --m->outstanding;
    }
    m->cv.notify_all();
    release_requests(1);
    throw;
  }
  if (opened_batch) {
    // A new deadline exists; re-arm the timekeeper's wait.
    {
      std::lock_guard<std::mutex> lk(impl_->timer_mu);
      ++impl_->timer_epoch;
    }
    impl_->timer_cv.notify_one();
  }
  return SubmitStatus::kAccepted;
}

bool Engine::unload(const ModelHandle& model) {
  if (!model.state_) return false;
  ModelState* m = state_of(model);
  {
    std::lock_guard<std::mutex> lk(m->mu);
    if (!m->accepting.load()) return false;  // lost a concurrent unload race
    m->accepting.store(false);
  }
  m->cv.notify_all();  // blocked submitters observe !accepting and bail
  // Drain the model's outstanding requests: every accepted future resolves
  // before the model leaves the registry. The flush runs in a short poll loop
  // because a submitter that won admission just before the flag flipped may
  // append to a NEW open batch after a single flush (and the engine-wide
  // batch timeout may be arbitrarily long).
  {
    std::unique_lock<std::mutex> lk(m->mu);
    while (m->outstanding != 0) {
      lk.unlock();
      m->batcher->flush();
      lk.lock();
      m->cv.wait_for(lk, std::chrono::milliseconds(1),
                     [&] { return m->outstanding == 0; });
    }
  }
  // Retire the model's programs so workers drop their cached simulators for
  // them (a shared-key replica that is still loaded just recreates its
  // simulator on the next batch — a minor cost, never a correctness issue).
  {
    std::lock_guard<std::mutex> lk(impl_->retired_mu);
    for (const auto& member : m->members) {
      impl_->retired_programs.push_back(member.program);
    }
    impl_->retired_count.store(impl_->retired_programs.size());
  }
  {
    std::lock_guard<std::mutex> lk(impl_->models_mu);
    // Fold the model's full stats history into the persistent retired
    // aggregate BEFORE the registry erase: stats_snapshot() reads the pair
    // under the same lock, so no snapshot sees the row gone but the fold
    // missing. Events that land later (a shed counted after admission let
    // go of m->mu) forward to the retired row.
    m->stats.retire_into(impl_->retired_stats);
    ++impl_->retired_models;
    impl_->registry.erase(m->id);
    // Release the cache's pin on this model's program — unless another loaded
    // model (a replica) shares the key and still wants the cached artifact.
    // (A same-key load that has compiled but not yet registered is invisible
    // to this scan; it keeps its own pin, so the only cost of that rare race
    // is a spurious recompile on a later load.)
    bool key_shared = false;
    for (const auto& [id, other] : impl_->registry) {
      if (other->cache_key == m->cache_key) {
        key_shared = true;
        break;
      }
    }
    if (!key_shared) cache_.erase(m->cache_key);
  }
  return true;
}

bool Engine::set_weight(const ModelHandle& model, std::uint32_t weight) {
  ModelState* m = state_of(model);
  if (weight == 0) weight = 1;
  if (!m->accepting.load()) return false;  // unloaded: nothing left to share
  std::lock_guard<std::mutex> lk(impl_->queue_mu);
  std::uint64_t stride = kStrideScale / weight;
  if (stride == 0) stride = 1;  // same starvation floor as registration
  // Re-price the model's pending credit: the lag (pass - vtime) is service
  // debt accrued at the old stride. Scaling it by new/old keeps the model's
  // relative place in line — it neither jumps the queue (pass = vtime would
  // grant instant service) nor keeps paying off old debt at the old rate.
  if (m->pass > impl_->vtime && m->stride > 0) {
    const std::uint64_t lag = m->pass - impl_->vtime;
    m->pass = impl_->vtime + lag * stride / m->stride;
  }
  m->stride = stride;
  m->weight.store(weight);
  return true;
}

std::size_t Engine::evict_idle(Duration min_idle) {
  // `min_idle` is interpreted on the injected ClockSource domain — the same
  // domain that stamps last_used_us — so under a ManualClock "idle for 10
  // minutes" means 10 advance()d minutes, and eviction policy is testable
  // deterministically like every other engine timing decision.
  const std::int64_t cutoff =
      to_us(clock_->now()) -
      std::chrono::duration_cast<std::chrono::microseconds>(min_idle).count();
  std::shared_ptr<const std::function<void(const std::string&)>> hook;
  {
    std::lock_guard<std::mutex> lk(impl_->queue_mu);
    hook = impl_->evict_hook;
  }
  std::size_t evicted = 0;
  for (const auto& m : model_snapshot()) {
    if (m->last_used_us.load() > cutoff) continue;
    {
      std::lock_guard<std::mutex> lk(m->mu);
      if (m->outstanding != 0) continue;  // actively serving; not idle
    }
    // The idle checks above and the unload below are deliberately NOT one
    // atomic step: a submit can still admit in this window (it raced the
    // eviction and won). unload() tolerates that by construction — it first
    // flips `accepting` (later submits are refused, never dropped) and then
    // drains, so anything admitted here is still served. The hook lets tests
    // land an admission exactly in the window and pin that guarantee.
    if (hook) (*hook)(m->name);
    if (unload(ModelHandle(m))) ++evicted;
  }
  return evicted;
}

void Engine::enqueue_batch(ModelState& model, Batch&& batch) {
  std::shared_ptr<ModelState> self = model.self.lock();
  LBNN_CHECK(self != nullptr, "batcher outlived its model state");
  LBNN_CHECK(batch.member_slots.size() == model.members.size(),
             "sealed batch member slots do not match the assembly width");
  auto work = std::make_shared<BatchWork>();
  work->model = std::move(self);
  work->requests = std::move(batch.requests);
  work->slots = std::move(batch.member_slots);
  work->inputs = pack_requests(work->requests, model.num_inputs);
  // Every member run moves its outputs in; compile_parallel gives each PO
  // to exactly one member, so no slot needs a placeholder word.
  work->outputs.resize(model.num_outputs);
  work->members_left.store(work->slots.size());
  work->sealed_at_us = to_us(clock_->now());
  const std::size_t items = work->slots.size();
  const std::size_t n_requests = work->requests.size();
  {
    std::lock_guard<std::mutex> lk(impl_->queue_mu);
    work->seq = impl_->next_seq++;
    // Seal + enqueue events INSIDE the scheduler critical section: no worker
    // can pop (and emit kDispatch for) this batch until the unlock below, so
    // seal < enqueue < dispatch holds in the global seq order. The tracer's
    // shared-ring lock is a leaf; queue_mu -> shared_mu is the only nesting.
    emit_trace(Tracer::kSharedTrack, TraceEventType::kSeal, model.id, work->seq,
               0, n_requests);
    model.ready.push_back(std::move(work));
    if (!model.in_ready_list) {
      // A model re-entering the ready set starts at the current virtual time,
      // not its stale pass — otherwise it would monopolize workers to "catch
      // up" for the interval it had nothing queued.
      if (model.pass < impl_->vtime) model.pass = impl_->vtime;
      impl_->ready_models.push_back(&model);
      model.in_ready_list = true;
    }
    const std::size_t depth =
        model.queued_items.fetch_add(items, std::memory_order_relaxed) + items;
    model.stats.record([depth](StatsRecord& s) { s.note_queue_depth(depth); });
    emit_trace(Tracer::kSharedTrack, TraceEventType::kEnqueue, model.id,
               impl_->next_seq - 1, 0, depth);
  }
  // One batch is one scheduler pop: wake one worker. The popper re-notifies
  // when it publishes a multi-member batch for stealing.
  impl_->queue_cv.notify_one();
}

struct Engine::WorkerContext {
  /// Per-program executors this worker owns. The interpreter and the AOT
  /// executor both carry per-run scratch (the Program/artifact are shared and
  /// read-only), so each worker builds its own. `artifact` remembers which
  /// promotion the cached AotExecutor was built from — a re-promotion (never
  /// expected today, but the check is one pointer compare) rebuilds it.
  struct Exec {
    std::unique_ptr<LpuSimulator> sim;
    std::shared_ptr<const aot::ProgramArtifact> artifact;
    std::unique_ptr<aot::AotExecutor> aot;
  };
  std::unordered_map<const Program*, Exec> sims;
  std::size_t retired_seen = 0;  ///< position consumed in retired_programs
  std::size_t track = 0;         ///< this worker's trace ring (1 + worker index)
};

void Engine::prune_dispatched_locked() {
  auto& dispatched = impl_->dispatched;
  for (std::size_t i = 0; i < dispatched.size();) {
    if (dispatched[i]->members_left.load() == 0) {
      // Finalized husk: prune (swap-pop keeps the sweep O(entries)).
      dispatched[i] = std::move(dispatched.back());
      dispatched.pop_back();
    } else {
      ++i;
    }
  }
}

bool Engine::try_steal_locked(std::shared_ptr<BatchWork>* work,
                              std::size_t* member) {
  for (const auto& entry : impl_->dispatched) {
    BatchWork& candidate = *entry;
    const std::size_t total = candidate.slots.size();
    if (candidate.next_member.load(std::memory_order_relaxed) >= total) {
      continue;  // exhausted cursor
    }
    // The claim races the batch's own claimer (who holds no lock): fetch_add
    // both reserves an index and detects exhaustion.
    const std::size_t claimed = candidate.next_member.fetch_add(1);
    if (claimed < total) {
      candidate.model->queued_items.fetch_sub(1, std::memory_order_relaxed);
      *work = entry;
      *member = claimed;
      return true;
    }
  }
  return false;
}

void Engine::worker_loop(std::size_t track) {
  WorkerContext ctx;
  ctx.track = track;
  for (;;) {
    std::shared_ptr<BatchWork> work;
    std::size_t stolen_member = 0;
    bool stolen = false;
    bool published = false;
    std::shared_ptr<const std::function<void(const std::string&)>> hook;
    std::shared_ptr<const MemberHook> member_hook;
    {
      std::unique_lock<std::mutex> lk(impl_->queue_mu);
      for (;;) {
        // Sweep finished husks out of the in-flight list first — under
        // sustained load the pop path below is the only one that runs, and
        // the list must not grow with every batch served.
        if (!impl_->dispatched.empty()) prune_dispatched_locked();
        if (!impl_->ready_models.empty()) {
          // Claim phase 1: a fresh batch from the scheduler.
          std::size_t best = 0;
          for (std::size_t i = 1; i < impl_->ready_models.size(); ++i) {
            if (impl_->ready_models[i]->pass <
                impl_->ready_models[best]->pass) {
              best = i;
            }
          }
          ModelState* m = impl_->ready_models[best];
          work = std::move(m->ready.front());
          m->ready.pop_front();
          work->dispatched_at_us = to_us(clock_->now());
          // kDispatch inside the critical section: a stealer cannot claim a
          // member of this batch until it acquires queue_mu after our unlock,
          // so dispatch always precedes every steal of it in seq order.
          emit_trace(track, TraceEventType::kDispatch, m->id, work->seq);
          impl_->vtime = m->pass;
          // One batch is slots.size() work items of this model's share.
          m->pass += m->stride * work->slots.size();
          if (m->ready.empty()) {
            impl_->ready_models[best] = impl_->ready_models.back();
            impl_->ready_models.pop_back();
            m->in_ready_list = false;
          }
          if (work->slots.size() > 1) {
            // Publish the batch so idle workers steal members we have not
            // claimed yet; visible before any of them can miss a wakeup
            // (the notify below happens after this critical section).
            impl_->dispatched.push_back(work);
            published = true;
          }
          hook = impl_->dispatch_hook;
          member_hook = impl_->member_hook;
          break;
        }
        // Claim phase 2: steal a member from an in-flight batch rather than
        // sleep while a sibling straggles.
        if (try_steal_locked(&work, &stolen_member)) {
          stolen = true;
          member_hook = impl_->member_hook;
          break;
        }
        if (impl_->stopping) return;  // nothing queued or stealable
        impl_->queue_cv.wait(lk);
      }
    }
    if (published) impl_->queue_cv.notify_all();
    if (stolen) {
      run_member(*work, stolen_member, /*stolen=*/true, ctx, member_hook);
      continue;
    }
    if (hook) (*hook)(work->model->name);
    // Cooperative claim loop: take members off the cursor until stealers (or
    // we) exhaust it. Claiming one at a time means a steal can land between
    // any two of our runs — the whole point.
    for (;;) {
      const std::size_t member = work->next_member.fetch_add(1);
      if (member >= work->slots.size()) break;
      work->model->queued_items.fetch_sub(1, std::memory_order_relaxed);
      run_member(*work, member, /*stolen=*/false, ctx, member_hook);
    }
  }
}

void Engine::run_member(BatchWork& work, std::size_t member_index, bool stolen,
                        WorkerContext& ctx,
                        const std::shared_ptr<const MemberHook>& hook) {
  // Drop simulators of unloaded models BEFORE the lookup below: a stale
  // entry is a leak, and its key may alias a newly compiled Program.
  if (impl_->retired_count.load() != ctx.retired_seen) {
    std::lock_guard<std::mutex> lk(impl_->retired_mu);
    for (; ctx.retired_seen < impl_->retired_programs.size();
         ++ctx.retired_seen) {
      ctx.sims.erase(impl_->retired_programs[ctx.retired_seen]);
    }
  }

  emit_trace(ctx.track,
             stolen ? TraceEventType::kMemberSteal : TraceEventType::kMemberClaim,
             work.model->id, work.seq, static_cast<std::uint32_t>(member_index),
             0, stolen ? kTraceFlagStolen : std::uint8_t{0});
  // The first member claimed anywhere settles requests that are already
  // past their deadline: their futures fail NOW, with DeadlineExceeded,
  // and a fully-expired batch skips the simulator entirely. Later members
  // follow the settler's verdict rather than re-deciding at their own,
  // later, now — a batch the settler found live must execute every member,
  // or live requests would receive values with unwritten output slices.
  if (!work.expiry_claimed.exchange(true)) {
    if (!drop_expired_requests(work, ctx.track)) work.skip_run.store(true);
  }
  const bool skip = work.skip_run.load();

  // The cursor handed this member to this worker alone: it owns the slot,
  // the member's outputs slice, and one completion-latch decrement.
  MemberSlot& slot = work.slots[member_index];
  const ModelState::Member& member = work.model->members[member_index];
  if (!skip) {
    const TimePoint t0 = clock_->now();
    try {
      // Pick the member's backend ONCE per run: a promotion that lands while
      // this run executes takes effect on the next one. The artifact
      // shared_ptr keeps the dlopen'd code mapped for as long as any worker
      // still holds an executor over it.
      WorkerContext::Exec& entry = ctx.sims[member.program];
      ExecutorBackend* exec;
      if (auto artifact = std::atomic_load(&member.artifact)) {
        if (entry.artifact != artifact) {
          entry.aot =
              std::make_unique<aot::AotExecutor>(*member.program, artifact);
          entry.artifact = std::move(artifact);
        }
        exec = entry.aot.get();
      } else {
        if (!entry.sim) {
          entry.sim =
              std::make_unique<LpuSimulator>(*member.program, options_.simd);
        }
        exec = entry.sim.get();
      }

      const std::vector<BitVec>* in = &work.inputs;
      std::vector<BitVec> gathered;
      if (member.pi_indices != nullptr) {
        gathered.reserve(member.pi_indices->size());
        for (const std::uint32_t pi : *member.pi_indices) {
          gathered.push_back(work.inputs[pi]);
        }
        in = &gathered;
      }

      // The member hook is inside the timed region on purpose: benches use
      // it to give one member an artificial straggler delay, and that delay
      // must show up in the service EWMA and member percentiles.
      if (hook) (*hook)(work.model->name, member_index);
      std::vector<BitVec> out = exec->run(*in);
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          clock_->now() - t0)
                          .count();
      const std::uint64_t service_us =
          us > 0 ? static_cast<std::uint64_t>(us) : 0;
      slot.ran = true;
      slot.sim = exec->counters();
      slot.stolen = stolen;
      slot.backend = static_cast<std::uint8_t>(exec->backend_kind());
      slot.service_us = service_us;
      // Feed the admission shedder's per-item service EWMA. Sub-microsecond
      // samples are dropped rather than rounded up: under a ManualClock the
      // simulator takes zero manual time, and learning a fake floor there
      // would make deterministic tests shed nondeterministically.
      if (service_us > 0) {
        ModelState& model_state = *work.model;
        const std::uint64_t prev =
            model_state.ewma_item_us.load(std::memory_order_relaxed);
        model_state.ewma_item_us.store(
            prev == 0 ? service_us : (3 * prev + service_us) / 4,
            std::memory_order_relaxed);
      }

      if (member.po_indices != nullptr) {
        for (std::size_t i = 0; i < out.size(); ++i) {
          work.outputs[(*member.po_indices)[i]] = std::move(out[i]);
        }
      } else {
        for (std::size_t i = 0; i < out.size(); ++i) {
          work.outputs[i] = std::move(out[i]);
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(work.error_mu);
      work.failed.store(true);
      if (work.error.empty()) work.error = e.what();
    }
  }

  slot.done_at_us = to_us(clock_->now());
  {
    std::uint8_t flags = 0;
    if (stolen) flags |= kTraceFlagStolen;
    if (skip) flags |= kTraceFlagSkipped;
    if (slot.ran &&
        slot.backend == static_cast<std::uint8_t>(BackendKind::kAotNative)) {
      flags |= kTraceFlagNative;
    }
    emit_trace(ctx.track, TraceEventType::kMemberDone, work.model->id, work.seq,
               static_cast<std::uint32_t>(member_index), slot.service_us, flags);
  }
  if (work.members_left.fetch_sub(1) == 1) finalize(work, ctx.track);
}

bool Engine::drop_expired_requests(BatchWork& work, std::size_t track) {
  const TimePoint now = clock_->now();
  std::size_t expired = 0;
  for (auto& req : work.requests) {
    // The deadline is inclusive — finishing AT it is on time — so only
    // now > deadline expires, matching finalize()'s deadline_met boundary.
    if (req.deadline == kNoDeadline || now <= req.deadline) continue;
    req.expired = true;
    ++expired;
  }
  if (expired == 0) return true;
  // Counters BEFORE the promises fail (the same rule finalize() follows): a
  // client that wakes from get() with DeadlineExceeded and immediately calls
  // report() must see its request in `expired`.
  work.model->stats.record([expired](StatsRecord& s) { s.expired += expired; });
  emit_trace(track, TraceEventType::kExpire, work.model->id, work.seq, 0,
             expired);
  for (auto& req : work.requests) {
    if (!req.expired) continue;
    emit_trace(track, TraceEventType::kRequestDone, work.model->id, req.id, 0, 0,
               kTraceFlagExpired);
    req.result.set_exception(std::make_exception_ptr(DeadlineExceeded(
        "request expired in '" + work.model->name + "' queue before dispatch")));
  }
  return expired != work.requests.size();
}

void Engine::finalize(BatchWork& work, std::size_t track) {
  ModelState& m = *work.model;
  const TimePoint now = clock_->now();
  const bool failed = work.failed.load();
  // The whole batch lands in the model's record under one lock, BEFORE any
  // future resolves: a client that wakes from .get() and immediately calls
  // report() must see its request counted. Member slots are complete here —
  // every runner's writes are ordered before this point by the members_left
  // decrement chain.
  m.stats.record([&](StatsRecord& s) {
    s.add_batch(work.requests, work.slots, m.batcher->lane_capacity(), failed,
                work.sealed_at_us, work.dispatched_at_us, now);
  });
  // Requests the dequeue-time expiry pass already failed are settled; only
  // the live remainder gets values or errors here.
  std::size_t live = 0;
  for (const auto& req : work.requests) {
    if (!req.expired) ++live;
  }
  emit_trace(track, TraceEventType::kFinalize, m.id, work.seq, 0, live,
             failed ? kTraceFlagFailed : std::uint8_t{0});
  if (failed) {
    for (auto& req : work.requests) {
      if (req.expired) continue;
      emit_trace(track, TraceEventType::kRequestDone, m.id, req.id, 0, 0,
                 kTraceFlagFailed);
      req.result.set_exception(
          std::make_exception_ptr(Error("batch failed: " + work.error)));
    }
  } else if (live > 0) {
    auto per_request = unpack_outputs(work.outputs, work.requests.size());
    for (std::size_t i = 0; i < work.requests.size(); ++i) {
      if (work.requests[i].expired) continue;
      const auto latency_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                  now - work.requests[i].enqueued)
                                  .count();
      emit_trace(track, TraceEventType::kRequestDone, m.id, work.requests[i].id,
                 0, latency_us > 0 ? static_cast<std::uint64_t>(latency_us) : 0);
      work.requests[i].result.set_value(std::move(per_request[i]));
    }
  }
  const std::size_t n = work.requests.size();
  {
    std::lock_guard<std::mutex> lk(m.mu);
    m.outstanding -= n;
  }
  m.cv.notify_all();  // free admission slots (backpressure) and unload waits
  release_requests(n);
}

void Engine::release_requests(std::size_t n) {
  if (impl_->in_flight.fetch_sub(n) == n) {
    std::lock_guard<std::mutex> lk(impl_->drain_mu);
    impl_->drain_cv.notify_all();
  }
}

void Engine::timer_loop() {
  std::unique_lock<std::mutex> lk(impl_->timer_mu);
  for (;;) {
    if (impl_->timer_stop) return;
    const std::uint64_t seen = impl_->timer_epoch;

    std::optional<TimePoint> earliest;
    auto models = model_snapshot();
    for (const auto& m : models) {
      const auto d = m->batcher->deadline();
      if (d && (!earliest || *d < *earliest)) earliest = d;
    }

    const auto woken = [this, seen] {
      return impl_->timer_stop || impl_->timer_epoch != seen;
    };
    if (earliest) {
      // Sleep by the engine's clock: under a ManualClock this parks until a
      // test advances time past the seal deadline — no real waiting at all.
      clock_->wait_until(lk, impl_->timer_cv, *earliest, woken);
      if (impl_->timer_stop) return;
      lk.unlock();
      const TimePoint now = clock_->now();
      // Seal outside models_mu: on_seal packs the whole batch, and submit()
      // needs no registry lock but loads/unloads do — the snapshot's
      // shared_ptrs keep every batcher alive across the seal.
      for (const auto& m : models) m->batcher->seal_if_expired(now);
      lk.lock();
    } else {
      impl_->timer_cv.wait(lk, woken);
    }
  }
}

void Engine::set_dispatch_hook(std::function<void(const std::string&)> hook) {
  std::lock_guard<std::mutex> lk(impl_->queue_mu);
  if (hook) {
    impl_->dispatch_hook =
        std::make_shared<const std::function<void(const std::string&)>>(
            std::move(hook));
  } else {
    impl_->dispatch_hook = nullptr;
  }
}

void Engine::set_member_hook(
    std::function<void(const std::string&, std::size_t)> hook) {
  std::lock_guard<std::mutex> lk(impl_->queue_mu);
  if (hook) {
    impl_->member_hook = std::make_shared<const MemberHook>(std::move(hook));
  } else {
    impl_->member_hook = nullptr;
  }
}

void Engine::set_evict_hook(std::function<void(const std::string&)> hook) {
  std::lock_guard<std::mutex> lk(impl_->queue_mu);
  if (hook) {
    impl_->evict_hook =
        std::make_shared<const std::function<void(const std::string&)>>(
            std::move(hook));
  } else {
    impl_->evict_hook = nullptr;
  }
}

ServeReport Engine::report() const { return make_report(stats_snapshot()); }

StatsSnapshot Engine::stats_snapshot() const {
  std::vector<std::shared_ptr<ModelState>> live;
  // Unloaded models fold into one persistent row instead of vanishing, under
  // a name no real model can shadow; it has no scheduler share and no
  // admission plane.
  ModelRecord retired;
  retired.name = "(retired)";
  retired.weight = 0;
  bool has_retired = false;
  {
    // The registry and the retired record are read in one step, so a model
    // unloading concurrently is counted exactly once: either its fold is in
    // this copy, or it is in `live` and its own record is read below.
    std::lock_guard<std::mutex> lk(impl_->models_mu);
    live.reserve(impl_->registry.size());
    for (const auto& [id, m] : impl_->registry) live.push_back(m);
    has_retired = impl_->retired_models > 0;
    if (has_retired) retired.stats = impl_->retired_stats.snapshot();
  }
  StatsSnapshot snap;
  snap.rows.reserve(live.size() + 1);
  for (const auto& m : live) {
    ModelRecord row;
    row.name = m->name;
    row.weight = m->weight.load();
    row.queue_bound = m->queue_bound;
    row.stats = m->stats.snapshot();
    snap.rows.push_back(std::move(row));
  }
  if (has_retired) snap.rows.push_back(std::move(retired));
  // Every row shares the engine-wide window: models load at different
  // times, but one common denominator keeps the rows' rates comparable.
  snap.wall_seconds =
      static_cast<double>(to_us(clock_->now()) - stats_since_us_.load()) / 1e6;
  return snap;
}

void Engine::reset_stats() {
  std::lock_guard<std::mutex> lk(impl_->models_mu);
  for (const auto& [id, m] : impl_->registry) m->stats.reset();
  impl_->retired_stats.reset();
  stats_since_us_.store(to_us(clock_->now()));
}

void Engine::export_trace(std::ostream& os) {
  if (!tracer_) {
    os << "{\"traceEvents\":[],\"otherData\":{\"droppedEvents\":0}}\n";
    return;
  }
  tracer_->export_chrome_trace(os);
}

std::uint64_t Engine::export_trace_events(std::ostream& os, int pid,
                                          const std::string& process_name,
                                          bool* first) {
  if (!tracer_) return 0;
  tracer_->export_chrome_events(os, pid, process_name, *first);
  return tracer_->dropped();
}

std::vector<TraceEvent> Engine::drain_trace() {
  return tracer_ ? tracer_->drain() : std::vector<TraceEvent>{};
}

std::uint64_t Engine::trace_dropped() const {
  return tracer_ ? tracer_->dropped() : 0;
}

std::string Engine::trace_model_name(std::uint64_t model_id) const {
  return tracer_ ? tracer_->model_name(model_id) : std::string();
}

std::string Engine::metrics_prometheus() const { return to_prometheus(report()); }

std::string Engine::metrics_json() const { return to_json(report()); }

void Engine::drain() {
  // Flush-and-wait in a short poll loop: a submitter that won admission
  // concurrently with the flush may open a fresh batch right after it, and
  // the batch timeout may be arbitrarily long.
  std::unique_lock<std::mutex> lk(impl_->drain_mu);
  while (impl_->in_flight.load() != 0) {
    lk.unlock();
    for (const auto& m : model_snapshot()) m->batcher->flush();
    lk.lock();
    impl_->drain_cv.wait_for(lk, std::chrono::milliseconds(1),
                             [this] { return impl_->in_flight.load() == 0; });
  }
}

void Engine::shutdown() {
  impl_->accepting.store(false);
  // Wake submitters blocked on per-model backpressure so they observe the
  // shutdown and release their in-flight claims — drain() below waits on
  // those claims. The empty lock acquisition pairs with the cv wait to rule
  // out the flip landing between a waiter's predicate check and its sleep.
  for (const auto& m : model_snapshot()) {
    { std::lock_guard<std::mutex> lk(m->mu); }
    m->cv.notify_all();
  }
  drain();
  {
    std::lock_guard<std::mutex> lk(impl_->timer_mu);
    impl_->timer_stop = true;
  }
  impl_->timer_cv.notify_all();
  {
    std::lock_guard<std::mutex> lk(impl_->queue_mu);
    impl_->stopping = true;
  }
  impl_->queue_cv.notify_all();
  if (timer_.joinable()) timer_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Join in-flight AOT codegen jobs after the workers: a late promotion on a
  // dead engine is harmless, but the jobs touch the cache and tracer, which
  // must outlive them. New jobs cannot appear (loads reject, and the
  // stopping flag closes the spawn window for any load already past that
  // check).
  std::vector<std::thread> aot_jobs;
  {
    std::lock_guard<std::mutex> lk(impl_->aot_mu);
    impl_->aot_stopping = true;
    aot_jobs.swap(impl_->aot_jobs);
  }
  for (auto& t : aot_jobs) {
    if (t.joinable()) t.join();
  }
  if (own_artifact_dir_) {
    // Best-effort: a private artifact dir dies with its process anyway.
    std::error_code ec;
    std::filesystem::remove_all(artifact_dir_, ec);
    own_artifact_dir_ = false;
  }
}

}  // namespace lbnn::runtime
