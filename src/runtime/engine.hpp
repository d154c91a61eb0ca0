#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "netlist/netlist.hpp"
#include "runtime/batcher.hpp"
#include "runtime/clock.hpp"
#include "runtime/program_cache.hpp"
#include "runtime/serve_stats.hpp"
#include "runtime/trace.hpp"

namespace lbnn::runtime {

/// Outcome of a non-blocking admission attempt.
enum class SubmitStatus : std::uint8_t {
  kAccepted,            ///< request admitted; the future will resolve
  kQueueFull,           ///< the model's queue bound is reached; try again later
  kUnloaded,            ///< the handle's model has been unloaded from this engine
  kShuttingDown,        ///< the engine is shutting down
  kDeadlineUnmeetable,  ///< estimated queue drain time already exceeds the
                        ///< request's deadline; accepting it would be dead work
};

const char* to_string(SubmitStatus status);

/// Per-model serving options, fixed at load time.
struct ModelOptions {
  /// Maximum outstanding (accepted but unanswered) requests for this model.
  /// submit() blocks when the bound is reached — real backpressure instead of
  /// unbounded in-flight growth — and try_submit() returns kQueueFull.
  /// 0 means 4x the model's lane capacity (a few batches of headroom).
  std::size_t queue_bound = 0;
  /// Weighted-fair share of worker time relative to the other loaded models
  /// (stride scheduling): with both backlogged, a weight-4 model is
  /// dispatched 4x as often as a weight-1 model. 0 is treated as 1.
  std::uint32_t weight = 1;
  /// SLO for requests submitted without an explicit deadline: each gets
  /// `admission time + default_deadline` as its absolute deadline. 0 (the
  /// default) means such requests never expire. An explicit per-submit
  /// deadline always wins over this.
  std::chrono::microseconds default_deadline{0};
};

/// Deadline-admission estimate, factored out for deterministic unit testing:
/// with `items_ahead` dispatchable work items queued, a per-item service-time
/// EWMA of `ewma_item_us`, and `workers` draining in parallel, would the
/// request certainly miss `deadline`? Optimistic on purpose (assumes all
/// workers drain this model's queue): shedding only fires when the request is
/// doomed even in the best case, so accepted work is never rejected
/// spuriously. An ewma of 0 means "no signal yet" — never shed on it.
bool deadline_unmeetable(TimePoint deadline, TimePoint now,
                         std::uint64_t ewma_item_us, std::size_t items_ahead,
                         std::size_t workers);

/// Read-only admission-plane snapshot of one loaded model, for routing layers
/// (see src/router/): the same counters admission shedding keys off, sampled
/// from the atomics the submit path maintains (plus one short lock for
/// `outstanding`) — never the scheduler lock. A router compares
/// drain_estimate_us() across replicas instead of re-deriving its own EWMA.
struct ModelProbe {
  bool loaded = false;             ///< false once unload() began on the model
  std::size_t queued_items = 0;    ///< unclaimed member items in sealed batches
  std::size_t outstanding = 0;     ///< accepted, not yet answered requests
  std::size_t members = 0;         ///< assembly width (work items per batch)
  std::uint64_t ewma_item_us = 0;  ///< per-item service EWMA (0 = no signal)
  std::size_t workers = 0;         ///< the engine's worker-thread count
  /// Best-case drain time (us) of the work a new request would queue behind —
  /// the exact quantity admission shedding tests against the deadline (see
  /// deadline_unmeetable): ewma * ceil((queued_items + members) / workers).
  /// 0 when the model has no service signal yet.
  std::uint64_t drain_estimate_us() const;
};

struct ModelState;  // internal; defined in engine.cpp

/// Ref-counted reference to a model loaded into an Engine. Copyable and
/// cheap; the last copy (together with the engine's registry entry) keeps the
/// compiled program alive, so a handle held across unload() never dangles —
/// submits to it just fail with kUnloaded. A default-constructed handle is
/// empty. Handles are engine-specific: passing one to a different Engine
/// throws.
class ModelHandle {
 public:
  ModelHandle() = default;

  explicit operator bool() const { return state_ != nullptr; }
  const std::string& name() const;
  std::size_t num_inputs() const;
  std::size_t num_outputs() const;
  std::uint32_t weight() const;
  std::size_t queue_bound() const;
  /// False once unload() has begun on this model (submits will be rejected).
  bool loaded() const;

 private:
  friend class Engine;
  explicit ModelHandle(std::shared_ptr<ModelState> state) : state_(std::move(state)) {}
  std::shared_ptr<ModelState> state_;
};

struct EngineOptions {
  /// Worker threads, each owning its own LpuSimulators. 0 means
  /// hardware_concurrency (min 1).
  std::uint32_t num_workers = 0;
  /// How long a partial batch may wait for more requests before it runs.
  std::chrono::microseconds batch_timeout{200};
  /// Compiled-program LRU capacity (shared across all loads). 0 makes the
  /// cache a pass-through (compile, don't retain).
  std::size_t cache_capacity = 16;
  /// Compile flow configuration for every load call.
  CompileOptions compile;
  /// Speculative straggler hedging: stealing moves unstarted work, it cannot
  /// shorten a member that is already running slowly. When an in-flight
  /// batch is down to its LAST unfinished member and that member has been
  /// running longer than hedge_factor x the model's per-item service EWMA,
  /// an idle worker (nothing to dispatch or steal) launches a duplicate
  /// execution of it. The first copy to finish wins the member's result slot
  /// via an atomic claim (MemberSlot::claim); the loser's output is
  /// discarded and its simulator run is cancelled cooperatively, so results
  /// are bit-exact with single execution either way. A duplicate is pure
  /// redundancy: it never inflates queued_items, the drain estimate, or
  /// member_runs. Hedging needs a service signal — a model whose EWMA is
  /// still 0 (cold start) is never hedged. false disables (the steal-only
  /// baseline of bench/serve_hedging).
  bool hedging = true;
  /// Straggler threshold: hedge once the last member's running time exceeds
  /// hedge_factor x the per-item service EWMA. 0 is treated as 1.
  std::uint32_t hedge_factor = 4;
  /// Bit-sliced SIMD member execution: worker simulators run the packed
  /// word/AVX2 gate kernel (64-256 batch samples per gate op, flat scratch
  /// arena, runtime CPU dispatch — see lbnn::SimdKernel) instead of the
  /// BitVec-at-a-time scalar interpreter. Bit-exact either way; false keeps
  /// the scalar oracle as the baseline for bench/serve_simd, the same
  /// pattern as hedging=false. The LBNN_FORCE_SCALAR / LBNN_NO_AVX2
  /// environment overrides apply on top (CI's forced-fallback legs).
  bool simd = true;
  /// AOT-compiled member execution behind the executor seam. Each load also
  /// kicks off a background codegen job (overlapping serving — requests run
  /// on the bit-sliced interpreter meanwhile) that lowers every member's
  /// replay stream to straight-line native code, compiles it out of process,
  /// and dlopens the artifact. Once native code is ready the member PROMOTES
  /// to it atomically between runs — zero dropped or double-executed
  /// requests, bit-exact outputs/counters/errors either way. Where no
  /// compiler is available or codegen fails, the member stays on the sliced
  /// interpreter (counted in CacheStats::native_failures). Requires simd
  /// (artifacts execute the sliced stream); LBNN_FORCE_AOT=1 forces this on,
  /// LBNN_NO_AOT=1 forces it off, LBNN_AOT_CXX overrides the spawned
  /// compiler. See Engine::resolve_aot.
  bool aot = false;
  /// AOT artifact directory: codegen scratch plus the content-keyed disk
  /// cache. A restarted (or sibling) engine pointed at the same directory
  /// reloads artifacts instead of recompiling — the warm-restart path; the
  /// atomic publish protocol makes concurrent writers safe. Empty means a
  /// private per-process temp directory, removed at shutdown.
  std::string artifact_dir;
  /// Time source for every runtime stamp (batch seal deadlines, request
  /// deadlines, latency/goodput accounting, idle eviction). nullptr means the
  /// system steady clock; tests inject a ManualClock for deterministic
  /// timing. Must outlive the engine.
  ClockSource* clock = nullptr;
  /// Request-lifecycle tracing (always compiled, off by default): every
  /// lifecycle transition — submit, admit/shed, seal, enqueue, dispatch,
  /// member claim/steal, hedge launch/win/cancel, expiry, finalize — lands as
  /// a typed event in per-worker bounded ring buffers, timestamped via the
  /// engine clock (ManualClock tests replay exact sequences). Off, the only
  /// cost is a null-pointer check per site. See Engine::export_trace /
  /// drain_trace. The LBNN_FORCE_TRACING environment variable turns this on
  /// regardless (CI runs the test suites with it to race-check the rings).
  bool tracing = false;
  /// Per-ring trace capacity in events (rounded up to a power of two). A
  /// full ring drops new events and counts them — tracing never blocks or
  /// backpressures the hot path.
  std::size_t trace_ring_capacity = 8192;
};

/// Batched multi-threaded serving engine over the LPU toolchain.
///
/// Layering: the compiler turns a netlist into an immutable Program; each
/// worker thread wraps the shared Program in its own LpuSimulator (simulators
/// carry per-run scratch state, programs are read-only); a per-model Batcher
/// packs single-sample requests into the 2m bit lanes of one datapath word;
/// sealed batches land in their model's bounded ready queue, and workers pick
/// the next queue by weighted-fair (stride) scheduling — so a backlogged
/// heavy model cannot starve light ones, and each model's admission bound
/// exerts backpressure on its own clients only. For multi-LPU models every
/// assembly member is an independently claimable work item: the dequeuing
/// worker claims members from the batch's atomic cursor while idle workers
/// steal the rest, so one straggling member cannot serialize its batch. When
/// even the last member is already running but slow, idle workers
/// speculatively duplicate it (EngineOptions::hedging): the first copy to
/// finish wins the member's result slot atomically and the loser is
/// cancelled — migration moves work, hedging shortens it.
///
/// Lifecycle: load() / load_parallel() / load_async() return ref-counted
/// ModelHandles; unload() (or evict_idle()) drains a model's outstanding
/// work, releases its program-cache pin, and shrinks the registry. A handle
/// kept across unload stays safe — it pins the compiled artifact and reports
/// loaded() == false.
///
/// Thread-safety: every public method may be called from any thread.
/// Destruction drains in-flight work, then joins all threads.
class Engine {
 public:
  explicit Engine(const EngineOptions& options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Compile (or fetch from the program cache — concurrent loads of distinct
  /// models compile in parallel, same-key loads dedup) and register a model.
  ModelHandle load(const std::string& name, const Netlist& nl,
                   const ModelOptions& mopt = {});

  /// Same, but compiled as a `parallel_lpus`-way parallel LPU assembly
  /// (Sec. III); each member runs as an independent work item.
  ModelHandle load_parallel(const std::string& name, const Netlist& nl,
                            std::uint32_t parallel_lpus,
                            const ModelOptions& mopt = {});

  /// load() on a background thread; the future rethrows compile errors. The
  /// engine must outlive the returned future's completion.
  std::future<ModelHandle> load_async(std::string name, Netlist nl,
                                      ModelOptions mopt = {});

  /// Submit one sample (one Boolean per primary input). The future resolves
  /// to one Boolean per primary output once the sample's batch has run.
  /// Blocks while the model's queue bound is reached (backpressure). Throws
  /// lbnn::Error on an empty/foreign handle, arity mismatch, unloaded model,
  /// or engine shutdown — and DeadlineExceeded when the model's estimated
  /// drain time already exceeds the deadline (admission shedding, checked
  /// again each time a blocked submit wakes). The
  /// request's deadline is `deadline` if given, else admission time +
  /// ModelOptions::default_deadline when that is set, else none. A request
  /// still queued past its deadline is dropped at dequeue: its future fails
  /// with DeadlineExceeded instead of simulating dead work.
  std::future<std::vector<bool>> submit(const ModelHandle& model,
                                        std::vector<bool> inputs,
                                        TimePoint deadline = kNoDeadline);

  /// Non-blocking submit: never waits for queue space. On kAccepted, *result
  /// holds the future; any other status (kQueueFull, kDeadlineUnmeetable on a
  /// doomed deadline, ...) leaves *result untouched. Throws only on usage
  /// bugs (empty/foreign handle, arity mismatch). Deadline semantics as in
  /// submit().
  SubmitStatus try_submit(const ModelHandle& model, std::vector<bool> inputs,
                          std::future<std::vector<bool>>* result,
                          TimePoint deadline = kNoDeadline);

  /// Stop admitting to this model, drain its outstanding requests (every
  /// accepted future still resolves), release its program-cache pin, and
  /// remove it from the registry. Blocks until the drain completes. Returns
  /// false if the handle is empty or the model was already unloaded
  /// (concurrent unloads: exactly one caller gets true).
  bool unload(const ModelHandle& model);

  /// Dynamically re-weight a loaded model's share of the stride scheduler
  /// (ModelOptions::weight fixes only the initial share). Takes effect on the
  /// next scheduler pop: the model's pending credit is re-priced at the new
  /// stride, so a re-weighted model neither jumps the queue nor keeps paying
  /// old debt at the old rate. Weight 0 clamps to 1. This is the canary
  /// lever — grow a new version's share as an alias split moves traffic
  /// toward it (see serve::BasicAliasTable). Throws on an empty/foreign
  /// handle; returns false if the model is already unloaded.
  bool set_weight(const ModelHandle& model, std::uint32_t weight);

  /// unload() every model whose last accepted request (or load) is at least
  /// `min_idle` old. The duration is interpreted on the engine's injected
  /// ClockSource domain — the domain that stamps last-use — so under a
  /// ManualClock "idle" means advance()d time, never wall time, and eviction
  /// policy is deterministic in tests. Returns how many models were evicted.
  std::size_t evict_idle(Duration min_idle);

  /// Seal all partial batches and block until every accepted request has
  /// been answered.
  void drain();

  /// drain(), then stop and join all threads. Idempotent; the destructor
  /// calls it.
  void shutdown();

  ServeReport report() const;

  /// Reset the aggregate serving statistics (counters, histograms, exact
  /// member samples, and the wall-clock origin of requests_per_sec).
  /// Per-model statistics keep counting. Benches call this after warmup so
  /// steady-state percentiles are not polluted by one-time construction
  /// spikes (each worker builds its simulators lazily, inside the timed
  /// member region, on its first run of a program).
  void reset_stats() { stats_.reset(); }

  /// Render the drained trace stream as Chrome trace-event JSON — loadable
  /// in chrome://tracing or Perfetto. One track per worker plus a "clients"
  /// track, member executions as duration slices, flow arrows linking each
  /// request from submit to completion. Draining consumes the buffered
  /// events; with tracing off this writes an empty (still valid) trace.
  void export_trace(std::ostream& os);
  /// Events-only form for multiplexing several engines into one Chrome trace:
  /// appends this engine's drained events to an already-open traceEvents
  /// array, tagging every event with `pid` (the Router renders each shard as
  /// its own process, named `process_name`). `*first` is the caller's
  /// comma-separator state, shared across engines. Returns the events dropped
  /// by this engine's rings; a no-op returning 0 with tracing off.
  std::uint64_t export_trace_events(std::ostream& os, int pid,
                                    const std::string& process_name,
                                    bool* first);
  /// Drain the raw event stream in global emission order (empty when tracing
  /// is off). The ManualClock determinism tests assert on this directly.
  std::vector<TraceEvent> drain_trace();
  /// Events lost to full rings since construction (0 when tracing is off).
  std::uint64_t trace_dropped() const;
  bool tracing_enabled() const { return tracer_ != nullptr; }
  /// Display name for a trace event's model_id; names of unloaded models are
  /// retained. Empty when tracing is off.
  std::string trace_model_name(std::uint64_t model_id) const;

  /// report() rendered in Prometheus text exposition format (scrape body);
  /// metric names are documented in README "Observability". Works with
  /// tracing off — the counters feed from the stats plane, not the rings.
  std::string metrics_prometheus() const;
  /// report() rendered as JSON (same field names as ServeReport).
  std::string metrics_json() const;

  /// Sample a model's admission-plane counters (see ModelProbe). Throws on an
  /// empty or foreign handle, like submit() does; probing an unloaded model is
  /// fine (loaded == false, counters drain toward zero).
  ModelProbe probe(const ModelHandle& model) const;
  /// Accepted-but-unanswered requests across every model — a cheap
  /// whole-engine load signal for replica-placement decisions.
  std::size_t in_flight() const;

  /// Block until every background AOT codegen job spawned by loads so far
  /// has finished (each member either promoted to native code or stayed on
  /// the sliced interpreter). Immediate when AOT is off. Tests and benches
  /// pin the promotion instant with this instead of sleeping.
  void wait_aot_ready();
  /// Whether loads spawn AOT codegen: resolve_aot(options) at construction.
  bool aot_enabled() const { return aot_enabled_; }
  /// The one AOT-enablement predicate: EngineOptions::aot or LBNN_FORCE_AOT,
  /// unless LBNN_NO_AOT is set or the engine serves the scalar oracle
  /// (simd off or LBNN_FORCE_SCALAR). The Router asks it too before it
  /// creates a fleet-wide artifact directory.
  static bool resolve_aot(const EngineOptions& options);
  /// The resolved artifact directory; empty when AOT is off.
  const std::string& artifact_dir() const { return artifact_dir_; }

  CacheStats cache_stats() const { return cache_.stats(); }
  /// The engine's program cache, exposed for instrumentation (compile hooks
  /// in tests) and operational eviction.
  ProgramCache& program_cache() { return cache_; }
  std::size_t num_workers() const { return workers_.size(); }
  std::size_t num_models() const;
  /// The engine's time source (the injected one, or the system clock).
  ClockSource& clock() const { return *clock_; }

  /// Test instrumentation, mirroring ProgramCache::set_compile_hook: called
  /// by a worker with the model's name right after it dequeues a batch from
  /// the scheduler (no engine lock held — a blocking hook stalls that worker,
  /// nothing else; member steals do NOT fire it, so a gated claimer's batch
  /// can still be finished by stealers). With one worker the call order IS
  /// the dispatch order, which makes the stride scheduler's drain order
  /// directly assertable. nullptr clears.
  void set_dispatch_hook(std::function<void(const std::string&)> hook);

  /// Called with (model name, member index, is_hedge_duplicate) right before
  /// a member's simulator run, by whichever worker runs it (claimer, stealer,
  /// or hedger; the flag is true only for the speculative duplicate of a
  /// hedged member), no locks held. The time a hook spends is charged to the
  /// executor's service time, so benches inject per-member straggler delays
  /// with it and ManualClock tests teach the admission EWMA deterministically
  /// by advancing the clock inside it — or gate original and duplicate at the
  /// result-claim race exactly. nullptr clears.
  void set_member_hook(
      std::function<void(const std::string&, std::size_t, bool)> hook);

  /// Called by evict_idle() with a model's name after the model passed the
  /// idle checks (stale last-use, zero outstanding) and before its unload()
  /// begins — the window where a concurrent admission can still land. Test
  /// instrumentation for the admission-vs-evict race: anything admitted in
  /// the window must still be served by unload's drain. nullptr clears.
  void set_evict_hook(std::function<void(const std::string&)> hook);

 private:
  friend struct ModelState;  // embeds a deque of ready batches

  struct BatchWork;
  struct Impl;
  /// Worker-thread-local execution state: the simulator cache (keyed by the
  /// shared read-only Program) and its pruning position in the retired list.
  struct WorkerContext;
  using MemberHook = std::function<void(const std::string&, std::size_t, bool)>;

  /// `track` is the worker's trace ring index (1 + worker index; 0 is the
  /// shared off-worker ring).
  void worker_loop(std::size_t track);
  void timer_loop();
  ModelHandle register_model(std::shared_ptr<ModelState> state,
                             std::size_t lane_capacity,
                             const ModelOptions& mopt);
  ModelState* state_of(const ModelHandle& handle) const;
  /// The admission ladder behind submit() and try_submit(). A full queue
  /// returns kQueueFull unless `block`, which waits for space and re-runs the
  /// whole ladder. On kAccepted, *result holds the future.
  SubmitStatus admit(const ModelHandle& model, std::vector<bool>&& inputs,
                     TimePoint deadline, bool block,
                     std::future<std::vector<bool>>* result);
  /// Null-check-and-emit: one call per lifecycle transition site. With
  /// tracing off this is a single branch.
  void emit_trace(std::size_t track, TraceEventType type, std::uint64_t model_id,
                  std::uint64_t id, std::uint32_t member = 0,
                  std::uint64_t arg = 0, std::uint8_t flags = 0);
  /// Execute one copy of a batch member: expired-request settling (first
  /// claimant), simulator run, the atomic result claim (under hedging two
  /// copies of the same member race it; only the winner writes the slot,
  /// outputs, EWMA, and stats), and the completion latch (the last member to
  /// finish finalizes the batch). `hedge` marks the speculative duplicate of
  /// a straggling member — it skips expiry settling (the original already
  /// did it) and records the hedge ledger instead.
  void run_member(BatchWork& work, std::size_t member, bool stolen, bool hedge,
                  WorkerContext& ctx,
                  const std::shared_ptr<const MemberHook>& hook);
  /// Claim one unclaimed member from a multi-member in-flight batch. Called
  /// with queue_mu held; returns false when nothing is stealable.
  bool try_steal_locked(std::shared_ptr<BatchWork>* work, std::size_t* member);
  /// Drop finalized husks (members_left == 0) from the in-flight list. Called
  /// with queue_mu held before every scheduler pop and idle scan — under
  /// sustained load workers never reach the steal or hedge phase, and without
  /// this sweep every finished batch would stay pinned (requests, packed
  /// lanes, and its model's state) for the whole busy period.
  void prune_dispatched_locked();
  /// Hedge-candidate scan, called with queue_mu held by a worker with
  /// nothing to dispatch or steal. Finds an in-flight batch whose LAST
  /// unfinished member (members_left == 1, every member claimed) has been
  /// running past its hedge trigger (hedge_factor x the model's service
  /// EWMA, timed by the injected clock) and CASes its slot kRunning ->
  /// kHedged — at most one duplicate per member, ever. Returns true with the
  /// batch/member to duplicate; otherwise sets *next_due to the earliest
  /// future trigger among current candidates (kNoDeadline when none), so the
  /// caller can sleep until exactly then.
  bool try_hedge_locked(TimePoint now, std::shared_ptr<BatchWork>* work,
                        std::size_t* member, TimePoint* next_due);
  /// Fail already-expired requests of a just-claimed batch (first member
  /// only); returns whether any live request remains to simulate. `track` is
  /// the settling worker's trace ring.
  bool drop_expired_requests(BatchWork& work, std::size_t track);
  void enqueue_batch(ModelState& model, Batch&& batch);
  /// Launch the background codegen job for a freshly registered model (no-op
  /// after shutdown began). The job holds the ModelState shared_ptr, so an
  /// unload racing an in-flight codegen never frees state under it — the
  /// late promotion just lands on a model nobody serves anymore.
  void spawn_aot_jobs(std::shared_ptr<ModelState> state);
  /// The job body: per member, build (or reload) the artifact through the
  /// program cache and, when it carries native code, promote the member to
  /// it via an atomic store.
  void aot_build_model(ModelState& m);
  void finalize(BatchWork& work, std::size_t track);
  void release_requests(std::size_t n);
  /// Keep-alive snapshot of all loaded models (sealing, draining, reporting
  /// happen outside models_mu; an unload cannot free state under us).
  std::vector<std::shared_ptr<ModelState>> model_snapshot() const;

  EngineOptions options_;
  bool aot_enabled_ = false;  ///< options_.aot resolved against the env pins
  bool aot_avx2_ = false;     ///< compile artifacts for AVX2 (part of the key)
  /// Resolved EngineOptions::artifact_dir; owned (created at construction,
  /// removed at shutdown) when the option was empty.
  std::string artifact_dir_;
  bool own_artifact_dir_ = false;
  ClockSource* clock_;  ///< options_.clock or the shared SystemClock
  ProgramCache cache_;
  ServeStats stats_;
  /// Non-null iff tracing is on (EngineOptions::tracing or
  /// LBNN_FORCE_TRACING); created before the workers spawn, destroyed after
  /// they join, so emission sites need no lifetime checks beyond null.
  std::unique_ptr<Tracer> tracer_;

  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> workers_;
  std::thread timer_;
};

}  // namespace lbnn::runtime
