#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/clock.hpp"

namespace lbnn::runtime {

/// Typed request-lifecycle trace events. One event per state transition a
/// request (or its batch) makes on its way through the engine, so a single
/// drained stream replays the whole schedule: who sealed what, which worker
/// dispatched it, which members were stolen, and when every future
/// resolved. The taxonomy mirrors the scheduling ladder exactly — if a p99
/// regresses, the gap between two adjacent event types names the phase that
/// ate the budget.
enum class TraceEventType : std::uint8_t {
  kSubmit = 0,    ///< client entered submit/try_submit; id = request id
  kAdmit,         ///< request admitted past shedding + backpressure
  kShed,          ///< admission refused the deadline (kDeadlineUnmeetable)
  kSeal,          ///< batcher sealed a batch; id = batch seq, arg = requests
  kEnqueue,       ///< sealed batch entered its ready queue; arg = queue depth
  kDispatch,      ///< a worker popped the batch off the scheduler
  kMemberClaim,   ///< the dispatching worker claimed a member off the cursor
  kMemberSteal,   ///< an idle worker stole a member from an in-flight batch
  kMemberDone,    ///< a member's result slot resolved; arg = service_us
  kExpire,        ///< dequeue-time expiry settled requests; arg = how many
  kRequestDone,   ///< one request's future resolved; id = request id
  kFinalize,      ///< batch finalized (stats fed, futures about to resolve)
  kPromote,       ///< a member's native AOT artifact went live;
                  ///< member = index, arg = codegen us, kTraceFlagNative set
};

const char* to_string(TraceEventType type);

/// TraceEvent::flags bits.
constexpr std::uint8_t kTraceFlagStolen = 1u << 0;   ///< executor != batch claimer
constexpr std::uint8_t kTraceFlagExpired = 1u << 2;  ///< request failed by expiry
constexpr std::uint8_t kTraceFlagFailed = 1u << 3;   ///< request failed by batch error
constexpr std::uint8_t kTraceFlagSkipped = 1u << 4;  ///< fully-expired batch: no sim run
constexpr std::uint8_t kTraceFlagNative = 1u << 5;   ///< member ran (or promoted to) a
                                                     ///< native AOT artifact

/// One fixed-size trace record. Plain data on purpose: events are copied
/// into bounded ring buffers on the hot path, so no strings and no heap —
/// model identity travels as the registry id (Tracer keeps the id -> name
/// map, which retains unloaded models so late exports still render names).
struct TraceEvent {
  TraceEventType type = TraceEventType::kSubmit;
  std::uint8_t flags = 0;
  std::uint16_t track = 0;   ///< producing ring: 0 = off-worker, 1 + i = worker i
  std::uint32_t member = 0;  ///< assembly member index (member-scoped events)
  std::uint64_t model_id = 0;
  /// Request id for kSubmit/kAdmit/kShed/kRequestDone; batch sequence number
  /// for every batch-scoped event.
  std::uint64_t id = 0;
  std::uint64_t arg = 0;  ///< per-type payload, see the enum comments
  std::int64_t ts_us = 0; ///< stamp from the injected ClockSource (us since epoch)
  /// Global emission order (one atomic counter across all rings): merging the
  /// per-ring streams by seq reconstructs the true interleaving, which is
  /// what the ManualClock determinism tests replay byte-identically.
  std::uint64_t seq = 0;
};

/// Bounded single-producer single-consumer ring of trace events. The
/// producer NEVER blocks: when the ring is full the event is dropped and the
/// drop counter bumped — tracing must observe the hot path, not become part
/// of it. Producer and consumer synchronize through head_/tail_
/// acquire/release pairs only (no lock), so a worker's emit is a couple of
/// relaxed loads, one store, and one release store.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(std::size_t capacity);

  /// Producer side. Returns false (and counts a drop) when full.
  bool try_push(const TraceEvent& ev);

  /// Consumer side: move every buffered event out, in push order.
  void drain_into(std::vector<TraceEvent>& out);

  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};  ///< next write index (producer-owned)
  std::atomic<std::uint64_t> tail_{0};  ///< next read index (consumer-owned)
  std::atomic<std::uint64_t> dropped_{0};
};

/// The engine's tracing hub: one SPSC ring per worker thread plus one shared
/// ring (track 0) for everything emitted off the worker pool — client submit
/// paths, the batch timekeeper, drain/unload flushes. The shared ring's
/// producer side is mutex-guarded (multiple client threads), the worker
/// rings are wait-free for their owning worker. Consuming (drain/export) is
/// serialized by its own mutex and may run concurrently with producers.
class Tracer {
 public:
  static constexpr std::size_t kSharedTrack = 0;

  Tracer(std::size_t num_workers, std::size_t ring_capacity,
         ClockSource& clock);

  /// Record a model's display name (append-only: unloaded models keep their
  /// entry so a post-unload export still labels their events).
  void register_model(std::uint64_t id, const std::string& name);
  std::string model_name(std::uint64_t id) const;

  /// Stamp (clock + global seq) and buffer one event on `track` (0 = shared,
  /// 1 + i = worker i). Never blocks; a full ring counts a drop instead.
  void emit(std::size_t track, TraceEvent ev);

  /// Move every buffered event out of every ring, merged into global
  /// emission order (by seq). One consumer at a time.
  std::vector<TraceEvent> drain();

  /// Total events dropped across all rings since construction.
  std::uint64_t dropped() const;
  /// Per-ring drop counters (index 0 = shared ring, 1 + i = worker i).
  std::vector<std::uint64_t> dropped_per_ring() const;

  /// Drain and render as Chrome trace-event JSON (chrome://tracing /
  /// Perfetto): one track per worker plus a "clients" track, "X" slices for
  /// member executions and request completions, instants for the lifecycle
  /// transitions, and flow arrows linking each request id from submit to
  /// completion across threads. Drop counts land in otherData.
  void export_chrome_trace(std::ostream& os);

  /// Events-only body of export_chrome_trace: drains and appends this
  /// tracer's events to an already-open traceEvents array under process id
  /// `pid` (non-empty `process_name` adds a process_name metadata record, so
  /// a multi-engine export — the Router's shard-per-process view — labels
  /// each shard). `first` is the caller's comma-separator state.
  void export_chrome_events(std::ostream& os, int pid,
                            const std::string& process_name, bool& first);

  std::size_t num_tracks() const { return rings_.size(); }

 private:
  ClockSource& clock_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::mutex shared_mu_;    ///< producer lock for the shared ring only
  std::mutex consumer_mu_;  ///< one drain/export at a time
  mutable std::mutex names_mu_;
  std::unordered_map<std::uint64_t, std::string> names_;
  std::atomic<std::uint64_t> seq_{0};
};

}  // namespace lbnn::runtime
