#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

#include "common/bitvec.hpp"
#include "lpu/backend.hpp"
#include "runtime/clock.hpp"

namespace lbnn::runtime {

/// One single-sample inference request: one Boolean per primary input going
/// in, one per primary output coming back through the promise.
struct Request {
  std::vector<bool> inputs;
  std::promise<std::vector<bool>> result;
  TimePoint enqueued;
  /// Engine-assigned request id (monotonic, never 0 when tracing): links the
  /// trace stream's submit event to this request's completion across threads.
  std::uint64_t id = 0;
  /// Absolute completion deadline; kNoDeadline when the client set none.
  TimePoint deadline = kNoDeadline;
  /// Set by the worker that finds the request already past its deadline at
  /// dequeue: the promise has been failed with DeadlineExceeded, finalize
  /// must not touch it again.
  bool expired = false;
};

/// Per-member execution slot of a sealed batch. The engine dispatches one
/// work item per assembly member, and the batch cursor hands each member to
/// exactly one worker; that worker alone fills slot i (disjoint indices, so
/// no lock on the data plane — the batch's completion latch orders every
/// slot write before finalize reads them for stats).
struct MemberSlot {
  bool ran = false;           ///< the member's simulator actually executed
  bool stolen = false;        ///< executed by a worker other than the batch claimer
  /// BackendKind the executor ran (see lpu/backend.hpp) — scalar or sliced
  /// interpreter before an AOT promotion, native after it.
  std::uint8_t backend = 0;
  std::uint64_t service_us = 0;  ///< simulator (+ member hook) service time
  std::int64_t done_at_us = 0;   ///< completion stamp; straggler gap = max - min
  SimCounters sim;               ///< the run's simulator counters
};

/// A sealed batch, ready to run: 1 <= requests.size() <= lane capacity, with
/// one pre-sized execution slot per assembly member.
struct Batch {
  std::vector<Request> requests;
  std::vector<MemberSlot> member_slots;
};

/// Pack requests into the LPU's datapath words: request i becomes bit lane i
/// of every primary-input BitVec (the simulator is bit-sliced, so a partial
/// batch simply runs with a narrower word). Returns one BitVec per PI.
std::vector<BitVec> pack_requests(const std::vector<Request>& requests,
                                  std::size_t num_inputs);

/// Inverse of pack_requests on the output side: per-request output bits from
/// the simulator's per-PO BitVecs.
std::vector<std::vector<bool>> unpack_outputs(const std::vector<BitVec>& outputs,
                                              std::size_t num_requests);

/// Dynamic batching queue for one model.
///
/// submit() appends the request to the open batch. The batch seals — is
/// handed to `on_seal`, typically the engine's ready queue — when either
///   * it reaches `lane_capacity` requests (one per datapath bit lane), or
///   * the oldest request in it has waited `max_wait` (the engine's
///     timekeeper calls seal_if_expired()).
/// The lane-full path seals inside submit(), so a saturating client never
/// waits on the timer. Batcher owns no thread and never sleeps; all request
/// stamps come from the injected ClockSource, so tests drive sealing with a
/// ManualClock instead of real waits.
class Batcher {
 public:
  using SealFn = std::function<void(Batch&&)>;

  /// `num_members` is the model's assembly width: every sealed batch carries
  /// that many pre-initialized MemberSlots (1 for a single-LPU model).
  Batcher(ClockSource& clock, std::size_t num_inputs, std::size_t lane_capacity,
          std::size_t num_members, std::chrono::microseconds max_wait,
          SealFn on_seal);

  /// Throws lbnn::Error when input_bits.size() != num_inputs. `deadline` is
  /// stamped onto the request for the engine's expiry handling (kNoDeadline =
  /// none). When `opened_batch` is non-null it is set to whether this request
  /// started a new open batch (i.e. a new seal deadline now exists) — the
  /// engine only needs to re-arm its timekeeper in that case. `req_id` is the
  /// engine's trace id for this request (0 when tracing is off).
  std::future<std::vector<bool>> submit(std::vector<bool> input_bits,
                                        TimePoint deadline = kNoDeadline,
                                        bool* opened_batch = nullptr,
                                        std::uint64_t req_id = 0);

  /// Seal deadline of the currently open batch, if one is open.
  std::optional<TimePoint> deadline() const;

  /// Seal the open batch if its deadline has passed at `now`.
  void seal_if_expired(TimePoint now);

  /// Seal whatever is open regardless of deadline (shutdown / drain).
  void flush();

  /// Requests sitting in the open (not yet sealed) batch. Snapshot only — by
  /// the time the caller looks, a concurrent submit may have sealed it.
  std::size_t open_count() const;

  std::size_t lane_capacity() const { return lane_capacity_; }
  std::size_t num_inputs() const { return num_inputs_; }
  std::size_t num_members() const { return num_members_; }

 private:
  /// Stamp member slots onto a batch about to be handed to on_seal_.
  Batch finish(std::vector<Request>&& requests) const;

  ClockSource& clock_;
  const std::size_t num_inputs_;
  const std::size_t lane_capacity_;
  const std::size_t num_members_;
  const std::chrono::microseconds max_wait_;
  const SealFn on_seal_;

  mutable std::mutex mu_;
  std::vector<Request> open_;
  TimePoint open_deadline_{};
};

}  // namespace lbnn::runtime
