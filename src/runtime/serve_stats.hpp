#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "lpu/backend.hpp"
#include "runtime/batcher.hpp"

namespace lbnn::runtime {

/// Log-linear latency histogram over microseconds, after HdrHistogram
/// (http://hdrhistogram.org): values below 16 get a bucket each, and every
/// octave [2^k, 2^(k+1)) above splits into 16 equal sub-buckets. A
/// percentile reads its bucket's upper bound, so it never understates and
/// overstates by less than 1/16 (6.25%). Buckets cover every uint64 value,
/// so record() never saturates, and two histograms merge exactly by adding
/// buckets — the fleet percentile is the merged buckets' percentile. The
/// bucket array only grows up to the highest bucket recorded, which keeps
/// copies and merges (every report makes some) proportional to the range in
/// use: about 160 buckets up to 10 ms.
class LatencyHistogram {
 public:
  void record(std::uint64_t micros);
  std::uint64_t count() const { return count_; }
  /// Upper bound (us) of the bucket holding the p-th percentile sample
  /// (0 < p <= 100). Returns 0 when the histogram is empty.
  std::uint64_t percentile_us(double p) const;
  void merge(const LatencyHistogram& other);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Percentile summary of one lifecycle phase (see PhaseBreakdown).
struct PhaseStats {
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t count = 0;  ///< samples recorded (requests or batches)
};

/// Request-latency decomposition by lifecycle phase, derived from the same
/// transitions the trace stream records, so a p99 regression names the phase
/// that ate the budget instead of a single end-to-end number:
///   assembly_wait: request submit -> its batch sealing (request-weighted)
///   queue_wait:    batch seal -> a worker dispatching it (batch-weighted)
///   execution:     dispatch -> the batch's last member completing
///   finalize:      last member done -> futures resolved (settle cost)
struct PhaseBreakdown {
  PhaseStats assembly_wait;
  PhaseStats queue_wait;
  PhaseStats execution;
  PhaseStats finalize;
};

/// One model's raw serving statistics since its load or the last
/// Engine::reset_stats(): counters and histograms only, so any set of records
/// merges exactly (the retired row, the engine total and the fleet total are
/// all merges of these).
struct StatsRecord {
  std::uint64_t requests = 0;       ///< completed requests
  std::uint64_t batches = 0;        ///< batches executed (failed ones too)
  std::uint64_t samples = 0;        ///< lanes occupied by completed requests
  std::uint64_t lanes_offered = 0;  ///< lane capacity summed over batches
  std::size_t queue_depth_hwm = 0;  ///< ready-queue depth peak (merges by max)
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_met = 0;
  std::uint64_t member_runs = 0;
  std::array<std::uint64_t, kNumBackendKinds> member_runs_by_backend{};
  std::uint64_t steals = 0;
  LatencyHistogram latency;        ///< request submit -> result
  LatencyHistogram member;         ///< member service time
  LatencyHistogram straggler_gap;  ///< first -> last member done, >= 2 ran
  LatencyHistogram assembly_wait;
  LatencyHistogram queue_wait;
  LatencyHistogram execution;
  LatencyHistogram finalize;
  /// Simulator counters summed over member runs; lpe_utilization holds the
  /// wavefront-weighted sum until a report divides it out.
  SimCounters sim;

  /// Account one finalized batch: its member slots (runs by backend,
  /// steals, service times, sim counters, straggler gap); then,
  /// unless every request expired before it ran, the lanes it offered and
  /// its live requests — as failed, or as completions with their latency,
  /// deadline outcome and phases. `sealed_at_us` and `dispatched_at_us` are
  /// the batch's lifecycle stamps, `now` its finalize time.
  void add_batch(const std::vector<Request>& batch,
                 const std::vector<MemberSlot>& slots, std::size_t lane_capacity,
                 bool batch_failed, std::int64_t sealed_at_us,
                 std::int64_t dispatched_at_us, TimePoint now);
  /// A ready queue reached `depth` items: keep the peak.
  void note_queue_depth(std::size_t depth);
  void merge(const StatsRecord& other);
};

/// Thread-safe home of one StatsRecord: one per loaded model plus the
/// engine's retired aggregate. Every engine event lands in exactly one of
/// these, and finalize records a whole batch under one acquisition.
class ModelStats {
 public:
  /// Runs `fn` on the record under the lock — or on the retired record
  /// once retire_into() has folded this one there.
  template <typename Fn>
  void record(Fn&& fn) {
    std::lock_guard<std::mutex> lk(mu_);
    if (retired_into_ != nullptr) {
      retired_into_->record(fn);
    } else {
      fn(rec_);
    }
  }
  StatsRecord snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return rec_;
  }
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    rec_ = StatsRecord{};
  }
  /// Unload's fold: merge this record into `into` and forward every later
  /// event there, so a shed that lands after the model left the registry
  /// still counts, once. snapshot() keeps reading the
  /// record as folded.
  void retire_into(ModelStats& into) {
    std::lock_guard<std::mutex> lk(mu_);
    into.record([this](StatsRecord& s) { s.merge(rec_); });
    retired_into_ = &into;
  }

 private:
  mutable std::mutex mu_;
  StatsRecord rec_;
  ModelStats* retired_into_ = nullptr;
};

/// The figures a report derives from one StatsRecord — shared by a per-model
/// row and the engine-wide (or fleet-wide) total.
struct StatsSummary {
  std::uint64_t requests = 0;  ///< completed single-sample requests
  std::uint64_t batches = 0;   ///< sealed batches executed
  std::uint64_t samples = 0;   ///< lanes actually occupied across batches
  std::uint64_t lanes_offered = 0;  ///< lane capacity summed over batches
  /// samples / lanes_offered — how full the 2m-lane datapath words were.
  double lane_occupancy = 0.0;
  std::uint64_t p50_latency_us = 0;  ///< request submit -> result latency
  std::uint64_t p99_latency_us = 0;
  /// Deepest a ready queue (dispatchable work items) got; a total reads the
  /// deepest row.
  std::size_t queue_depth_hwm = 0;
  /// Admission rejections because the estimated drain time already exceeded
  /// the request deadline (SubmitStatus::kDeadlineUnmeetable / the blocking
  /// path's DeadlineExceeded throw).
  std::uint64_t shed = 0;
  /// Requests dropped at dequeue because their deadline had already passed
  /// (futures failed with DeadlineExceeded, no simulation work spent).
  std::uint64_t expired = 0;
  /// Accepted requests whose batch failed (an executor or hook threw); their
  /// futures carry the error. Every accepted request ends in exactly one of
  /// requests, expired or failed.
  std::uint64_t failed = 0;
  /// Completions that made their deadline (deadline-less requests count as
  /// met — completing them is always good work).
  std::uint64_t deadline_met = 0;
  /// deadline_met per wall second — the number that must not degrade when
  /// admission shedding turns on (see bench/serve_overload).
  double goodput_per_sec = 0.0;
  /// Member work items executed (>= batches; one per assembly member per
  /// batch that ran), split by executor backend (indexed by BackendKind: a
  /// mid-traffic AOT promotion moves counts from sliced to aot), and how many
  /// ran on a worker other than their batch's claimer (stealing).
  std::uint64_t member_runs = 0;
  std::array<std::uint64_t, kNumBackendKinds> member_runs_by_backend{};
  std::uint64_t steals = 0;
  /// Member service-time percentiles (bench/serve_simd gates on these), and
  /// the batch straggler gap — first to last member completing, recorded for
  /// batches with >= 2 executed members (stealing exists to shrink it).
  std::uint64_t member_p50_us = 0;
  std::uint64_t member_p99_us = 0;
  std::uint64_t straggler_gap_p50_us = 0;
  std::uint64_t straggler_gap_p99_us = 0;
  /// Per-phase latency decomposition (see PhaseBreakdown).
  PhaseBreakdown phases;
  /// Simulator counters summed over every member run. lpe_utilization is the
  /// wavefront-weighted mean of the per-run utilizations.
  SimCounters sim;
};

/// One loaded model's row (or the persistent "(retired)" row), so the
/// weighted-fair scheduler's isolation properties are observable (a starved
/// model shows up as a high p99 and a deep queue high-water mark) and so is
/// the SLO subsystem (shed/expired counters, on-deadline completions).
struct ModelReport : StatsSummary {
  std::string name;
  std::uint32_t weight = 1;     ///< QoS weight (stride scheduling share)
  std::size_t queue_bound = 0;  ///< admission bound (outstanding requests)
};

/// A whole engine's (or fleet's) serving report since construction or the
/// last Engine::reset_stats(): the summary of every row's merged record.
struct ServeReport : StatsSummary {
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  /// Always 0: every member runs exactly once. Kept only because
  /// bench/lbnn_bench still reports it as engine.hedges_launched.
  std::uint64_t hedges_launched = 0;
  /// One row per currently loaded model (load order). Models unloaded since
  /// startup are folded into one persistent "(retired)" row at the end, so
  /// metrics spanning an unload or version flip keep their history.
  std::vector<ModelReport> per_model;
};

/// A report row before derivation: identity plus the raw record.
struct ModelRecord {
  std::string name;
  std::uint32_t weight = 1;
  std::size_t queue_bound = 0;
  StatsRecord stats;
};

/// What Engine::stats_snapshot() returns: every row's record and the wall
/// time they cover.
struct StatsSnapshot {
  double wall_seconds = 0.0;
  std::vector<ModelRecord> rows;
};

/// The one report derivation: each row's summary from its record, the total
/// from the bucket-merge of every row, rates over `wall_seconds`. An engine
/// report and the fleet report both come from here.
ServeReport make_report(const StatsSnapshot& snapshot);

}  // namespace lbnn::runtime
