#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "lpu/simulator.hpp"
#include "runtime/batcher.hpp"
#include "runtime/clock.hpp"

namespace lbnn::runtime {

/// Log2-bucketed latency histogram over microseconds: bucket 0 holds 0 us,
/// bucket i >= 1 holds [2^(i-1), 2^i). 64 buckets cover every uint64 value,
/// so record() never saturates; percentiles are exact to within one octave,
/// which is the right resolution for serving dashboards (p99 of 370 us and
/// 510 us are the same operational fact).
class LatencyHistogram {
 public:
  void record(std::uint64_t micros);
  std::uint64_t count() const { return count_; }
  /// Upper bound (us) of the bucket containing the p-th percentile sample
  /// (0 < p <= 100). Returns 0 when the histogram is empty.
  std::uint64_t percentile_us(double p) const;
  /// Bucket-wise accumulate (exact: both sides use the same log2 buckets).
  /// Used to fold an unloading model's history into the retired aggregate.
  void merge(const LatencyHistogram& other);

 private:
  std::array<std::uint64_t, 64> buckets_{};
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

/// Per-model slice of a ServeReport: one row per loaded model, so the
/// weighted-fair scheduler's isolation properties are observable (a starved
/// model shows up as a high p99 and a deep queue high-water mark) and so is
/// the SLO subsystem (shed/expired counters, on-deadline completions).
struct ModelReport {
  std::string name;
  std::uint32_t weight = 1;       ///< QoS weight (stride scheduling share)
  std::size_t queue_bound = 0;    ///< admission bound (outstanding requests)
  std::uint64_t requests = 0;     ///< completed single-sample requests
  std::uint64_t batches = 0;      ///< sealed batches executed
  std::uint64_t samples = 0;      ///< lanes actually occupied across batches
  std::uint64_t lanes_offered = 0;
  double lane_occupancy = 0.0;
  std::uint64_t p50_latency_us = 0;
  std::uint64_t p99_latency_us = 0;
  /// Deepest the model's ready queue (dispatchable work items) ever got.
  std::size_t queue_depth_hwm = 0;
  /// Admission rejections because the estimated drain time already exceeded
  /// the request deadline (SubmitStatus::kDeadlineUnmeetable / the blocking
  /// path's DeadlineExceeded throw).
  std::uint64_t shed = 0;
  /// Requests dropped at dequeue because their deadline had already passed
  /// (futures failed with DeadlineExceeded, no simulation work spent).
  std::uint64_t expired = 0;
  /// Completions that made their deadline (deadline-less requests count).
  std::uint64_t deadline_met = 0;
  /// deadline_met / wall-clock seconds — filled by Engine::report().
  double goodput_per_sec = 0.0;
  /// Member work items this model's batches executed (>= batches; one per
  /// assembly member per batch that ran).
  std::uint64_t member_runs = 0;
  /// member_runs split by executor backend, indexed by lbnn::BackendKind
  /// (scalar, sliced, aot). A mid-traffic AOT promotion shows up as counts
  /// moving from the sliced column to the aot one.
  std::array<std::uint64_t, kNumBackendKinds> member_runs_by_backend{};
  /// Member work items executed by a worker that did NOT dequeue the batch —
  /// idle-worker stealing hiding a straggler member.
  std::uint64_t steals = 0;
  /// Speculative duplicates launched against a straggling last member
  /// (EngineOptions::hedging). A hedged member still counts exactly once in
  /// member_runs — the duplicate is redundancy, never extra logical work.
  std::uint64_t hedges_launched = 0;
  /// Hedges whose duplicate beat the original to the result claim.
  std::uint64_t hedge_wins = 0;
  /// Execution time burned by losing copies (original or duplicate) whose
  /// result was discarded — the price paid for the tail-latency insurance.
  std::uint64_t hedge_wasted_us = 0;
  /// Per-phase latency decomposition for this model's traffic.
  PhaseBreakdown phases;
};

/// Snapshot of a ServeStats aggregation (all values since construction or the
/// last reset()).
struct ServeReport {
  std::uint64_t requests = 0;  ///< completed single-sample requests
  std::uint64_t batches = 0;   ///< sealed batches executed
  std::uint64_t samples = 0;   ///< lanes actually occupied across batches
  std::uint64_t lanes_offered = 0;  ///< lane capacity summed over batches
  /// samples / lanes_offered — how full the 2m-lane datapath words were.
  double lane_occupancy = 0.0;
  std::uint64_t p50_latency_us = 0;  ///< request submit -> result latency
  std::uint64_t p99_latency_us = 0;
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  /// SLO counters: admission rejections (shed), dequeue drops (expired), and
  /// completions that made their deadline (deadline-less requests count as
  /// met — completing them is always good work).
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t deadline_met = 0;
  /// On-deadline completions per second — the number that must not degrade
  /// when admission shedding turns on (see bench/serve_overload).
  double goodput_per_sec = 0.0;
  /// Member-level execution counters (see bench/serve_stealing): work items
  /// run, how many ran on a worker other than their batch's claimer, the
  /// per-member service-time percentiles, and the batch straggler gap — the
  /// time between a batch's first and last member completing (only batches
  /// with >= 2 executed members record a gap; stealing exists to shrink it).
  std::uint64_t member_runs = 0;
  std::uint64_t steals = 0;
  /// member_runs split by executor backend (see ModelReport).
  std::array<std::uint64_t, kNumBackendKinds> member_runs_by_backend{};
  /// Straggler-hedging ledger (see ModelReport for field semantics). The
  /// invariant hedge_wins <= hedges_launched <= member_runs holds whenever
  /// every hedged member actually executes (no failures/expiry skips).
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedge_wasted_us = 0;
  std::uint64_t member_p50_us = 0;
  std::uint64_t member_p99_us = 0;
  /// Exact (sample-based) member service percentiles, next to the octave-
  /// bucketed ones above: the histogram is the right dashboard resolution,
  /// but a speedup gate quantized to powers of two is a coin flip — a true
  /// 3.5x kernel ratio reads as 2x or 4x depending on where the times land
  /// relative to bucket edges. Raw samples are kept up to a fixed cap (see
  /// ServeStats::kMemberSampleCap); past it the exact percentiles describe
  /// the first cap-many member runs while the histogram stays complete.
  /// bench/serve_simd gates on these.
  std::uint64_t member_p50_exact_us = 0;
  std::uint64_t member_p99_exact_us = 0;
  std::uint64_t straggler_gap_p50_us = 0;
  std::uint64_t straggler_gap_p99_us = 0;
  /// Per-phase latency decomposition across every model (see PhaseBreakdown).
  PhaseBreakdown phases;
  /// Simulator counters summed over every member run. lpe_utilization is the
  /// wavefront-weighted mean of the per-run utilizations.
  SimCounters sim;
  /// One row per currently loaded model (load order). Models unloaded since
  /// startup are folded into one persistent "(retired)" row at the end, so
  /// metrics spanning an unload or version flip keep their history.
  std::vector<ModelReport> per_model;
};

/// Thread-safe per-model serving metrics, embedded in each loaded model's
/// state. The Engine feeds it alongside the global ServeStats; report() fills
/// everything except the identity fields (name/weight/bound) and the derived
/// goodput rate, which the Engine owns.
class ModelStats {
 public:
  /// `deadline_met` counts how many of these completions made their deadline.
  void on_requests_done(const std::vector<std::uint64_t>& latencies_us,
                        std::uint64_t deadline_met);
  void on_batch(std::size_t samples, std::size_t lane_capacity);
  /// Ready-queue depth (in member work items) observed after an enqueue;
  /// keeps the high-water mark.
  void on_queue_depth(std::size_t depth);
  void on_shed();
  void on_expired(std::size_t n);
  /// A finalized batch's member slots: counts executed members, steals, and
  /// hedge wins.
  void on_members_done(const std::vector<MemberSlot>& slots);
  /// A speculative duplicate was launched against a straggling member.
  void on_hedge_launched();
  /// A losing copy (original or duplicate) finished and discarded `wasted_us`
  /// of execution time.
  void on_hedge_waste(std::uint64_t wasted_us);
  /// One finalized batch's phase decomposition: per-request assembly waits
  /// (submit -> seal), then the batch-weighted seal -> dispatch, dispatch ->
  /// last member, and settle times. See PhaseBreakdown.
  void on_phases(const std::vector<std::uint64_t>& assembly_us,
                 std::uint64_t queue_wait_us, std::uint64_t execution_us,
                 std::uint64_t finalize_us);
  /// Fold another model's entire history into this one (used by the engine's
  /// retired-model aggregate on unload). The queue-depth high-water mark takes
  /// the max; everything else adds.
  void merge_from(const ModelStats& other);

  ModelReport report() const;

 private:
  mutable std::mutex mu_;
  LatencyHistogram hist_;
  LatencyHistogram assembly_hist_;
  LatencyHistogram queue_wait_hist_;
  LatencyHistogram execution_hist_;
  LatencyHistogram finalize_hist_;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t lanes_offered_ = 0;
  std::size_t queue_depth_hwm_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t deadline_met_ = 0;
  std::uint64_t member_runs_ = 0;
  std::array<std::uint64_t, kNumBackendKinds> member_runs_by_backend_{};
  std::uint64_t steals_ = 0;
  std::uint64_t hedges_launched_ = 0;
  std::uint64_t hedge_wins_ = 0;
  std::uint64_t hedge_wasted_us_ = 0;
};

/// Thread-safe serving metrics: request latencies (for p50/p99), batch lane
/// occupancy, SLO outcomes (shed/expired/on-deadline), and SimCounters
/// aggregated across every simulator run the engine's workers execute. Wall
/// time comes from the injected clock, so ManualClock tests get deterministic
/// rates.
class ServeStats {
 public:
  /// `clock` must outlive the stats; nullptr means the system clock.
  explicit ServeStats(ClockSource* clock = nullptr)
      : clock_(clock != nullptr ? clock : &SystemClock::instance()),
        start_(clock_->now()) {}

  void on_request_done(std::uint64_t latency_us);
  /// Record a whole batch's request latencies under one lock acquisition
  /// (finalize is on the worker hot path). `deadline_met` counts how many of
  /// them made their deadline.
  void on_requests_done(const std::vector<std::uint64_t>& latencies_us,
                        std::uint64_t deadline_met);
  void on_batch(std::size_t samples, std::size_t lane_capacity);
  void on_sim_run(const SimCounters& c);
  void on_shed();
  void on_expired(std::size_t n);
  /// A finalized batch's member slots, recorded in one lock acquisition:
  /// member service-time percentiles, steal/hedge-win counts, and — for
  /// batches where at least two members executed — the straggler gap between
  /// the first and the last member to finish.
  void on_members_done(const std::vector<MemberSlot>& slots);
  void on_hedge_launched();
  void on_hedge_waste(std::uint64_t wasted_us);
  /// One finalized batch's phase decomposition (see ModelStats::on_phases).
  void on_phases(const std::vector<std::uint64_t>& assembly_us,
                 std::uint64_t queue_wait_us, std::uint64_t execution_us,
                 std::uint64_t finalize_us);

  ServeReport report() const;
  void reset();

  /// Raw member service samples kept for the exact percentiles (8 bytes
  /// each; recording stops at the cap, the histogram never does).
  static constexpr std::size_t kMemberSampleCap = 1 << 18;

 private:
  mutable std::mutex mu_;
  ClockSource* clock_;
  LatencyHistogram hist_;
  LatencyHistogram member_hist_;
  std::vector<std::uint64_t> member_samples_;
  LatencyHistogram straggler_hist_;
  LatencyHistogram assembly_hist_;
  LatencyHistogram queue_wait_hist_;
  LatencyHistogram execution_hist_;
  LatencyHistogram finalize_hist_;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t lanes_offered_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t deadline_met_ = 0;
  std::uint64_t member_runs_ = 0;
  std::array<std::uint64_t, kNumBackendKinds> member_runs_by_backend_{};
  std::uint64_t steals_ = 0;
  std::uint64_t hedges_launched_ = 0;
  std::uint64_t hedge_wins_ = 0;
  std::uint64_t hedge_wasted_us_ = 0;
  SimCounters sim_;
  /// Sum of (lpe_utilization * wavefronts) per run; report() divides by the
  /// summed wavefronts to recover the weighted mean.
  double util_weight_ = 0.0;
  TimePoint start_;
};

}  // namespace lbnn::runtime
