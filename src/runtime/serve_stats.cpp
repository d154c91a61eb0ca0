#include "runtime/serve_stats.hpp"

#include <algorithm>
#include <chrono>

#include "common/bits.hpp"

namespace lbnn::runtime {

namespace {

/// 2^4 = 16 sub-buckets per octave: the 6.25% resolution.
constexpr unsigned kSubBits = 4;
constexpr std::uint64_t kSubBuckets = 1ull << kSubBits;

/// Values below 16 index themselves; above, the octave's shift selects a
/// 16-bucket block and the value's top 5 bits (16..31) the sub-bucket.
std::size_t bucket_of(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const unsigned shift = static_cast<unsigned>(63 - countl_zero64(v)) - kSubBits;
  return (static_cast<std::size_t>(shift) << kSubBits) +
         static_cast<std::size_t>(v >> shift);
}

/// Largest value bucket i holds (bucket 975's bound wraps to 2^64 - 1).
std::uint64_t bucket_upper(std::size_t i) {
  if (i < kSubBuckets) return i;
  const unsigned shift = static_cast<unsigned>(i >> kSubBits) - 1;
  const std::uint64_t sub = i - (static_cast<std::uint64_t>(shift) << kSubBits);
  return ((sub + 1) << shift) - 1;
}

/// `weight` scales lpe_utilization: a run's wavefront count when adding one
/// run, 1 when adding an already-weighted sum.
void add_sim(SimCounters& into, const SimCounters& c, double weight) {
  into.wavefronts += c.wavefronts;
  into.macro_cycles += c.macro_cycles;
  into.clock_cycles += c.clock_cycles;
  into.lpe_computes += c.lpe_computes;
  into.route_writes += c.route_writes;
  into.input_reads += c.input_reads;
  into.feedback_words += c.feedback_words;
  into.lpe_utilization += c.lpe_utilization * weight;
}

PhaseStats phase_stats(const LatencyHistogram& h) {
  PhaseStats p;
  p.p50_us = h.percentile_us(50.0);
  p.p99_us = h.percentile_us(99.0);
  p.count = h.count();
  return p;
}

double per_sec(std::uint64_t n, double wall_seconds) {
  return wall_seconds > 0.0 ? static_cast<double>(n) / wall_seconds : 0.0;
}

void summarize(const StatsRecord& s, double wall_seconds, StatsSummary* out) {
  out->requests = s.requests;
  out->batches = s.batches;
  out->samples = s.samples;
  out->lanes_offered = s.lanes_offered;
  out->lane_occupancy =
      s.lanes_offered == 0
          ? 0.0
          : static_cast<double>(s.samples) / static_cast<double>(s.lanes_offered);
  out->p50_latency_us = s.latency.percentile_us(50.0);
  out->p99_latency_us = s.latency.percentile_us(99.0);
  out->queue_depth_hwm = s.queue_depth_hwm;
  out->shed = s.shed;
  out->expired = s.expired;
  out->failed = s.failed;
  out->deadline_met = s.deadline_met;
  out->goodput_per_sec = per_sec(s.deadline_met, wall_seconds);
  out->member_runs = s.member_runs;
  out->member_runs_by_backend = s.member_runs_by_backend;
  out->steals = s.steals;
  out->member_p50_us = s.member.percentile_us(50.0);
  out->member_p99_us = s.member.percentile_us(99.0);
  out->straggler_gap_p50_us = s.straggler_gap.percentile_us(50.0);
  out->straggler_gap_p99_us = s.straggler_gap.percentile_us(99.0);
  out->phases.assembly_wait = phase_stats(s.assembly_wait);
  out->phases.queue_wait = phase_stats(s.queue_wait);
  out->phases.execution = phase_stats(s.execution);
  out->phases.finalize = phase_stats(s.finalize);
  out->sim = s.sim;
  out->sim.lpe_utilization =
      s.sim.wavefronts == 0
          ? 0.0
          : s.sim.lpe_utilization / static_cast<double>(s.sim.wavefronts);
}

}  // namespace

void LatencyHistogram::record(std::uint64_t micros) {
  const std::size_t i = bucket_of(micros);
  if (i >= buckets_.size()) buckets_.resize(i + 1);
  ++buckets_[i];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  const std::vector<std::uint64_t>& from = other.buckets_;
  if (from.size() > buckets_.size()) buckets_.resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) buckets_[i] += from[i];
  count_ += other.count_;
}

std::uint64_t LatencyHistogram::percentile_us(double p) const {
  if (count_ == 0) return 0;
  // Rank of the p-th percentile sample, 1-based, clamped to [1, count].
  auto rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.5);
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return bucket_upper(i);
  }
  return ~0ull;
}

void StatsRecord::add_batch(const std::vector<Request>& batch,
                            const std::vector<MemberSlot>& slots,
                            std::size_t lane_capacity, bool batch_failed,
                            std::int64_t sealed_at_us,
                            std::int64_t dispatched_at_us, TimePoint now) {
  std::uint64_t ran = 0;
  std::int64_t first_done = 0;
  std::int64_t last_done = 0;
  for (const MemberSlot& slot : slots) {
    if (!slot.ran) continue;
    if (ran == 0 || slot.done_at_us < first_done) first_done = slot.done_at_us;
    if (ran == 0 || slot.done_at_us > last_done) last_done = slot.done_at_us;
    ++ran;
    if (slot.stolen) ++steals;
    ++member_runs_by_backend[slot.backend];
    member.record(slot.service_us);
    add_sim(sim, slot.sim, static_cast<double>(slot.sim.wavefronts));
  }
  member_runs += ran;
  if (ran > 1) straggler_gap.record(static_cast<std::uint64_t>(last_done - first_done));

  std::uint64_t live = 0;
  for (const Request& req : batch) {
    if (!req.expired) ++live;
  }
  // A failed batch ran (and wasted its lanes) but produced no samples; a
  // fully expired one (live == 0) never ran and offered no lanes.
  if (!batch_failed && live == 0) return;
  ++batches;
  lanes_offered += lane_capacity;
  if (batch_failed) {
    failed += live;
    return;
  }
  requests += live;
  samples += live;
  // Execution ends at the last member's completion stamp. Phases clamp at
  // 0: a ManualClock that never advanced yields all-zero phases.
  const std::int64_t exec_done =
      ran == 0 ? dispatched_at_us : std::max(dispatched_at_us, last_done);
  const auto clamp_us = [](std::int64_t v) -> std::uint64_t {
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  };
  for (const Request& req : batch) {
    if (req.expired) continue;
    latency.record(clamp_us(
        std::chrono::duration_cast<std::chrono::microseconds>(now - req.enqueued)
            .count()));
    assembly_wait.record(clamp_us(sealed_at_us - to_us(req.enqueued)));
    // A deadline-less completion is always good work; a deadlined one only
    // counts toward goodput when it finished in time.
    if (req.deadline == kNoDeadline || now <= req.deadline) ++deadline_met;
  }
  queue_wait.record(clamp_us(dispatched_at_us - sealed_at_us));
  execution.record(clamp_us(exec_done - dispatched_at_us));
  finalize.record(clamp_us(to_us(now) - exec_done));
}

void StatsRecord::note_queue_depth(std::size_t depth) {
  queue_depth_hwm = std::max(queue_depth_hwm, depth);
}

void StatsRecord::merge(const StatsRecord& o) {
  requests += o.requests;
  batches += o.batches;
  samples += o.samples;
  lanes_offered += o.lanes_offered;
  queue_depth_hwm = std::max(queue_depth_hwm, o.queue_depth_hwm);
  shed += o.shed;
  expired += o.expired;
  failed += o.failed;
  deadline_met += o.deadline_met;
  member_runs += o.member_runs;
  for (std::size_t b = 0; b < member_runs_by_backend.size(); ++b) {
    member_runs_by_backend[b] += o.member_runs_by_backend[b];
  }
  steals += o.steals;
  latency.merge(o.latency);
  member.merge(o.member);
  straggler_gap.merge(o.straggler_gap);
  assembly_wait.merge(o.assembly_wait);
  queue_wait.merge(o.queue_wait);
  execution.merge(o.execution);
  finalize.merge(o.finalize);
  add_sim(sim, o.sim, 1.0);
}

ServeReport make_report(const StatsSnapshot& snapshot) {
  ServeReport r;
  StatsRecord total;
  r.per_model.reserve(snapshot.rows.size());
  for (const ModelRecord& row : snapshot.rows) {
    ModelReport m;
    summarize(row.stats, snapshot.wall_seconds, &m);
    m.name = row.name;
    m.weight = row.weight;
    m.queue_bound = row.queue_bound;
    r.per_model.push_back(std::move(m));
    total.merge(row.stats);
  }
  summarize(total, snapshot.wall_seconds, &r);
  r.wall_seconds = snapshot.wall_seconds;
  r.requests_per_sec = per_sec(total.requests, snapshot.wall_seconds);
  return r;
}

}  // namespace lbnn::runtime
