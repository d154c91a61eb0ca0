#include "runtime/serve_stats.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace lbnn::runtime {

void LatencyHistogram::record(std::uint64_t micros) {
  std::size_t bucket = 0;
  if (micros > 0) {
    bucket = static_cast<std::size_t>(64 - countl_zero64(micros));
    if (bucket >= buckets_.size()) bucket = buckets_.size() - 1;
  }
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

std::uint64_t LatencyHistogram::percentile_us(double p) const {
  if (count_ == 0) return 0;
  // Rank of the p-th percentile sample, 1-based, clamped to [1, count].
  auto rank = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return i == 0 ? 0 : (i >= 63 ? ~0ull : (1ull << i) - 1);
    }
  }
  return ~0ull;
}

void ModelStats::on_requests_done(const std::vector<std::uint64_t>& latencies_us,
                                  std::uint64_t deadline_met) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const std::uint64_t us : latencies_us) hist_.record(us);
  requests_ += latencies_us.size();
  deadline_met_ += deadline_met;
}

void ModelStats::on_batch(std::size_t samples, std::size_t lane_capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  ++batches_;
  samples_ += samples;
  lanes_offered_ += lane_capacity;
}

void ModelStats::on_queue_depth(std::size_t depth) {
  std::lock_guard<std::mutex> lk(mu_);
  if (depth > queue_depth_hwm_) queue_depth_hwm_ = depth;
}

void ModelStats::on_shed() {
  std::lock_guard<std::mutex> lk(mu_);
  ++shed_;
}

void ModelStats::on_expired(std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  expired_ += n;
}

void ModelStats::on_members_done(const std::vector<MemberSlot>& slots) {
  std::uint64_t ran = 0;
  std::uint64_t stolen = 0;
  std::uint64_t hedge_won = 0;
  std::array<std::uint64_t, kNumBackendKinds> by_backend{};
  for (const MemberSlot& slot : slots) {
    if (!slot.ran) continue;
    ++ran;
    if (slot.stolen) ++stolen;
    if (slot.hedge_won) ++hedge_won;
    ++by_backend[slot.backend];
  }
  if (ran == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  member_runs_ += ran;
  steals_ += stolen;
  hedge_wins_ += hedge_won;
  for (std::size_t b = 0; b < by_backend.size(); ++b) {
    member_runs_by_backend_[b] += by_backend[b];
  }
}

void ModelStats::on_hedge_launched() {
  std::lock_guard<std::mutex> lk(mu_);
  ++hedges_launched_;
}

void ModelStats::on_hedge_waste(std::uint64_t wasted_us) {
  std::lock_guard<std::mutex> lk(mu_);
  hedge_wasted_us_ += wasted_us;
}

void ModelStats::on_phases(const std::vector<std::uint64_t>& assembly_us,
                           std::uint64_t queue_wait_us, std::uint64_t execution_us,
                           std::uint64_t finalize_us) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const std::uint64_t us : assembly_us) assembly_hist_.record(us);
  queue_wait_hist_.record(queue_wait_us);
  execution_hist_.record(execution_us);
  finalize_hist_.record(finalize_us);
}

void ModelStats::merge_from(const ModelStats& other) {
  std::scoped_lock lk(mu_, other.mu_);
  hist_.merge(other.hist_);
  assembly_hist_.merge(other.assembly_hist_);
  queue_wait_hist_.merge(other.queue_wait_hist_);
  execution_hist_.merge(other.execution_hist_);
  finalize_hist_.merge(other.finalize_hist_);
  requests_ += other.requests_;
  batches_ += other.batches_;
  samples_ += other.samples_;
  lanes_offered_ += other.lanes_offered_;
  if (other.queue_depth_hwm_ > queue_depth_hwm_) queue_depth_hwm_ = other.queue_depth_hwm_;
  shed_ += other.shed_;
  expired_ += other.expired_;
  deadline_met_ += other.deadline_met_;
  member_runs_ += other.member_runs_;
  for (std::size_t b = 0; b < member_runs_by_backend_.size(); ++b) {
    member_runs_by_backend_[b] += other.member_runs_by_backend_[b];
  }
  steals_ += other.steals_;
  hedges_launched_ += other.hedges_launched_;
  hedge_wins_ += other.hedge_wins_;
  hedge_wasted_us_ += other.hedge_wasted_us_;
}

namespace {
PhaseStats phase_stats(const LatencyHistogram& h) {
  PhaseStats p;
  p.p50_us = h.percentile_us(50.0);
  p.p99_us = h.percentile_us(99.0);
  p.count = h.count();
  return p;
}
}  // namespace

ModelReport ModelStats::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  ModelReport r;
  r.requests = requests_;
  r.batches = batches_;
  r.samples = samples_;
  r.lanes_offered = lanes_offered_;
  r.lane_occupancy = lanes_offered_ == 0
                         ? 0.0
                         : static_cast<double>(samples_) / static_cast<double>(lanes_offered_);
  r.p50_latency_us = hist_.percentile_us(50.0);
  r.p99_latency_us = hist_.percentile_us(99.0);
  r.queue_depth_hwm = queue_depth_hwm_;
  r.shed = shed_;
  r.expired = expired_;
  r.deadline_met = deadline_met_;
  r.member_runs = member_runs_;
  r.member_runs_by_backend = member_runs_by_backend_;
  r.steals = steals_;
  r.hedges_launched = hedges_launched_;
  r.hedge_wins = hedge_wins_;
  r.hedge_wasted_us = hedge_wasted_us_;
  r.phases.assembly_wait = phase_stats(assembly_hist_);
  r.phases.queue_wait = phase_stats(queue_wait_hist_);
  r.phases.execution = phase_stats(execution_hist_);
  r.phases.finalize = phase_stats(finalize_hist_);
  return r;
}

void ServeStats::on_request_done(std::uint64_t latency_us) {
  std::lock_guard<std::mutex> lk(mu_);
  hist_.record(latency_us);
  ++requests_;
  ++deadline_met_;  // single-request path carries no deadline: always good
}

void ServeStats::on_requests_done(const std::vector<std::uint64_t>& latencies_us,
                                  std::uint64_t deadline_met) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const std::uint64_t us : latencies_us) hist_.record(us);
  requests_ += latencies_us.size();
  deadline_met_ += deadline_met;
}

void ServeStats::on_batch(std::size_t samples, std::size_t lane_capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  ++batches_;
  samples_ += samples;
  lanes_offered_ += lane_capacity;
}

void ServeStats::on_sim_run(const SimCounters& c) {
  std::lock_guard<std::mutex> lk(mu_);
  sim_.wavefronts += c.wavefronts;
  sim_.macro_cycles += c.macro_cycles;
  sim_.clock_cycles += c.clock_cycles;
  sim_.lpe_computes += c.lpe_computes;
  sim_.route_writes += c.route_writes;
  sim_.input_reads += c.input_reads;
  sim_.feedback_words += c.feedback_words;
  util_weight_ += c.lpe_utilization * static_cast<double>(c.wavefronts);
}

void ServeStats::on_shed() {
  std::lock_guard<std::mutex> lk(mu_);
  ++shed_;
}

void ServeStats::on_expired(std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  expired_ += n;
}

void ServeStats::on_members_done(const std::vector<MemberSlot>& slots) {
  // Derive everything outside the lock; the slots are immutable here (every
  // writer's store is ordered before finalize by the completion latch).
  std::uint64_t ran = 0;
  std::uint64_t stolen = 0;
  std::uint64_t hedge_won = 0;
  std::array<std::uint64_t, kNumBackendKinds> by_backend{};
  std::int64_t first_done = 0;
  std::int64_t last_done = 0;
  for (const MemberSlot& slot : slots) {
    if (!slot.ran) continue;
    if (ran == 0 || slot.done_at_us < first_done) first_done = slot.done_at_us;
    if (ran == 0 || slot.done_at_us > last_done) last_done = slot.done_at_us;
    ++ran;
    if (slot.stolen) ++stolen;
    if (slot.hedge_won) ++hedge_won;
    ++by_backend[slot.backend];
  }
  if (ran == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  for (const MemberSlot& slot : slots) {
    if (!slot.ran) continue;
    member_hist_.record(slot.service_us);
    if (member_samples_.size() < kMemberSampleCap) {
      member_samples_.push_back(slot.service_us);
    }
  }
  member_runs_ += ran;
  for (std::size_t b = 0; b < by_backend.size(); ++b) {
    member_runs_by_backend_[b] += by_backend[b];
  }
  steals_ += stolen;
  hedge_wins_ += hedge_won;
  if (ran > 1) {
    straggler_hist_.record(static_cast<std::uint64_t>(last_done - first_done));
  }
}

void ServeStats::on_hedge_launched() {
  std::lock_guard<std::mutex> lk(mu_);
  ++hedges_launched_;
}

void ServeStats::on_hedge_waste(std::uint64_t wasted_us) {
  std::lock_guard<std::mutex> lk(mu_);
  hedge_wasted_us_ += wasted_us;
}

void ServeStats::on_phases(const std::vector<std::uint64_t>& assembly_us,
                           std::uint64_t queue_wait_us, std::uint64_t execution_us,
                           std::uint64_t finalize_us) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const std::uint64_t us : assembly_us) assembly_hist_.record(us);
  queue_wait_hist_.record(queue_wait_us);
  execution_hist_.record(execution_us);
  finalize_hist_.record(finalize_us);
}

ServeReport ServeStats::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServeReport r;
  r.requests = requests_;
  r.batches = batches_;
  r.samples = samples_;
  r.lanes_offered = lanes_offered_;
  r.lane_occupancy = lanes_offered_ == 0
                         ? 0.0
                         : static_cast<double>(samples_) / static_cast<double>(lanes_offered_);
  r.p50_latency_us = hist_.percentile_us(50.0);
  r.p99_latency_us = hist_.percentile_us(99.0);
  r.wall_seconds = std::chrono::duration<double>(clock_->now() - start_).count();
  r.requests_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(requests_) / r.wall_seconds : 0.0;
  r.shed = shed_;
  r.expired = expired_;
  r.deadline_met = deadline_met_;
  r.goodput_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(deadline_met_) / r.wall_seconds : 0.0;
  r.member_runs = member_runs_;
  r.member_runs_by_backend = member_runs_by_backend_;
  r.steals = steals_;
  r.hedges_launched = hedges_launched_;
  r.hedge_wins = hedge_wins_;
  r.hedge_wasted_us = hedge_wasted_us_;
  r.member_p50_us = member_hist_.percentile_us(50.0);
  r.member_p99_us = member_hist_.percentile_us(99.0);
  if (!member_samples_.empty()) {
    std::vector<std::uint64_t> sorted(member_samples_);
    std::sort(sorted.begin(), sorted.end());
    const auto rank = [&sorted](double p) {
      std::size_t r = static_cast<std::size_t>(
          p / 100.0 * static_cast<double>(sorted.size()));
      return sorted[r < sorted.size() ? r : sorted.size() - 1];
    };
    r.member_p50_exact_us = rank(50.0);
    r.member_p99_exact_us = rank(99.0);
  }
  r.straggler_gap_p50_us = straggler_hist_.percentile_us(50.0);
  r.straggler_gap_p99_us = straggler_hist_.percentile_us(99.0);
  r.phases.assembly_wait = phase_stats(assembly_hist_);
  r.phases.queue_wait = phase_stats(queue_wait_hist_);
  r.phases.execution = phase_stats(execution_hist_);
  r.phases.finalize = phase_stats(finalize_hist_);
  r.sim = sim_;
  r.sim.lpe_utilization =
      sim_.wavefronts == 0 ? 0.0 : util_weight_ / static_cast<double>(sim_.wavefronts);
  return r;
}

void ServeStats::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  hist_ = LatencyHistogram{};
  member_hist_ = LatencyHistogram{};
  straggler_hist_ = LatencyHistogram{};
  assembly_hist_ = LatencyHistogram{};
  queue_wait_hist_ = LatencyHistogram{};
  execution_hist_ = LatencyHistogram{};
  finalize_hist_ = LatencyHistogram{};
  requests_ = batches_ = samples_ = lanes_offered_ = 0;
  shed_ = expired_ = deadline_met_ = 0;
  member_runs_ = steals_ = 0;
  member_runs_by_backend_.fill(0);
  member_samples_.clear();
  hedges_launched_ = hedge_wins_ = hedge_wasted_us_ = 0;
  sim_ = SimCounters{};
  util_weight_ = 0.0;
  start_ = clock_->now();
}

}  // namespace lbnn::runtime
