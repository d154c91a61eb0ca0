#include "runtime/metrics.hpp"

#include <sstream>

namespace lbnn::runtime {
namespace {

void escape_label(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

void escape_json(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
}

void prom_phase(std::ostream& os, const char* phase, const PhaseStats& p,
                const std::string& shard_tail) {
  os << "lbnn_phase_latency_us{phase=\"" << phase << "\",quantile=\"0.5\""
     << shard_tail << "} " << p.p50_us << "\n";
  os << "lbnn_phase_latency_us{phase=\"" << phase << "\",quantile=\"0.99\""
     << shard_tail << "} " << p.p99_us << "\n";
  os << "lbnn_phase_samples_total{phase=\"" << phase << "\"" << shard_tail
     << "} " << p.count << "\n";
}

void json_phase(std::ostream& os, const char* name, const PhaseStats& p,
                bool trailing_comma) {
  os << "\"" << name << "\":{\"p50_us\":" << p.p50_us << ",\"p99_us\":" << p.p99_us
     << ",\"count\":" << p.count << "}";
  if (trailing_comma) os << ",";
}

/// The fields a per-model row and the total share, in one order.
void json_summary(std::ostream& os, const StatsSummary& r) {
  os << "\"requests\":" << r.requests;
  os << ",\"batches\":" << r.batches;
  os << ",\"samples\":" << r.samples;
  os << ",\"lanes_offered\":" << r.lanes_offered;
  os << ",\"lane_occupancy\":" << r.lane_occupancy;
  os << ",\"p50_latency_us\":" << r.p50_latency_us;
  os << ",\"p99_latency_us\":" << r.p99_latency_us;
  os << ",\"queue_depth_hwm\":" << r.queue_depth_hwm;
  os << ",\"shed\":" << r.shed;
  os << ",\"expired\":" << r.expired;
  os << ",\"failed\":" << r.failed;
  os << ",\"deadline_met\":" << r.deadline_met;
  os << ",\"goodput_per_sec\":" << r.goodput_per_sec;
  os << ",\"member_runs\":" << r.member_runs;
  os << ",\"member_runs_by_backend\":{";
  for (std::size_t b = 0; b < r.member_runs_by_backend.size(); ++b) {
    if (b > 0) os << ",";
    os << "\"" << to_string(static_cast<BackendKind>(b))
       << "\":" << r.member_runs_by_backend[b];
  }
  os << "}";
  os << ",\"steals\":" << r.steals;
  os << ",\"member_p50_us\":" << r.member_p50_us;
  os << ",\"member_p99_us\":" << r.member_p99_us;
  os << ",\"straggler_gap_p50_us\":" << r.straggler_gap_p50_us;
  os << ",\"straggler_gap_p99_us\":" << r.straggler_gap_p99_us;
  os << ",\"phases\":{";
  json_phase(os, "assembly_wait", r.phases.assembly_wait, true);
  json_phase(os, "queue_wait", r.phases.queue_wait, true);
  json_phase(os, "execution", r.phases.execution, true);
  json_phase(os, "finalize", r.phases.finalize, false);
  os << "}";
}

}  // namespace

std::string to_prometheus(const ServeReport& r) {
  return to_prometheus(std::vector<LabelledReport>{{std::string(), &r}});
}

std::string to_prometheus(const std::vector<LabelledReport>& shards) {
  std::ostringstream os;
  // `{shard="N"}` for a labelled slice, nothing for the single-engine form —
  // precomputed per shard, and reused as the `,shard="N"` tail when the
  // series already carries other labels (phase/model).
  std::vector<std::string> bare, tail;
  bare.reserve(shards.size());
  tail.reserve(shards.size());
  for (const LabelledReport& s : shards) {
    if (s.shard.empty()) {
      bare.emplace_back();
      tail.emplace_back();
    } else {
      bare.push_back("{shard=\"" + s.shard + "\"}");
      tail.push_back(",shard=\"" + s.shard + "\"");
    }
  }
  // One HELP/TYPE block per metric, then one sample per shard: exposition
  // metadata must not repeat inside a scrape body.
  auto series = [&](const char* name, const char* help, const char* type,
                    auto get) {
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
    for (std::size_t i = 0; i < shards.size(); ++i) {
      os << name << bare[i] << " " << get(*shards[i].report) << "\n";
    }
  };
  auto counter = [&](const char* name, const char* help, auto get) {
    series(name, help, "counter", get);
  };
  auto gauge = [&](const char* name, const char* help, auto get) {
    series(name, help, "gauge", get);
  };
  using R = const ServeReport&;
  counter("lbnn_requests_total", "Completed requests",
          [](R r) { return r.requests; });
  counter("lbnn_batches_total", "Sealed batches executed",
          [](R r) { return r.batches; });
  counter("lbnn_samples_total", "Lanes occupied across batches",
          [](R r) { return r.samples; });
  counter("lbnn_lanes_offered_total", "Lane capacity summed over batches",
          [](R r) { return r.lanes_offered; });
  gauge("lbnn_lane_occupancy", "samples / lanes_offered",
        [](R r) { return r.lane_occupancy; });
  gauge("lbnn_request_latency_us_p50", "Request latency p50 (us)",
        [](R r) { return r.p50_latency_us; });
  gauge("lbnn_request_latency_us_p99", "Request latency p99 (us)",
        [](R r) { return r.p99_latency_us; });
  gauge("lbnn_requests_per_sec", "Completed requests per wall second",
        [](R r) { return r.requests_per_sec; });
  gauge("lbnn_goodput_per_sec", "On-deadline completions per wall second",
        [](R r) { return r.goodput_per_sec; });
  counter("lbnn_shed_total", "Admission rejections (deadline unmeetable)",
          [](R r) { return r.shed; });
  counter("lbnn_expired_total", "Requests dropped at dequeue past deadline",
          [](R r) { return r.expired; });
  counter("lbnn_failed_total", "Accepted requests whose batch failed",
          [](R r) { return r.failed; });
  counter("lbnn_deadline_met_total", "Completions that made their deadline",
          [](R r) { return r.deadline_met; });
  counter("lbnn_member_runs_total", "Member work items executed",
          [](R r) { return r.member_runs; });
  // Member runs split by executor backend: the sliced column drains and the
  // aot column fills as members promote mid-traffic.
  os << "# HELP lbnn_member_runs_backend_total Member runs per executor backend\n";
  os << "# TYPE lbnn_member_runs_backend_total counter\n";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ServeReport& r = *shards[i].report;
    for (std::size_t b = 0; b < r.member_runs_by_backend.size(); ++b) {
      os << "lbnn_member_runs_backend_total{backend=\""
         << to_string(static_cast<BackendKind>(b)) << "\"" << tail[i] << "} "
         << r.member_runs_by_backend[b] << "\n";
    }
  }
  counter("lbnn_steals_total", "Member runs executed by a non-claimer worker",
          [](R r) { return r.steals; });
  gauge("lbnn_member_latency_us_p99", "Member service time p99 (us)",
        [](R r) { return r.member_p99_us; });
  gauge("lbnn_straggler_gap_us_p99", "Batch first-to-last member gap p99 (us)",
        [](R r) { return r.straggler_gap_p99_us; });
  os << "# HELP lbnn_phase_latency_us Per-phase latency percentiles (us)\n";
  os << "# TYPE lbnn_phase_latency_us gauge\n";
  os << "# HELP lbnn_phase_samples_total Samples per phase histogram\n";
  os << "# TYPE lbnn_phase_samples_total counter\n";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ServeReport& r = *shards[i].report;
    prom_phase(os, "assembly_wait", r.phases.assembly_wait, tail[i]);
    prom_phase(os, "queue_wait", r.phases.queue_wait, tail[i]);
    prom_phase(os, "execution", r.phases.execution, tail[i]);
    prom_phase(os, "finalize", r.phases.finalize, tail[i]);
  }
  bool any_models = false;
  for (const LabelledReport& s : shards) {
    if (!s.report->per_model.empty()) any_models = true;
  }
  if (any_models) {
    os << "# HELP lbnn_model_requests_total Completed requests per model\n";
    os << "# TYPE lbnn_model_requests_total counter\n";
    os << "# HELP lbnn_model_latency_us_p99 Per-model request latency p99 (us)\n";
    os << "# TYPE lbnn_model_latency_us_p99 gauge\n";
    os << "# HELP lbnn_model_shed_total Admission rejections per model\n";
    os << "# TYPE lbnn_model_shed_total counter\n";
    os << "# HELP lbnn_model_expired_total Dequeue expiries per model\n";
    os << "# TYPE lbnn_model_expired_total counter\n";
    os << "# HELP lbnn_model_failed_total Failed-batch requests per model\n";
    os << "# TYPE lbnn_model_failed_total counter\n";
    os << "# HELP lbnn_model_goodput_per_sec On-deadline completions per second per model\n";
    os << "# TYPE lbnn_model_goodput_per_sec gauge\n";
    for (std::size_t i = 0; i < shards.size(); ++i) {
      for (const ModelReport& m : shards[i].report->per_model) {
        auto label = [&](const char* name) -> std::ostream& {
          os << name << "{model=\"";
          escape_label(os, m.name);
          os << "\"" << tail[i] << "} ";
          return os;
        };
        label("lbnn_model_requests_total") << m.requests << "\n";
        label("lbnn_model_latency_us_p99") << m.p99_latency_us << "\n";
        label("lbnn_model_shed_total") << m.shed << "\n";
        label("lbnn_model_expired_total") << m.expired << "\n";
        label("lbnn_model_failed_total") << m.failed << "\n";
        label("lbnn_model_goodput_per_sec") << m.goodput_per_sec << "\n";
      }
    }
  }
  return os.str();
}

std::string to_json(const ServeReport& r) {
  std::ostringstream os;
  os << "{";
  json_summary(os, r);
  os << ",\"wall_seconds\":" << r.wall_seconds;
  os << ",\"requests_per_sec\":" << r.requests_per_sec;
  os << ",\"per_model\":[";
  for (std::size_t i = 0; i < r.per_model.size(); ++i) {
    const ModelReport& m = r.per_model[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"";
    escape_json(os, m.name);
    os << "\",\"weight\":" << m.weight;
    os << ",\"queue_bound\":" << m.queue_bound << ",";
    json_summary(os, m);
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace lbnn::runtime
