#include "runtime/trace.hpp"

#include <algorithm>
#include <chrono>

namespace lbnn::runtime {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

// Minimal JSON string escaper: model names come from user code.
void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
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
  os << '"';
}

}  // namespace

const char* to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSubmit: return "submit";
    case TraceEventType::kAdmit: return "admit";
    case TraceEventType::kShed: return "shed";
    case TraceEventType::kSeal: return "seal";
    case TraceEventType::kEnqueue: return "enqueue";
    case TraceEventType::kDispatch: return "dispatch";
    case TraceEventType::kMemberClaim: return "member_claim";
    case TraceEventType::kMemberSteal: return "member_steal";
    case TraceEventType::kMemberDone: return "member_done";
    case TraceEventType::kExpire: return "expire";
    case TraceEventType::kRequestDone: return "request_done";
    case TraceEventType::kFinalize: return "finalize";
    case TraceEventType::kPromote: return "promote";
  }
  return "unknown";
}

TraceRing::TraceRing(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

bool TraceRing::try_push(const TraceEvent& ev) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[head & mask_] = ev;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

void TraceRing::drain_into(std::vector<TraceEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  while (tail != head) {
    out.push_back(slots_[tail & mask_]);
    ++tail;
  }
  tail_.store(tail, std::memory_order_release);
}

Tracer::Tracer(std::size_t num_workers, std::size_t ring_capacity,
               ClockSource& clock)
    : clock_(clock) {
  rings_.reserve(num_workers + 1);
  for (std::size_t i = 0; i < num_workers + 1; ++i) {
    rings_.push_back(std::make_unique<TraceRing>(ring_capacity));
  }
}

void Tracer::register_model(std::uint64_t id, const std::string& name) {
  std::lock_guard<std::mutex> lk(names_mu_);
  names_[id] = name;
}

std::string Tracer::model_name(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(names_mu_);
  auto it = names_.find(id);
  return it == names_.end() ? std::string("model#") + std::to_string(id) : it->second;
}

void Tracer::emit(std::size_t track, TraceEvent ev) {
  if (track >= rings_.size()) track = kSharedTrack;
  ev.track = static_cast<std::uint16_t>(track);
  ev.ts_us = to_us(clock_.now());
  if (track == kSharedTrack) {
    // Multiple client threads share track 0: serialize the producer side so
    // the ring's SPSC contract holds. Stamp seq inside the lock so shared-
    // track events are ring-ordered by seq too.
    std::lock_guard<std::mutex> lk(shared_mu_);
    ev.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    rings_[kSharedTrack]->try_push(ev);
  } else {
    ev.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    rings_[track]->try_push(ev);
  }
}

std::vector<TraceEvent> Tracer::drain() {
  std::lock_guard<std::mutex> lk(consumer_mu_);
  std::vector<TraceEvent> out;
  for (auto& ring : rings_) ring->drain_into(out);
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

std::vector<std::uint64_t> Tracer::dropped_per_ring() const {
  std::vector<std::uint64_t> out;
  out.reserve(rings_.size());
  for (const auto& ring : rings_) out.push_back(ring->dropped());
  return out;
}

void Tracer::export_chrome_trace(std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  export_chrome_events(os, /*pid=*/1, /*process_name=*/"", first);
  os << "\n],\"otherData\":{\"droppedEvents\":" << dropped() << "}}\n";
}

void Tracer::export_chrome_events(std::ostream& os, int pid,
                                  const std::string& process_name,
                                  bool& first) {
  const std::vector<TraceEvent> events = drain();
  const int kPid = pid;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  if (!process_name.empty()) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPid
       << ",\"args\":{\"name\":";
    write_json_string(os, process_name);
    os << "}}";
  }
  // Track metadata: tid 0 is the off-worker "clients" track, 1 + i = worker i.
  for (std::size_t tid = 0; tid < rings_.size(); ++tid) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid
       << ",\"tid\":" << tid << ",\"args\":{\"name\":";
    write_json_string(os, tid == kSharedTrack ? std::string("clients")
                                              : "worker " + std::to_string(tid - 1));
    os << "}}";
  }
  auto common_args = [&](const TraceEvent& ev) {
    os << "\"model\":";
    write_json_string(os, model_name(ev.model_id));
    os << ",\"id\":" << ev.id << ",\"arg\":" << ev.arg << ",\"seq\":" << ev.seq;
    if (ev.flags & kTraceFlagStolen) os << ",\"stolen\":true";
    if (ev.flags & kTraceFlagExpired) os << ",\"expired\":true";
    if (ev.flags & kTraceFlagFailed) os << ",\"failed\":true";
    if (ev.flags & kTraceFlagSkipped) os << ",\"skipped\":true";
  };
  for (const TraceEvent& ev : events) {
    switch (ev.type) {
      case TraceEventType::kMemberDone: {
        // Render the member execution as a duration slice ending at ts_us.
        const std::int64_t dur = static_cast<std::int64_t>(ev.arg);
        sep();
        os << "{\"name\":";
        write_json_string(os, model_name(ev.model_id) + "/m" + std::to_string(ev.member));
        os << ",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":" << kPid
           << ",\"tid\":" << ev.track << ",\"ts\":" << (ev.ts_us - dur)
           << ",\"dur\":" << (dur > 0 ? dur : 1) << ",\"args\":{\"member\":"
           << ev.member << ",";
        common_args(ev);
        os << "}}";
        break;
      }
      case TraceEventType::kSubmit: {
        sep();
        os << "{\"name\":\"submit\",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":" << kPid
           << ",\"tid\":" << ev.track << ",\"ts\":" << ev.ts_us
           << ",\"dur\":1,\"args\":{";
        common_args(ev);
        os << "}}";
        // Flow start: arrow from submit to the completing worker.
        sep();
        os << "{\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"s\",\"pid\":" << kPid
           << ",\"tid\":" << ev.track << ",\"ts\":" << ev.ts_us
           << ",\"id\":" << ev.id << "}";
        break;
      }
      case TraceEventType::kRequestDone: {
        sep();
        os << "{\"name\":\"request_done\",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":"
           << kPid << ",\"tid\":" << ev.track << ",\"ts\":" << ev.ts_us
           << ",\"dur\":1,\"args\":{";
        common_args(ev);
        os << "}}";
        sep();
        os << "{\"name\":\"request\",\"cat\":\"serve\",\"ph\":\"f\",\"bp\":\"e\","
           << "\"pid\":" << kPid << ",\"tid\":" << ev.track << ",\"ts\":" << ev.ts_us
           << ",\"id\":" << ev.id << "}";
        break;
      }
      default: {
        sep();
        os << "{\"name\":";
        write_json_string(os, to_string(ev.type));
        os << ",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kPid
           << ",\"tid\":" << ev.track << ",\"ts\":" << ev.ts_us << ",\"args\":{";
        common_args(ev);
        os << "}}";
        break;
      }
    }
  }
}

}  // namespace lbnn::runtime
