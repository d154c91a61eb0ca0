// Request-lifecycle tracing, proven deterministic under a ManualClock: each
// scenario forces one exact schedule (gates pin workers, manual time drives
// every stamp) and then asserts the drained event stream — not just
// counters — replays it. Three properties carry the suite:
//
//   1. exact sequences — the steal scenario maps to ONE legal event string,
//      byte-identical across runs once worker tracks are normalized;
//   2. closed books — submits == admits + sheds and admits == request-done
//      events, on the stream itself, so the trace can audit the engine the
//      same way the report does;
//   3. bounded cost — a full ring drops events and counts them; it never
//      blocks, corrupts, or perturbs request results.
//
// The phase-decomposition and metrics-rendering checks live here too: they
// consume the same lifecycle transitions the stream records.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "runtime/clock.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace lbnn::runtime {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kLanes = 16;  // m = 8 -> 16-lane datapath words

CompileOptions small_lpu() {
  CompileOptions opt;
  opt.lpu.m = 8;
  opt.lpu.n = 8;
  return opt;
}

Netlist wide_dag(std::uint64_t seed) {
  Rng gen(seed);
  RandomCircuitSpec spec;
  spec.num_inputs = 10;
  spec.num_gates = 80;
  spec.num_outputs = 6;  // enough POs to split across 4 assembly members
  return random_dag(spec, gen);
}

/// One-shot barrier for pinning executors inside a hook.
class Gate {
 public:
  void arm() {
    std::lock_guard<std::mutex> lk(mu_);
    hold_ = true;
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      hold_ = false;
    }
    cv_.notify_all();
  }
  void wait_here() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !hold_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = false;
};

/// Render an event stream as one line per event with worker tracks
/// normalized by first appearance ("w0" is whichever worker ring emitted
/// first, the shared ring is always "c") — the byte-identical-replay
/// comparisons must not depend on which OS thread won which role.
std::string render(const std::vector<TraceEvent>& events) {
  std::map<std::uint16_t, std::string> tracks;
  tracks[0] = "c";
  std::ostringstream os;
  for (const TraceEvent& ev : events) {
    auto it = tracks.find(ev.track);
    if (it == tracks.end()) {
      it = tracks.emplace(ev.track, "w" + std::to_string(tracks.size() - 1)).first;
    }
    os << it->second << ":" << to_string(ev.type) << " m" << ev.member << " id"
       << ev.id << " a" << ev.arg << " f" << int(ev.flags) << "\n";
  }
  return os.str();
}

/// Book-closure on the stream itself: every admitted request completes
/// exactly once, and nothing completes unadmitted.
void expect_stream_books_close(const std::vector<TraceEvent>& events) {
  std::uint64_t submits = 0, admits = 0, sheds = 0, dones = 0;
  for (const TraceEvent& ev : events) {
    switch (ev.type) {
      case TraceEventType::kSubmit: ++submits; break;
      case TraceEventType::kAdmit: ++admits; break;
      case TraceEventType::kShed: ++sheds; break;
      case TraceEventType::kRequestDone: ++dones; break;
      default: break;
    }
  }
  EXPECT_EQ(submits, admits + sheds);
  EXPECT_EQ(admits, dones);
}

/// The steal scenario driven to one exact schedule: two workers, a 4-member
/// model, the dispatching worker parked in the dispatch hook BEFORE it can
/// claim any member — so the other worker steals and runs all four, then
/// finalizes. One pre-batch doomed try_submit adds a deterministic shed.
/// Returns the drained stream (the engine is shut down first, so every
/// worker has quiesced).
std::vector<TraceEvent> run_steal_scenario() {
  ManualClock clock;
  const Netlist nl = wide_dag(504);
  const auto expect =
      simulate_scalar(nl, std::vector<bool>(nl.num_inputs(), true));
  EngineOptions eopt;
  eopt.num_workers = 2;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);  // only lane-full seals
  eopt.clock = &clock;
  eopt.tracing = true;
  Engine engine(eopt);
  const ModelHandle dag = engine.load_parallel("dag", nl, 4);

  Gate gate;
  gate.arm();
  engine.set_dispatch_hook([&](const std::string&) { gate.wait_here(); });

  const std::vector<bool> bits(nl.num_inputs(), true);
  // A deadline already in the past sheds deterministically (no EWMA needed).
  std::future<std::vector<bool>> doomed;
  EXPECT_EQ(engine.try_submit(dag, bits, &doomed, clock.now() - 1us),
            SubmitStatus::kDeadlineUnmeetable);

  std::vector<std::future<std::vector<bool>>> futs;
  for (std::size_t i = 0; i < kLanes; ++i) futs.push_back(engine.submit(dag, bits));

  // The popper is pinned in its hook; the idle worker steals members 0..3 in
  // cursor order and finalizes. Futures resolving proves it happened.
  for (auto& f : futs) EXPECT_EQ(f.get(), expect);
  gate.release();
  engine.shutdown();
  return engine.drain_trace();
}

TEST(TraceSteal, ExactEventSequence) {
  const std::vector<TraceEvent> events = run_steal_scenario();

  // Build the one legal sequence as (type, member, flags) triples.
  struct Expect {
    TraceEventType type;
    std::uint32_t member;
    std::uint8_t flags;
  };
  std::vector<Expect> want;
  want.push_back({TraceEventType::kSubmit, 0, 0});  // the doomed request
  want.push_back({TraceEventType::kShed, 0, 0});
  for (std::size_t i = 0; i < kLanes; ++i) {
    want.push_back({TraceEventType::kSubmit, 0, 0});
    want.push_back({TraceEventType::kAdmit, 0, 0});
  }
  want.push_back({TraceEventType::kSeal, 0, 0});
  want.push_back({TraceEventType::kEnqueue, 0, 0});
  want.push_back({TraceEventType::kDispatch, 0, 0});
  for (std::uint32_t m = 0; m < 4; ++m) {
    want.push_back({TraceEventType::kMemberSteal, m, kTraceFlagStolen});
    want.push_back({TraceEventType::kMemberDone, m, kTraceFlagStolen});
  }
  want.push_back({TraceEventType::kFinalize, 0, 0});
  for (std::size_t i = 0; i < kLanes; ++i) {
    want.push_back({TraceEventType::kRequestDone, 0, 0});
  }

  ASSERT_EQ(events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(events[i].type, want[i].type) << "event " << i;
    EXPECT_EQ(events[i].member, want[i].member) << "event " << i;
    EXPECT_EQ(events[i].flags, want[i].flags) << "event " << i;
  }

  // Track discipline: everything pre-dispatch is on the shared client ring;
  // the dispatch and the steals are on two DIFFERENT worker rings.
  const auto dispatch = std::find_if(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.type == TraceEventType::kDispatch; });
  ASSERT_NE(dispatch, events.end());
  EXPECT_NE(dispatch->track, 0);
  for (const TraceEvent& ev : events) {
    if (ev.type == TraceEventType::kMemberSteal ||
        ev.type == TraceEventType::kMemberDone ||
        ev.type == TraceEventType::kFinalize ||
        ev.type == TraceEventType::kRequestDone) {
      EXPECT_NE(ev.track, 0);
      EXPECT_NE(ev.track, dispatch->track) << to_string(ev.type);
    }
    if (ev.type == TraceEventType::kSubmit || ev.type == TraceEventType::kShed ||
        ev.type == TraceEventType::kAdmit || ev.type == TraceEventType::kSeal ||
        ev.type == TraceEventType::kEnqueue) {
      EXPECT_EQ(ev.track, 0u) << to_string(ev.type);
    }
  }

  // The batch payload: the seal carries 16 requests, the finalize 16 live.
  const auto seal = std::find_if(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.type == TraceEventType::kSeal; });
  EXPECT_EQ(seal->arg, kLanes);
  const auto fin = std::find_if(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.type == TraceEventType::kFinalize; });
  EXPECT_EQ(fin->arg, kLanes);

  // Flow linkage: the shed id and every admitted id appear among the submit
  // ids; every request-done id appears among the admitted ids.
  std::vector<std::uint64_t> submit_ids, admit_ids;
  for (const TraceEvent& ev : events) {
    if (ev.type == TraceEventType::kSubmit) submit_ids.push_back(ev.id);
    if (ev.type == TraceEventType::kAdmit) admit_ids.push_back(ev.id);
  }
  for (const TraceEvent& ev : events) {
    if (ev.type == TraceEventType::kShed) {
      EXPECT_NE(std::find(submit_ids.begin(), submit_ids.end(), ev.id),
                submit_ids.end());
    }
    if (ev.type == TraceEventType::kRequestDone) {
      EXPECT_NE(std::find(admit_ids.begin(), admit_ids.end(), ev.id),
                admit_ids.end());
    }
  }
  expect_stream_books_close(events);

  // Global order: seq strictly increasing after the cross-ring merge.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

// The acceptance bar for determinism: the full scenario, run twice in fresh
// engines, renders to byte-identical sequences (tracks normalized by first
// appearance — which OS thread plays which role may differ; the schedule may
// not).
TEST(TraceSteal, ByteIdenticalAcrossRuns) {
  const std::string a = render(run_steal_scenario());
  const std::string b = render(run_steal_scenario());
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// A full ring drops and counts, never blocks or corrupts: a 4-slot ring
// under 8 batches of traffic must lose events (the count says how many), the
// survivors must still be well-formed and seq-ordered, and every request
// still resolves — trace pressure is invisible to clients.
TEST(TraceRingOverflow, DropsAreCountedNotBlocking) {
  ManualClock clock;
  const Netlist nl = wide_dag(502);
  const auto expect =
      simulate_scalar(nl, std::vector<bool>(nl.num_inputs(), true));
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  eopt.tracing = true;
  eopt.trace_ring_capacity = 4;
  Engine engine(eopt);
  const ModelHandle dag = engine.load("dag", nl);

  const std::vector<bool> bits(nl.num_inputs(), true);
  std::vector<std::future<std::vector<bool>>> futs;
  for (int batch = 0; batch < 8; ++batch) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      futs.push_back(engine.submit(dag, bits));
    }
  }
  engine.drain();
  for (auto& f : futs) EXPECT_EQ(f.get(), expect);
  engine.shutdown();

  EXPECT_GT(engine.trace_dropped(), 0u);
  const std::vector<TraceEvent> events = engine.drain_trace();
  EXPECT_FALSE(events.empty());
  EXPECT_LE(events.size(), 8u);  // two 4-slot rings can hold at most 8
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_STRNE(to_string(events[i].type), "unknown");
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
  // The report's books still close — stats never ride the rings.
  const ServeReport rep = engine.report();
  EXPECT_EQ(rep.requests, 8 * kLanes);
  EXPECT_EQ(rep.shed + rep.expired, 0u);
}

// Phase decomposition from one exactly-timed batch: the request waits 200 us
// for the timeout seal (assembly), the member hook advances 1 ms inside the
// run (execution), and nothing else moves the clock — so the histograms must
// land in the buckets whose upper bounds are 207 us and 1023 us, with zero
// queue-wait/finalize.
TEST(TracePhases, DecompositionMatchesManualSchedule) {
  ManualClock clock;
  const Netlist nl = wide_dag(503);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = 200us;
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle dag = engine.load("dag", nl);
  engine.set_member_hook(
      [&](const std::string&, std::size_t) { clock.advance(1ms); });

  auto fut = engine.submit(dag, std::vector<bool>(nl.num_inputs(), true));
  clock.advance(200us);  // the timekeeper seals the 1-request batch
  (void)fut.get();
  engine.shutdown();

  const ServeReport rep = engine.report();
  ASSERT_EQ(rep.phases.assembly_wait.count, 1u);
  EXPECT_EQ(rep.phases.assembly_wait.p50_us, 207u);   // 200 us -> [200, 208)
  EXPECT_EQ(rep.phases.queue_wait.p50_us, 0u);
  ASSERT_EQ(rep.phases.execution.count, 1u);
  EXPECT_EQ(rep.phases.execution.p50_us, 1023u);      // 1000 us -> [992, 1024)
  EXPECT_EQ(rep.phases.finalize.p50_us, 0u);
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].phases.assembly_wait.p50_us, 207u);
  EXPECT_EQ(rep.per_model[0].phases.execution.p50_us, 1023u);
}

// Unloading a model folds its rows into the persistent "(retired)" row
// instead of erasing its history (the pre-PR-6 behavior this fixes).
TEST(TraceRetired, UnloadKeepsHistoryInRetiredRow) {
  ManualClock clock;
  const Netlist nl = wide_dag(505);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle a = engine.load("a", nl);
  const ModelHandle b = engine.load("b", nl);

  const std::vector<bool> bits(nl.num_inputs(), true);
  std::vector<std::future<std::vector<bool>>> futs;
  for (std::size_t i = 0; i < kLanes; ++i) futs.push_back(engine.submit(a, bits));
  engine.drain();
  for (auto& f : futs) (void)f.get();

  ASSERT_EQ(engine.report().per_model.size(), 2u);
  EXPECT_TRUE(engine.unload(a));

  ServeReport rep = engine.report();
  ASSERT_EQ(rep.per_model.size(), 2u);  // "b" + "(retired)"
  EXPECT_EQ(rep.per_model[0].name, "b");
  EXPECT_EQ(rep.per_model[1].name, "(retired)");
  EXPECT_EQ(rep.per_model[1].requests, kLanes);
  EXPECT_EQ(rep.per_model[1].batches, 1u);

  // A second unload folds INTO the same row: histories accumulate.
  EXPECT_TRUE(engine.unload(b));
  rep = engine.report();
  ASSERT_EQ(rep.per_model.size(), 1u);
  EXPECT_EQ(rep.per_model[0].name, "(retired)");
  EXPECT_EQ(rep.per_model[0].requests, kLanes);  // b served nothing
  engine.shutdown();
}

// The renderers over a live report: stable Prometheus series names, valid
// JSON shape, the retired row exported like any other model row.
TEST(TraceMetrics, RenderersCarryTheReport) {
  ManualClock clock;
  const Netlist nl = wide_dag(506);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle dag = engine.load("dag", nl);

  const std::vector<bool> bits(nl.num_inputs(), true);
  std::vector<std::future<std::vector<bool>>> futs;
  for (std::size_t i = 0; i < kLanes; ++i) futs.push_back(engine.submit(dag, bits));
  engine.drain();
  for (auto& f : futs) (void)f.get();
  EXPECT_TRUE(engine.unload(dag));

  const std::string prom = engine.metrics_prometheus();
  EXPECT_NE(prom.find("lbnn_requests_total 16"), std::string::npos);
  EXPECT_NE(prom.find("lbnn_batches_total 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE lbnn_requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("lbnn_phase_latency_us{phase=\"queue_wait\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("lbnn_model_requests_total{model=\"(retired)\"} 16"),
            std::string::npos);

  const std::string json = engine.metrics_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"requests\":16"), std::string::npos);
  EXPECT_NE(json.find("\"per_model\":[{\"name\":\"(retired)\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\":{\"assembly_wait\":"), std::string::npos);
  engine.shutdown();
}

// Chrome-trace export: structurally valid JSON envelope with thread
// metadata, flow events pairing each submit with its completion, and the
// drop counter in otherData. (CI additionally runs python3 -m json.tool over
// a serve_demo export.)
TEST(TraceExport, ChromeTraceEnvelope) {
  ManualClock clock;
  const Netlist nl = wide_dag(507);
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.compile = small_lpu();
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.clock = &clock;
  eopt.tracing = true;
  Engine engine(eopt);
  const ModelHandle dag = engine.load("dag", nl);
  const std::vector<bool> bits(nl.num_inputs(), true);
  std::vector<std::future<std::vector<bool>>> futs;
  for (std::size_t i = 0; i < kLanes; ++i) futs.push_back(engine.submit(dag, bits));
  engine.drain();
  for (auto& f : futs) (void)f.get();
  engine.shutdown();

  std::ostringstream os;
  engine.export_trace(os);
  const std::string trace = os.str();
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"clients\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"worker 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_NE(trace.find("\"droppedEvents\":0"), std::string::npos);

  // Tracing off: still a valid, empty envelope. (Skipped when
  // LBNN_FORCE_TRACING is set — the override turning this engine's tracing
  // ON anyway is exactly its documented behavior.)
  if (std::getenv("LBNN_FORCE_TRACING") == nullptr) {
    EngineOptions off = eopt;
    off.tracing = false;
    Engine dark(off);
    EXPECT_FALSE(dark.tracing_enabled());
    std::ostringstream empty;
    dark.export_trace(empty);
    EXPECT_EQ(empty.str().rfind("{\"traceEvents\":[]", 0), 0u);
    EXPECT_TRUE(dark.drain_trace().empty());
  }
}

}  // namespace
}  // namespace lbnn::runtime
