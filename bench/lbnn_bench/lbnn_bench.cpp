// lbnn_bench: the serving benchmark. One invocation runs one workload.
//
//   lbnn_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--rate <req/s>] [--scratch <dir>]
//
//   --trace 0  five episodes, each setting the workload up from scratch
//              (setup_s is the median of the five), warming up for 0.5 s and
//              measuring a fifth of --seconds of untraced load in 8 slices;
//              every other end-to-end number is the median over the 40 slices.
//   --trace 1  the layer pass (each layer timed alone, from outside, through
//              its public functions), an untraced run for the CPU ledger and
//              the engine counters, then a traced run whose drained events
//              split each request's time into phases.
//
// --rate overrides an open-loop workload's arrival rate (the calibration
// sweep in README.md uses it); --scratch is where the AOT layer may write.
//
// Inputs come from --seed; the netlists are fixed per workload. Every
// response is compared bit-exactly with the netlist simulator's output, and
// the books of every stream must close (attempted == completed + refused +
// failed). Output: one "metric <name> <value> <unit>" line per metric, then
// "result correct=<0|1> attempted=<n> failed=<n>". The exit code is 1 on any
// mismatch or unbalanced count, 2 on bad arguments.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aot/artifact.hpp"
#include "bench_common.hpp"
#include "common/error.hpp"
#include "core/compiler.hpp"
#include "lpu/multi_lpu.hpp"
#include "lpu/simulator.hpp"
#include "netlist/random_circuits.hpp"
#include "netlist/simulate.hpp"
#include "nn/model_zoo.hpp"
#include "router/router.hpp"
#include "runtime/batcher.hpp"
#include "runtime/engine.hpp"
#include "serve/alias.hpp"
#include "serve/cascade.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;
using Clock = std::chrono::steady_clock;
using Future = std::future<std::vector<bool>>;

// Shared by every workload: the paper LPU with 8 LPVs (m = 64, so 128-lane
// words), a 200 us batch timeout, two engine worker threads in total.
constexpr std::size_t kLanes = 128;
constexpr auto kBatchTimeout = std::chrono::microseconds(200);
constexpr std::size_t kPoolSize = 1024;
constexpr std::size_t kClosedClients = 2;
constexpr std::size_t kClosedDepth = 256;  // two batches outstanding per client
// A run is kEpisodes independent episodes, each set up from scratch, warmed
// up and measured in kSlicesPerEpisode slices: a fresh engine re-draws thread
// placement and memory layout, which move a single long run by +-5% here.
constexpr int kEpisodes = 5;
constexpr int kSlicesPerEpisode = 8;
constexpr double kEpisodeWarmupS = 0.5;
constexpr double kSloUs = 2000.0;
constexpr auto kDeadlineSlack = std::chrono::milliseconds(100);
// Open-loop arrival rates, calibrated once on the seed commit (README.md):
// p99_us first passed 2 ms near 120K req/s; these are ~25% and ~70% of it.
constexpr double kRateLow = 30000.0;
constexpr double kRateHigh = 80000.0;

double to_s(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double to_ns(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}
std::int64_t stamp_us(Clock::time_point t) {  // the trace's time base
  return std::chrono::duration_cast<std::chrono::microseconds>(t.time_since_epoch())
      .count();
}
Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

// ------------------------------------------------------------------ stats

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) return a;
  const double b = static_cast<double>(
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end()));
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

/// Quantile of whole-microsecond samples (trace stamps) read as grouped data:
/// sample v stands for [v, v + 1) and the quantile is interpolated inside its
/// group, so it does not stick to whole microseconds.
double grouped_quantile(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  const std::size_t k = std::min(static_cast<std::size_t>(rank), v.size() - 1);
  const auto lo = std::lower_bound(v.begin(), v.end(), v[k]) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), v[k]) - v.begin();
  return v[k] + (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

double cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 + static_cast<double>(tv.tv_usec) * 1e3;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

/// Median wall time of one call of `f`, over at least `min_reps` calls and
/// about `budget_ms` of calls (the first call is a discarded warm-up).
template <typename F>
double median_ns(F&& f, int min_reps = 15, double budget_ms = 60.0) {
  f();
  std::vector<double> t;
  const auto until = Clock::now() + seconds(budget_ms / 1e3);
  while (static_cast<int>(t.size()) < min_reps ||
         (Clock::now() < until && t.size() < 20000)) {
    const auto t0 = Clock::now();
    f();
    t.push_back(to_ns(Clock::now() - t0));
  }
  return quantile(t, 0.5);
}

void emit(const std::string& name, double value, const char* unit) {
  std::cout << "metric " << name << ' ' << std::setprecision(12) << value << ' '
            << unit << '\n';
}

// ------------------------------------------------------------------ books

/// One stream's request ledger. Once every future resolved,
/// attempted == completed + refused + failed.
struct Books {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t refused = 0;     ///< admission said no
  std::uint64_t failed = 0;      ///< the future resolved with an exception
  std::uint64_t mismatches = 0;  ///< completed with bits unlike the oracle

  void merge(const Books& o) {
    attempted += o.attempted;
    completed += o.completed;
    refused += o.refused;
    failed += o.failed;
    mismatches += o.mismatches;
  }
  bool balanced() const { return attempted == completed + refused + failed; }
};

/// Wait for one accepted request's answer and book it against the oracle.
void settle(Future& fut, const std::vector<bool>& want, Books& books) {
  try {
    if (fut.get() != want) ++books.mismatches;
    ++books.completed;
  } catch (const std::exception&) {
    ++books.failed;
  }
}

// ------------------------------------------------------------------ models

struct ModelSpec {
  std::string name;
  Netlist nl;
  std::uint32_t parallel = 0;  ///< k-way load_parallel; 0 = one LPU
};

/// The serving anchor (serve_throughput's model): 2304 gates, 96 inputs, 96 outputs.
ModelSpec anchor_model() {
  Rng gen(7);
  return {"grid", reconvergent_grid(96, 24, gen), 0};
}

/// VGG16 conv6 as popcount-exact FFCL (33.8k gates), split over two LPUs.
ModelSpec conv6_model() {
  nn::SynthOptions s;
  s.max_neurons = 192;
  s.max_inputs = 64;
  Rng rng(11);
  return {"conv6", nn::synthesize_layer_ffcl(nn::vgg16().layers[4], s, rng).ffcl, 2};
}

/// The jsc_l first layer at two fidelities: the NullaNet-Tiny screen (582
/// gates) and the exact popcount form (2724 gates). Same inputs.
ModelSpec jsc_screen_model() {
  Rng rng(41);
  return {"jsc_screen",
          nn::synthesize_layer_ffcl(nn::jsc_l().layers[0], bench::tiny_synth(), rng).ffcl,
          0};
}
ModelSpec jsc_exact_model() {
  Rng rng(41);
  return {"jsc_exact",
          nn::synthesize_layer_ffcl(nn::jsc_l().layers[0], nn::SynthOptions{}, rng).ffcl,
          0};
}

ModelSpec par_model() {
  RandomCircuitSpec spec;
  spec.num_inputs = 32;
  spec.num_gates = 3000;
  spec.num_outputs = 16;
  Rng rng(5);
  return {"par", random_dag(spec, rng), 3};
}

/// The screen output bit whose true-rate over a fixed random sample is
/// closest to 60% (as bench/serve_cascade chooses it). Part of the model
/// configuration, so it does not depend on --seed.
std::size_t pick_confidence_bit(const Netlist& screen) {
  Rng rng(17);
  constexpr std::size_t kSample = 2048;
  const auto outs = simulate(screen, random_inputs(screen, kSample, rng));
  std::size_t best = 0;
  double best_gap = 2.0;
  for (std::size_t b = 0; b < outs.size(); ++b) {
    const double rate = static_cast<double>(outs[b].popcount()) / kSample;
    if (std::abs(rate - 0.6) < best_gap) {
      best_gap = std::abs(rate - 0.6);
      best = b;
    }
  }
  return best;
}

/// Seeded inputs and their oracle outputs.
struct Pool {
  std::vector<std::vector<bool>> inputs;
  std::vector<std::vector<bool>> want;
};

std::vector<std::vector<bool>> unpack_lanes(const std::vector<BitVec>& rows,
                                            std::size_t lanes) {
  std::vector<std::vector<bool>> out(lanes, std::vector<bool>(rows.size()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t l = 0; l < lanes; ++l) out[l][r] = rows[r].get(l);
  }
  return out;
}

Pool make_pool(const Netlist& nl, std::uint64_t seed) {
  Rng rng(seed);
  const auto in = random_inputs(nl, kPoolSize, rng);
  return {unpack_lanes(in, kPoolSize), unpack_lanes(simulate(nl, in), kPoolSize)};
}

/// The cascade's oracle: the screen's answer where the predicate accepts
/// it, the exact model's answer elsewhere.
Pool make_cascade_pool(const Netlist& screen, const Netlist& exact, std::size_t bit,
                       std::uint64_t seed, double* accept_share) {
  Rng rng(seed);
  const auto in = random_inputs(screen, kPoolSize, rng);
  const auto s = unpack_lanes(simulate(screen, in), kPoolSize);
  const auto e = unpack_lanes(simulate(exact, in), kPoolSize);
  Pool p{unpack_lanes(in, kPoolSize), {}};
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    accepted += s[i][bit] ? 1 : 0;
    p.want.push_back(s[i][bit] ? s[i] : e[i]);
  }
  *accept_share = static_cast<double>(accepted) / kPoolSize;
  return p;
}

/// The first kLanes pool inputs packed into one full batch.
std::vector<BitVec> pack_pool(const Pool& pool) {
  std::vector<BitVec> rows(pool.inputs[0].size(), BitVec(kLanes));
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t r = 0; r < rows.size(); ++r) rows[r].set(l, pool.inputs[l][r]);
  }
  return rows;
}

EngineOptions engine_options(std::uint32_t workers, bool tracing) {
  EngineOptions e;
  e.num_workers = workers;
  e.batch_timeout = kBatchTimeout;
  e.compile.lpu = bench::paper_lpu(8);
  e.tracing = tracing;
  // Drained every few ms by TraceJoin; sized so a drain stall of tens of
  // ms still drops nothing.
  e.trace_ring_capacity = 1u << 17;
  return e;
}

ModelHandle load_into(Engine& engine, const ModelSpec& m, const std::string& name) {
  return m.parallel > 0 ? engine.load_parallel(name, m.nl, m.parallel)
                        : engine.load(name, m.nl);
}

// ------------------------------------------------------------------ slices

/// Per-slice accumulation over an episode's measured window: completions
/// counted by the slice they land in, latencies by the slice their clock
/// started in. Episodes append their slices to one list.
struct Slices {
  Clock::time_point start{};
  Clock::duration len{};
  std::vector<std::vector<float>> latency_us;
  std::vector<std::uint64_t> done;

  Slices() = default;
  Slices(Clock::time_point window_start, double window_s)
      : start(window_start),
        len(seconds(window_s / kSlicesPerEpisode)),
        latency_us(kSlicesPerEpisode),
        done(kSlicesPerEpisode, 0) {}

  int index(Clock::time_point t) const {
    if (t < start) return -1;
    const auto i = static_cast<std::size_t>((t - start) / len);
    return i < done.size() ? static_cast<int>(i) : -1;
  }
  bool in_window(Clock::time_point t) const { return index(t) >= 0; }
  /// Fold in another recorder of the same window.
  void merge(const Slices& o) {
    for (std::size_t i = 0; i < done.size(); ++i) {
      latency_us[i].insert(latency_us[i].end(), o.latency_us[i].begin(),
                           o.latency_us[i].end());
      done[i] += o.done[i];
    }
  }
  /// Add a later episode's slices.
  void append(Slices&& o) {
    len = o.len;
    for (auto& l : o.latency_us) latency_us.push_back(std::move(l));
    done.insert(done.end(), o.done.begin(), o.done.end());
  }
  double window_s() const { return to_s(len) * static_cast<double>(done.size()); }
  std::uint64_t total_done() const {
    std::uint64_t n = 0;
    for (auto d : done) n += d;
    return n;
  }
};

/// What one load run (closed or open loop) measured.
struct LoadResult {
  Books books;
  Slices slices;
  std::vector<float> lag_us;  ///< how late sends ran (see the loops)
  double submit_us_sum = 0.0;
  std::uint64_t submit_n = 0;
  double latency_us_sum = 0.0;  ///< client latency over the window
  std::uint64_t latency_n = 0;
  double cpu_ns = 0.0;  ///< process CPU over the window
  double report_us = 0.0;
  ServeReport counters;  ///< engine (or fleet) counters over the window
  // Open loop only.
  std::uint64_t window_attempted = 0;
  std::uint64_t slo_met = 0;
  std::vector<std::vector<float>> stream_latency_us;

  /// Add a later episode (the ledger books are kept by the caller).
  void append(LoadResult&& o) {
    slices.append(std::move(o.slices));
    lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
    submit_us_sum += o.submit_us_sum;
    submit_n += o.submit_n;
    latency_us_sum += o.latency_us_sum;
    latency_n += o.latency_n;
    cpu_ns += o.cpu_ns;
    window_attempted += o.window_attempted;
    slo_met += o.slo_met;
    stream_latency_us.resize(o.stream_latency_us.size());
    for (std::size_t i = 0; i < o.stream_latency_us.size(); ++i) {
      stream_latency_us[i].insert(stream_latency_us[i].end(),
                                  o.stream_latency_us[i].begin(),
                                  o.stream_latency_us[i].end());
    }
    counters = std::move(o.counters);
    report_us = o.report_us;
  }

  double throughput_sps() const {
    std::vector<double> rates;
    for (auto d : slices.done) rates.push_back(static_cast<double>(d) / to_s(slices.len));
    return quantile(rates, 0.5);
  }
  double latency_quantile_us(double q) const {
    std::vector<double> per_slice;
    for (const auto& s : slices.latency_us) per_slice.push_back(quantile(s, q));
    return quantile(per_slice, 0.5);
  }
};

// ------------------------------------------------------------------ tracing

/// Drains the engines' trace rings every few ms on its own thread and joins
/// each request's events into four phases: assembly (kSubmit -> kSeal),
/// queue (kSeal -> kDispatch), execution (kDispatch -> last kMemberDone) and
/// finalize (last kMemberDone -> kRequestDone). A request maps to its batch
/// through the kFinalize that precedes its kRequestDone on the same worker
/// track: finalize emits the batch's completions back to back.
class TraceJoin {
 public:
  TraceJoin(std::vector<Engine*> engines, Clock::time_point from, Clock::time_point to)
      : engines_(std::move(engines)),
        state_(engines_.size()),
        from_us_(stamp_us(from)),
        to_us_(stamp_us(to)),
        thread_([this] { run(); }) {}
  ~TraceJoin() { stop(); }
  TraceJoin(const TraceJoin&) = delete;
  TraceJoin& operator=(const TraceJoin&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<std::uint32_t> assembly, queue, exec, finalize;
  double total_us_sum = 0.0;  ///< sum of kSubmit -> kRequestDone
  std::uint64_t dropped = 0;

 private:
  struct Batch {
    std::int64_t seal = -1;
    std::int64_t dispatch = -1;
    std::int64_t last_done = -1;
    std::uint64_t remaining = 0;
  };
  struct PerEngine {
    std::unordered_map<std::uint64_t, std::int64_t> submitted;
    std::unordered_map<std::uint64_t, Batch> batches;
    std::unordered_map<std::uint16_t, std::uint64_t> finalizing;  ///< track -> batch
  };

  void run() {
    for (;;) {
      bool last = false;
      {
        std::unique_lock<std::mutex> lk(mu_);
        last = cv_.wait_for(lk, std::chrono::milliseconds(2), [&] { return stop_; });
      }
      for (std::size_t e = 0; e < engines_.size(); ++e) {
        consume(state_[e], engines_[e]->drain_trace());
      }
      if (last) break;
    }
    for (Engine* e : engines_) dropped += e->trace_dropped();
  }

  void consume(PerEngine& st, const std::vector<TraceEvent>& events) {
    for (const TraceEvent& ev : events) {
      switch (ev.type) {
        case TraceEventType::kSubmit:
          st.submitted[ev.id] = ev.ts_us;
          break;
        case TraceEventType::kShed:
          st.submitted.erase(ev.id);
          break;
        case TraceEventType::kSeal:
          st.batches[ev.id].seal = ev.ts_us;
          break;
        case TraceEventType::kDispatch:
          st.batches[ev.id].dispatch = ev.ts_us;
          break;
        case TraceEventType::kMemberDone: {
          Batch& b = st.batches[ev.id];
          b.last_done = std::max(b.last_done, ev.ts_us);
          break;
        }
        case TraceEventType::kFinalize:
          st.finalizing[ev.track] = ev.id;
          if (ev.arg == 0) {
            st.batches.erase(ev.id);
          } else {
            st.batches[ev.id].remaining = ev.arg;
          }
          break;
        case TraceEventType::kRequestDone:
          request_done(st, ev);
          break;
        default:
          st.finalizing.erase(ev.track);
          break;
      }
    }
  }

  void request_done(PerEngine& st, const TraceEvent& ev) {
    const auto sub = st.submitted.find(ev.id);
    const auto fin = st.finalizing.find(ev.track);
    if (fin == st.finalizing.end()) {  // expired at dequeue: no batch phases
      if (sub != st.submitted.end()) st.submitted.erase(sub);
      return;
    }
    const auto b = st.batches.find(fin->second);
    if (b == st.batches.end()) return;
    const Batch batch = b->second;
    if (--b->second.remaining == 0) st.batches.erase(b);
    if (sub == st.submitted.end()) return;
    const std::int64_t s = sub->second;
    st.submitted.erase(sub);
    if (ev.flags != 0 || s < from_us_ || s >= to_us_ || batch.seal < 0 ||
        batch.dispatch < 0 || batch.last_done < 0) {
      return;
    }
    const auto clamp = [](std::int64_t v) {
      return static_cast<std::uint32_t>(std::max<std::int64_t>(v, 0));
    };
    assembly.push_back(clamp(batch.seal - s));
    queue.push_back(clamp(batch.dispatch - batch.seal));
    exec.push_back(clamp(batch.last_done - batch.dispatch));
    finalize.push_back(clamp(ev.ts_us - batch.last_done));
    total_us_sum += static_cast<double>(ev.ts_us - s);
  }

  std::vector<Engine*> engines_;
  std::vector<PerEngine> state_;
  std::int64_t from_us_;
  std::int64_t to_us_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts once every member above exists
};

/// Phase split of the traced run (see TraceJoin). wakeup_us is what the
/// client saw beyond the engine's own submit -> done span; coverage is the
/// share of the client latency the four phases explain.
void trace_metrics(const TraceJoin& t, const LoadResult& r) {
  const auto phase = [](const std::string& name, const std::vector<std::uint32_t>& v) {
    emit("trace." + name + ".p50", grouped_quantile(v, 0.5), "us");
    emit("trace." + name + ".p99", grouped_quantile(v, 0.99), "us");
  };
  phase("assembly_wait_us", t.assembly);
  phase("queue_wait_us", t.queue);
  phase("exec_us", t.exec);
  phase("finalize_us", t.finalize);
  const double n = static_cast<double>(std::max<std::size_t>(t.assembly.size(), 1));
  const double client_us = r.latency_us_sum / static_cast<double>(std::max<std::uint64_t>(r.latency_n, 1));
  const double traced_us = t.total_us_sum / n;
  emit("trace.requests", static_cast<double>(t.assembly.size()), "count");
  emit("trace.dropped", static_cast<double>(t.dropped), "count");
  emit("trace.submit_call_us",
       r.submit_us_sum / static_cast<double>(std::max<std::uint64_t>(r.submit_n, 1)), "us");
  emit("trace.client_latency_us", client_us, "us");
  emit("trace.wakeup_us", client_us - traced_us, "us");
  emit("trace.coverage", client_us > 0 ? traced_us / client_us : 0.0, "fraction");
}

// ------------------------------------------------------------------ closed loop

struct ClosedSystem {
  std::unique_ptr<Engine> engine;
  ModelHandle model;
};

/// Construct, load, and answer one full batch — what setup_s times.
ClosedSystem setup_closed(const ModelSpec& m, const Pool& pool, bool tracing,
                          Books& books) {
  ClosedSystem sys;
  sys.engine = std::make_unique<Engine>(engine_options(2, tracing));
  sys.model = load_into(*sys.engine, m, m.name);
  std::vector<Future> futs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    futs.push_back(sys.engine->submit(sys.model, pool.inputs[i]));
  }
  books.attempted += kLanes;
  for (std::size_t i = 0; i < kLanes; ++i) settle(futs[i], pool.want[i], books);
  return sys;
}

/// One closed-loop client: keeps kClosedDepth requests outstanding through
/// the blocking Engine::submit, answering the oldest first. Its lag is the
/// time from consuming an answer to sending the next request.
void closed_client(Engine& engine, const ModelHandle& model, const Pool& pool,
                   std::uint64_t seed, const std::atomic<bool>& stop,
                   LoadResult& out) {
  struct Slot {
    Future fut;
    Clock::time_point sent{};
    std::size_t idx = 0;
  };
  Rng rng(seed);
  std::vector<Slot> ring(kClosedDepth);
  const auto send = [&](Slot& s, const Clock::time_point* freed) {
    s.idx = rng.next_below(pool.inputs.size());
    std::vector<bool> in = pool.inputs[s.idx];
    s.sent = Clock::now();
    ++out.books.attempted;
    try {
      s.fut = engine.submit(model, std::move(in));
    } catch (const Error&) {
      ++out.books.refused;
    }
    const auto t1 = Clock::now();
    if (out.slices.in_window(s.sent)) {
      out.submit_us_sum += to_us(t1 - s.sent);
      ++out.submit_n;
      if (freed != nullptr) out.lag_us.push_back(static_cast<float>(to_us(s.sent - *freed)));
    }
  };
  const auto collect = [&](Slot& s) {
    if (!s.fut.valid()) return Clock::now();
    try {
      const std::vector<bool> got = s.fut.get();
      const auto t = Clock::now();
      ++out.books.completed;
      if (got != pool.want[s.idx]) ++out.books.mismatches;
      const int i = out.slices.index(t);
      if (i >= 0) {
        const double lat = to_us(t - s.sent);
        out.slices.latency_us[i].push_back(static_cast<float>(lat));
        ++out.slices.done[i];
        out.latency_us_sum += lat;
        ++out.latency_n;
      }
      return t;
    } catch (const std::exception&) {
      ++out.books.failed;
      return Clock::now();
    }
  };
  for (auto& s : ring) send(s, nullptr);
  for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); i = (i + 1) % ring.size()) {
    const auto freed = collect(ring[i]);
    send(ring[i], &freed);
  }
  for (auto& s : ring) collect(s);
}

LoadResult run_closed(ClosedSystem& sys, const Pool& pool, std::uint64_t seed,
                      double warmup_s, double measure_s, bool trace) {
  const auto t0 = Clock::now();
  const auto t_meas = t0 + seconds(warmup_s);
  const auto t_end = t_meas + seconds(measure_s);
  std::unique_ptr<TraceJoin> join;
  if (trace) {
    join = std::make_unique<TraceJoin>(std::vector<Engine*>{sys.engine.get()}, t_meas,
                                       t_end);
  }
  std::vector<LoadResult> outs(kClosedClients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClosedClients; ++c) {
    outs[c].slices = Slices(t_meas, measure_s);
    clients.emplace_back(closed_client, std::ref(*sys.engine), std::cref(sys.model),
                         std::cref(pool), seed * 1000 + c, std::cref(stop),
                         std::ref(outs[c]));
  }
  LoadResult r;
  std::this_thread::sleep_until(t_meas);
  sys.engine->reset_stats();
  const double cpu0 = cpu_ns();
  std::this_thread::sleep_until(t_end);
  r.cpu_ns = cpu_ns() - cpu0;
  r.counters = sys.engine->report();
  r.report_us = median_ns([&] { (void)sys.engine->report(); }, 16, 5.0) / 1e3;
  stop = true;
  for (auto& t : clients) t.join();
  if (join) join->stop();
  r.slices = Slices(t_meas, measure_s);
  for (auto& o : outs) {
    r.books.merge(o.books);
    r.slices.merge(o.slices);
    r.lag_us.insert(r.lag_us.end(), o.lag_us.begin(), o.lag_us.end());
    r.submit_us_sum += o.submit_us_sum;
    r.submit_n += o.submit_n;
    r.latency_us_sum += o.latency_us_sum;
    r.latency_n += o.latency_n;
  }
  if (join) trace_metrics(*join, r);
  return r;
}

// ------------------------------------------------------------------ open loop

enum Stream : std::size_t { kGrid = 0, kJsc = 1, kPar = 2, kStreams = 3 };
const char* const kStreamNames[kStreams] = {"grid", "jsc", "par"};

struct MixModels {
  ModelSpec grid = anchor_model();
  ModelSpec screen = jsc_screen_model();
  ModelSpec exact = jsc_exact_model();
  ModelSpec par = par_model();
  std::size_t confidence_bit = pick_confidence_bit(screen.nl);
};

/// The cascade's policy: answer at stage 1 when the confidence bit is set. A
/// stage-1 refusal fails the request instead of bypassing to stage 2, so each
/// input has exactly one right answer.
serve::CascadeOptions cascade_options(const MixModels& m) {
  serve::CascadeOptions co;
  const std::size_t bit = m.confidence_bit;
  co.confident = [bit](const std::vector<bool>& out) { return out[bit]; };
  co.bypass_on_stage1_refusal = false;
  return co;
}

struct MixPools {
  Pool stream[kStreams];
  double accept_share = 0.0;  ///< share of jsc requests the screen answers
};

/// The mix's serving stack: a 2-shard Router with one worker per shard.
/// Members are declared in dependency order, so the cascade and the alias
/// table (which point into the router) are destroyed before it.
struct MixSystem {
  std::unique_ptr<router::Router> router;
  router::RoutedHandle grid_v1, grid_v2, par;
  ModelHandle screen, exact;
  std::unique_ptr<serve::RoutedAliasTable> alias;
  std::unique_ptr<serve::Cascade> cascade;
};

const std::string kGridAlias = "grid@prod";

SubmitStatus mix_send(MixSystem& mix, std::size_t stream, std::vector<bool> in,
                      TimePoint deadline, Future* fut) {
  switch (stream) {
    case kGrid:
      return mix.alias->try_submit(kGridAlias, std::move(in), fut, deadline);
    case kJsc:
      *fut = mix.cascade->submit(std::move(in), deadline);
      return SubmitStatus::kAccepted;
    default:
      return mix.router->try_submit(mix.par, std::move(in), fut, deadline);
  }
}

MixSystem setup_mix(const MixModels& m, const MixPools& pools, bool tracing,
                    Books& books) {
  MixSystem s;
  router::RouterOptions ro;
  ro.num_shards = 2;
  ro.engine = engine_options(1, tracing);
  ro.initial_replicas = 2;
  s.router = std::make_unique<router::Router>(ro);
  ModelOptions mopt;
  mopt.queue_bound = 16 * kLanes;  // a Poisson burst must not read as refusal
  // Two names of the anchor split 1:3; the second load per shard is a
  // program-cache hit.
  s.grid_v1 = s.router->load("grid_v1", m.grid.nl, mopt);
  s.grid_v2 = s.router->load("grid_v2", m.grid.nl, mopt);
  s.par = s.router->load_parallel("par", m.par.nl, m.par.parallel, mopt);
  Engine& shard0 = s.router->shard(0);
  s.screen = shard0.load(m.screen.name, m.screen.nl, mopt);
  s.exact = shard0.load(m.exact.name, m.exact.nl, mopt);
  s.alias = std::make_unique<serve::RoutedAliasTable>(*s.router);
  s.alias->publish(kGridAlias, s.grid_v1);
  s.alias->set_canary(kGridAlias, s.grid_v2, 1, 3);
  s.cascade =
      std::make_unique<serve::Cascade>(shard0, s.screen, s.exact, cascade_options(m));

  // One full batch through every stream.
  for (std::size_t st = 0; st < kStreams; ++st) {
    std::vector<Future> futs(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      ++books.attempted;
      if (mix_send(s, st, pools.stream[st].inputs[i], kNoDeadline, &futs[i]) !=
          SubmitStatus::kAccepted) {
        ++books.refused;
      }
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (futs[i].valid()) settle(futs[i], pools.stream[st].want[i], books);
    }
  }
  return s;
}

struct Pending {
  Future fut;
  Clock::time_point due{};
  std::size_t idx = 0;
};

/// Generator -> collector hand-off for one stream. The generator notifies
/// only when the collector is parked, so a busy collector costs it one
/// uncontended lock per request.
class Inbox {
 public:
  void push(Pending p) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.push_back(std::move(p));
      wake = waiting_;
    }
    if (wake) cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  bool pop(Pending* p) {
    std::unique_lock<std::mutex> lk(mu_);
    while (q_.empty() && !closed_) {
      waiting_ = true;
      cv_.wait(lk);
      waiting_ = false;
    }
    if (q_.empty()) return false;
    *p = std::move(q_.front());
    q_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> q_;
  bool waiting_ = false;
  bool closed_ = false;
};

/// Open loop: Poisson arrivals at `rate`, Zipf(1.0) over the three streams,
/// one generator thread and one collector per stream. Latency runs from the
/// request's due time, so a stalled generator shows as latency; the lag is
/// how late each send ran.
LoadResult run_open(MixSystem& mix, const MixPools& pools, double rate,
                    std::uint64_t seed, double warmup_s, double measure_s,
                    bool trace) {
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto t_meas = t0 + seconds(warmup_s);
  const auto t_end = t_meas + seconds(measure_s);
  std::unique_ptr<TraceJoin> join;
  if (trace) {
    join = std::make_unique<TraceJoin>(
        std::vector<Engine*>{&mix.router->shard(0), &mix.router->shard(1)}, t_meas,
        t_end);
  }
  Inbox inbox[kStreams];
  std::vector<LoadResult> per(kStreams);
  LoadResult gen;
  for (auto* r : {&gen, &per[0], &per[1], &per[2]}) r->slices = Slices(t_meas, measure_s);
  std::vector<std::thread> collectors;
  for (std::size_t st = 0; st < kStreams; ++st) {
    collectors.emplace_back([&, st] {
      LoadResult& out = per[st];
      out.stream_latency_us.resize(1);
      Pending p;
      while (inbox[st].pop(&p)) {
        try {
          const std::vector<bool> got = p.fut.get();
          const auto t = Clock::now();
          ++out.books.completed;
          if (got != pools.stream[st].want[p.idx]) ++out.books.mismatches;
          const int done_slice = out.slices.index(t);
          if (done_slice >= 0) ++out.slices.done[done_slice];
          const int due_slice = out.slices.index(p.due);
          if (due_slice >= 0) {
            const double lat = to_us(t - p.due);
            out.slices.latency_us[due_slice].push_back(static_cast<float>(lat));
            out.stream_latency_us[0].push_back(static_cast<float>(lat));
            out.latency_us_sum += lat;
            ++out.latency_n;
            if (lat <= kSloUs) ++out.slo_met;
          }
        } catch (const std::exception&) {
          ++out.books.failed;
        }
      }
    });
  }

  LoadResult r;
  double spin_ns = 0.0;  // generator time spent waiting for due times
  std::thread generator([&] {
    Rng rng(seed * 7919 + 17);
    const bench::ZipfPicker zipf(kStreams, 1.0);
    const double mean_gap_ns = 1e9 / rate;
    auto due = t0;
    for (;;) {
      due += std::chrono::nanoseconds(
          static_cast<std::int64_t>(-std::log(1.0 - rng.next_double()) * mean_gap_ns));
      if (due >= t_end) break;
      const std::size_t st = zipf.pick(rng);
      const std::size_t idx = rng.next_below(pools.stream[st].inputs.size());
      std::vector<bool> in = pools.stream[st].inputs[idx];
      const auto wait_from = Clock::now();
      while (Clock::now() < due) std::this_thread::yield();
      const auto sent = Clock::now();
      if (gen.slices.in_window(sent)) spin_ns += to_ns(sent - wait_from);
      Future fut;
      const SubmitStatus status = mix_send(mix, st, std::move(in),
                                           due + kDeadlineSlack, &fut);
      const auto t1 = Clock::now();
      ++per[st].books.attempted;
      if (gen.slices.in_window(due)) {
        gen.lag_us.push_back(static_cast<float>(to_us(sent - due)));
        gen.submit_us_sum += to_us(t1 - sent);
        ++gen.submit_n;
        ++gen.window_attempted;
      }
      if (status == SubmitStatus::kAccepted) {
        inbox[st].push({std::move(fut), due, idx});
      } else {
        ++per[st].books.refused;
      }
    }
    for (auto& box : inbox) box.close();
  });

  std::this_thread::sleep_until(t_meas);
  mix.router->shard(0).reset_stats();
  mix.router->shard(1).reset_stats();
  const double cpu0 = cpu_ns();
  std::this_thread::sleep_until(t_end);
  r.cpu_ns = cpu_ns() - cpu0;
  r.counters = mix.router->report().total;
  r.report_us = median_ns([&] { (void)mix.router->shard(0).report(); }, 16, 5.0) / 1e3;
  generator.join();
  for (auto& c : collectors) c.join();
  if (join) join->stop();
  // The generator spins until each due time; that CPU is the load
  // generator's, not the serving stack's.
  r.cpu_ns -= spin_ns;

  r.slices = Slices(t_meas, measure_s);
  r.lag_us = std::move(gen.lag_us);
  r.submit_us_sum = gen.submit_us_sum;
  r.submit_n = gen.submit_n;
  r.window_attempted = gen.window_attempted;
  for (auto& o : per) {
    r.books.merge(o.books);
    r.slices.merge(o.slices);
    r.latency_us_sum += o.latency_us_sum;
    r.latency_n += o.latency_n;
    r.slo_met += o.slo_met;
    r.stream_latency_us.push_back(std::move(o.stream_latency_us[0]));
  }
  if (join) trace_metrics(*join, r);
  return r;
}

// ------------------------------------------------------------------ metrics

void end_to_end_metrics(const LoadResult& r, double setup_s, bool open, double rate) {
  emit("setup_s", setup_s, "s");
  emit("throughput_sps", r.throughput_sps(), "samples/s");
  emit("p50_us", r.latency_quantile_us(0.50), "us");
  emit("p95_us", r.latency_quantile_us(0.95), "us");
  emit("p99_us", r.latency_quantile_us(0.99), "us");
  emit("samples", static_cast<double>(r.slices.total_done()), "count");
  if (!open) return;
  emit("offered_sps", static_cast<double>(r.window_attempted) / r.slices.window_s(),
       "req/s");
  emit("target_sps", rate, "req/s");
  emit("slo_attain",
       static_cast<double>(r.slo_met) /
           static_cast<double>(std::max<std::uint64_t>(r.window_attempted, 1)),
       "fraction");
  for (std::size_t st = 0; st < kStreams; ++st) {
    emit(std::string("stream.") + kStreamNames[st] + ".p99_us",
         quantile(r.stream_latency_us[st], 0.99), "us");
  }
}

/// Counters and costs of the untraced run that the layer ledger needs.
void run_metrics(const LoadResult& r) {
  const ServeReport& c = r.counters;
  emit("engine.lane_occupancy", c.lane_occupancy, "fraction");
  emit("engine.member_runs", static_cast<double>(c.member_runs), "count");
  emit("engine.steals", static_cast<double>(c.steals), "count");
  emit("engine.hedges_launched", static_cast<double>(c.hedges_launched), "count");
  emit("engine.shed", static_cast<double>(c.shed), "count");
  emit("engine.expired", static_cast<double>(c.expired), "count");
  std::size_t hwm = 0;
  for (const auto& m : c.per_model) hwm = std::max(hwm, m.queue_depth_hwm);
  emit("engine.queue_depth_hwm", static_cast<double>(hwm), "count");
  emit("engine.report_us", r.report_us, "us");
  emit("loadgen.lag_p99_us", quantile(r.lag_us, 0.99), "us");
  emit("p99_us", r.latency_quantile_us(0.99), "us");
}

// ------------------------------------------------------------------ layer pass

/// One model the workload serves, weighted by engine requests per client
/// request (a forwarded jsc request runs the exact model too).
struct Profiled {
  const ModelSpec* model;
  const Pool* pool;
  double weight;
};

/// Compiled programs of one model with each member's primary-input map.
struct Compiled {
  std::vector<const Program*> programs;
  std::vector<std::vector<std::uint32_t>> pi_of;
  std::unique_ptr<CompileResult> single;
  std::unique_ptr<ParallelCompileResult> parallel;
};

Compiled compile_model(const ModelSpec& m, const CompileOptions& copt) {
  Compiled c;
  if (m.parallel > 0) {
    c.parallel = std::make_unique<ParallelCompileResult>(
        compile_parallel(m.nl, copt, m.parallel));
    for (const auto& mem : c.parallel->members) {
      c.programs.push_back(&mem.program);
      c.pi_of.push_back(mem.pi_indices);
    }
  } else {
    c.single = std::make_unique<CompileResult>(compile(m.nl, copt));
    c.programs.push_back(&c.single->program);
    std::vector<std::uint32_t> all(m.nl.num_inputs());
    for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    c.pi_of.push_back(std::move(all));
  }
  return c;
}

/// Per-sample cost (ns) of running every member of `c` on a full batch.
double exec_ns_per_sample(const Compiled& c, const Pool& pool, bool simd) {
  const auto rows = pack_pool(pool);
  double total = 0.0;
  for (std::size_t k = 0; k < c.programs.size(); ++k) {
    std::vector<BitVec> in;
    for (auto pi : c.pi_of[k]) in.push_back(rows[pi]);
    LpuSimulator sim(*c.programs[k], simd);
    total += median_ns([&] { (void)sim.run(in); }, simd ? 15 : 5, simd ? 60.0 : 100.0);
  }
  return total / kLanes;
}

/// Times bursts of one full batch of submits each (the last call of a burst
/// seals the batch inline) and waits for every answer between bursts, so
/// each burst meets a quiescent model. The first burst is a warm-up.
/// Returns every timed call's ns; answers are checked into `books`.
template <typename Submit>
std::vector<double> time_bursts(const Pool& pool, int bursts, Books& books,
                                Submit submit) {
  std::vector<double> ns;
  std::vector<Future> futs(kLanes);
  std::vector<std::vector<bool>> ins(kLanes);
  for (int b = 0; b <= bursts; ++b) {
    for (std::size_t i = 0; i < kLanes; ++i) ins[i] = pool.inputs[(b * kLanes + i) % kPoolSize];
    for (std::size_t i = 0; i < kLanes; ++i) {
      const auto t0 = Clock::now();
      const SubmitStatus st = submit(std::move(ins[i]), &futs[i]);
      const auto t1 = Clock::now();
      ++books.attempted;
      if (st != SubmitStatus::kAccepted) {
        ++books.refused;
        continue;
      }
      if (b > 0) ns.push_back(to_ns(t1 - t0));
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (futs[i].valid()) settle(futs[i], pool.want[(b * kLanes + i) % kPoolSize], books);
    }
  }
  return ns;
}

/// The layer pass: each layer timed alone through its public functions, on
/// the workload's own models. Per-sample costs are weighted by each model's
/// share of engine requests. Returns the per-client-sample cost the layers
/// explain (the ledger's numerator).
double layer_pass(const std::vector<Profiled>& profile, bool mix, const MixModels& mm,
                  const MixPools& mp, const std::string& scratch, Books& books) {
  CompileOptions copt;
  copt.lpu = bench::paper_lpu(8);
  const ModelSpec& primary = *profile[0].model;
  const Pool& primary_pool = *profile[0].pool;

  // core: compile every model the workload loads (setup pays each once).
  double compile_ms = 0.0, wavefronts = 0.0, mfgs = 0.0;
  double exec = 0.0, pack = 0.0, unpack = 0.0;
  for (const auto& p : profile) {
    compile_ms += median_ns([&] { (void)compile_model(*p.model, copt); }, 3, 0.0) / 1e6;
    const Compiled c = compile_model(*p.model, copt);
    if (c.single) {
      wavefronts += c.single->report.wavefronts;
      mfgs += static_cast<double>(c.single->report.mfgs_after_merge);
    } else {
      for (const auto& mem : c.parallel->members) {
        wavefronts += mem.report.wavefronts;
        mfgs += static_cast<double>(mem.report.mfgs_after_merge);
      }
    }
    exec += p.weight * exec_ns_per_sample(c, *p.pool, true);

    std::vector<Request> reqs(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) reqs[i].inputs = p.pool->inputs[i];
    pack += p.weight *
            median_ns([&] { (void)pack_requests(reqs, p.model->nl.num_inputs()); }) / kLanes;
    Rng rng(3);
    std::vector<BitVec> outs;
    for (std::size_t o = 0; o < p.model->nl.num_outputs(); ++o) {
      outs.push_back(BitVec::random(kLanes, rng));
    }
    unpack += p.weight * median_ns([&] { (void)unpack_outputs(outs, kLanes); }) / kLanes;
  }
  emit("core.compile_ms", compile_ms, "ms");
  emit("core.wavefronts", wavefronts, "count");
  emit("core.mfgs_after_merge", mfgs, "count");
  emit("lpu.sliced_ns_per_sample", exec, "ns");
  emit("batcher.pack_ns_per_sample", pack, "ns");
  emit("batcher.unpack_ns_per_sample", unpack, "ns");

  // lpu reference and aot: the anchor program, on every workload.
  const Pool& anchor_pool = mp.stream[kGrid];
  const Compiled ac = compile_model(mm.grid, copt);
  emit("lpu.scalar_ns_per_sample", exec_ns_per_sample(ac, anchor_pool, false), "ns");
  {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(scratch) / ("aot-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    aot::AotOptions o;
    o.artifact_dir = dir.string();
    o.avx2 = LpuSimulator::cpu_has_avx2();
    const auto t0 = Clock::now();
    auto art = std::make_shared<const aot::ProgramArtifact>(
        aot::compile_artifact(*ac.programs[0], o));
    emit("aot.build_s", to_s(Clock::now() - t0), "s");
    emit("aot.native", art->kind == BackendKind::kAotNative ? 1.0 : 0.0, "bool");
    emit("aot.disk_load_ms",
         median_ns([&] { (void)aot::compile_artifact(*ac.programs[0], o); }, 3, 0.0) / 1e6,
         "ms");
    aot::AotExecutor ex(*ac.programs[0], art);
    const auto rows = pack_pool(anchor_pool);
    emit("aot.native_ns_per_sample", median_ns([&] { (void)ex.run(rows); }) / kLanes, "ns");
    fs::remove_all(dir);
  }

  // runtime/batcher: admission into the open batch, with a no-op seal.
  {
    Batcher b(SystemClock::instance(), primary.nl.num_inputs(), kLanes,
              std::max<std::uint32_t>(primary.parallel, 1), kBatchTimeout,
              [](Batch&&) {});
    std::vector<std::vector<bool>> ins(kLanes);
    std::vector<Future> futs(kLanes);
    std::vector<double> per_call;
    for (int rep = 0; rep < 200; ++rep) {
      for (std::size_t i = 0; i < kLanes; ++i) ins[i] = primary_pool.inputs[i];
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kLanes; ++i) futs[i] = b.submit(std::move(ins[i]));
      per_call.push_back(to_ns(Clock::now() - t0) / kLanes);
    }
    emit("batcher.submit_ns", quantile(per_call, 0.5), "ns");
  }

  // runtime/program_cache: a load whose program is already cached.
  {
    Engine e(engine_options(1, false));
    load_into(e, primary, "m0");
    std::vector<double> us;
    for (int k = 1; k <= 24; ++k) {
      const auto t0 = Clock::now();
      load_into(e, primary, "m" + std::to_string(k));
      us.push_back(to_us(Clock::now() - t0));
    }
    emit("program_cache.hit_us", quantile(us, 0.5), "us");
  }

  // runtime/engine admission.
  double engine_p50 = 0.0;
  {
    Engine e(engine_options(2, false));
    const ModelHandle h = load_into(e, primary, "m");
    const auto ns = time_bursts(primary_pool, 48, books, [&](std::vector<bool> in, Future* f) {
      return e.try_submit(h, std::move(in), f);
    });
    engine_p50 = quantile(ns, 0.5);
    emit("engine.try_submit_ns.p50", engine_p50, "ns");
    emit("engine.try_submit_ns.p99", quantile(ns, 0.99), "ns");
  }

  // router hop and the alias table over it.
  double router_p50 = 0.0, alias_p50 = 0.0;
  {
    router::RouterOptions ro;
    ro.num_shards = 2;
    ro.engine = engine_options(1, false);
    ro.initial_replicas = 2;
    router::Router r(ro);
    const auto load = [&](const std::string& name) {
      return primary.parallel > 0
                 ? r.load_parallel(name, primary.nl, primary.parallel)
                 : r.load(name, primary.nl);
    };
    const router::RoutedHandle v1 = load("v1");
    const router::RoutedHandle v2 = load("v2");
    router_p50 = quantile(time_bursts(primary_pool, 48, books,
                                      [&](std::vector<bool> in, Future* f) {
                                        return r.try_submit(v1, std::move(in), f);
                                      }),
                          0.5);
    serve::RoutedAliasTable alias(r);
    alias.publish("m@prod", v1);
    alias.set_canary("m@prod", v2, 1, 3);
    alias_p50 = quantile(time_bursts(primary_pool, 48, books,
                                     [&](std::vector<bool> in, Future* f) {
                                       return alias.try_submit("m@prod", std::move(in), f);
                                     }),
                         0.5);
    emit("router.try_submit_ns", router_p50, "ns");
    emit("alias.try_submit_ns", alias_p50, "ns");
  }

  // serve: the cascade's submit (jsc models, on every workload).
  double cascade_p50 = 0.0;
  {
    Engine e(engine_options(2, false));
    const ModelHandle screen = e.load(mm.screen.name, mm.screen.nl);
    const ModelHandle exact = e.load(mm.exact.name, mm.exact.nl);
    serve::Cascade cascade(e, screen, exact, cascade_options(mm));
    cascade_p50 = quantile(time_bursts(mp.stream[kJsc], 48, books,
                                       [&](std::vector<bool> in, Future* f) {
                                         *f = cascade.submit(std::move(in));
                                         return SubmitStatus::kAccepted;
                                       }),
                           0.5);
    emit("cascade.submit_ns", cascade_p50, "ns");
  }

  // Admission cost per client request: the path each stream takes.
  double admission = engine_p50;
  if (mix) {
    const bench::ZipfPicker zipf(kStreams, 1.0);
    admission = zipf.probability(kGrid) * alias_p50 +
                zipf.probability(kJsc) * (cascade_p50 + (1.0 - mp.accept_share) * engine_p50) +
                zipf.probability(kPar) * router_p50;
  }
  emit("ledger.admission_ns", admission, "ns");
  return admission + pack + exec + unpack;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;
  std::string scratch = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lbnn_bench: " << why
            << "\nusage: lbnn_bench --workload <anchor_closed|vgg16_closed|"
               "mix_open_low|mix_open_high> --seed <n> --seconds <s> --trace <0|1> "
               "[--rate <req/s>] [--scratch <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = v;
      } else if (key == "--seed") {
        a.seed = std::stoull(v);
      } else if (key == "--seconds") {
        a.seconds = std::stod(v);
      } else if (key == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (key == "--rate") {
        a.rate = std::stod(v);
      } else if (key == "--scratch") {
        a.scratch = v;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  if (a.rate < 0.0) usage("--rate must be positive");
  return a;
}

int run(const Args& a) {
  const bool open = a.workload.rfind("mix_open_", 0) == 0;
  if (a.workload != "anchor_closed" && a.workload != "vgg16_closed" &&
      a.workload != "mix_open_low" && a.workload != "mix_open_high") {
    usage("unknown workload '" + a.workload + "'");
  }
  const double rate =
      a.rate > 0.0 ? a.rate : (a.workload == "mix_open_low" ? kRateLow : kRateHigh);

  // Inputs: the netlists are fixed, the pools come from the seed.
  const MixModels mm;
  MixPools mp;
  mp.stream[kGrid] = make_pool(mm.grid.nl, a.seed * 31 + 1);
  mp.stream[kJsc] = make_cascade_pool(mm.screen.nl, mm.exact.nl, mm.confidence_bit,
                                      a.seed * 31 + 2, &mp.accept_share);
  mp.stream[kPar] = make_pool(mm.par.nl, a.seed * 31 + 3);
  const ModelSpec closed_model =
      a.workload == "vgg16_closed" ? conv6_model() : anchor_model();
  const Pool closed_pool =
      open ? Pool{} : make_pool(closed_model.nl, a.seed * 31 + 4);

  Books books;
  // One episode: set the system up from scratch (what setup_s times), warm
  // up, measure; the system is torn down untimed on return.
  const auto episode = [&](bool tracing, std::uint64_t stream_seed, double warmup_s,
                           double measure_s, double* setup_s) {
    const auto t0 = Clock::now();
    LoadResult r;
    if (open) {
      MixSystem sys = setup_mix(mm, mp, tracing, books);
      *setup_s = to_s(Clock::now() - t0);
      r = run_open(sys, mp, rate, stream_seed, warmup_s, measure_s, tracing);
    } else {
      ClosedSystem sys = setup_closed(closed_model, closed_pool, tracing, books);
      *setup_s = to_s(Clock::now() - t0);
      r = run_closed(sys, closed_pool, stream_seed, warmup_s, measure_s, tracing);
    }
    books.merge(r.books);
    return r;
  };

  if (!a.trace) {
    LoadResult r;
    std::vector<double> setups(kEpisodes);
    for (int e = 0; e < kEpisodes; ++e) {
      r.append(episode(false, a.seed * kEpisodes + e, kEpisodeWarmupS,
                       a.seconds / kEpisodes, &setups[e]));
    }
    end_to_end_metrics(r, quantile(setups, 0.5), open, rate);
    if (open) {
      const double offered = static_cast<double>(r.window_attempted) / r.slices.window_s();
      const double done = static_cast<double>(r.slices.total_done()) / r.slices.window_s();
      if (std::abs(done - offered) > 0.01 * offered) {
        std::cerr << "lbnn_bench: warning: completed " << done << " of " << offered
                  << " offered req/s; the backlog is growing\n";
      }
    }
  } else {
    const bench::ZipfPicker zipf(kStreams, 1.0);
    const std::vector<Profiled> profile =
        open ? std::vector<Profiled>{
                   {&mm.grid, &mp.stream[kGrid], zipf.probability(kGrid)},
                   {&mm.screen, &mp.stream[kJsc], zipf.probability(kJsc)},
                   {&mm.exact, &mp.stream[kJsc],
                    zipf.probability(kJsc) * (1.0 - mp.accept_share)},
                   {&mm.par, &mp.stream[kPar], zipf.probability(kPar)}}
             : std::vector<Profiled>{{&closed_model, &closed_pool, 1.0}};
    const double explained_ns = layer_pass(profile, open, mm, mp, a.scratch, books);

    const double half = a.seconds / 2.0;
    double setup_s = 0.0;
    const LoadResult plain = episode(false, a.seed, 2 * kEpisodeWarmupS, half, &setup_s);
    run_metrics(plain);
    const double samples = static_cast<double>(plain.slices.total_done());
    const double cpu_per_sample = plain.cpu_ns / std::max(samples, 1.0);
    emit("process.cpu_ns_per_sample", cpu_per_sample, "ns");
    emit("ledger.explained_ns", explained_ns, "ns");
    emit("ledger.explained_frac", explained_ns / cpu_per_sample, "fraction");

    const LoadResult traced = episode(true, a.seed + 1, 2 * kEpisodeWarmupS, half, &setup_s);
    emit("trace.overhead", traced.throughput_sps() / plain.throughput_sps(), "fraction");
  }
  emit("loadgen.mismatches", static_cast<double>(books.mismatches), "count");
  const bool ok = books.mismatches == 0 && books.balanced();
  if (!books.balanced()) {
    std::cerr << "lbnn_bench: unbalanced books: attempted " << books.attempted
              << " != completed " << books.completed << " + refused " << books.refused
              << " + failed " << books.failed << "\n";
  }
  if (books.mismatches != 0) {
    std::cerr << "lbnn_bench: " << books.mismatches << " responses differ from the oracle\n";
  }
  std::cout << "result correct=" << (ok ? 1 : 0) << " attempted=" << books.attempted
            << " failed=" << books.refused + books.failed << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "lbnn_bench: " << e.what() << "\n";
    return 1;
  }
}
