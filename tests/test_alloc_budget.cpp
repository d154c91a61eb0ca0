// Heap allocations and engine clock reads per request on the serving path,
// Engine::submit through the future's get(), counted by a replacement global
// operator new and by a counting ClockSource. The counts depend only on the
// code path and the model, so unlike wall-clock numbers they can gate a
// per-request cost exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "common/rng.hpp"
#include "netlist/random_circuits.hpp"
#include "nn/model_zoo.hpp"
#include "runtime/engine.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees a new-returned pointer reach
// free() directly (-Wmismatched-new-delete).
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lbnn::runtime {
namespace {

constexpr std::size_t kLanes = 128;  // paper_lpu(8): m = 64, 2m lanes
constexpr std::size_t kWarmupRounds = 8;
constexpr std::size_t kRounds = 16;
// Clock reads per request as measured (2.0703 and 2.0938, 265 and 268 per
// 128-request batch) plus 0.01; see the ClockBudget tests.
constexpr double kAnchorClockReads = 2.0803;
constexpr double kConv6ClockReads = 2.1038;

/// The steady clock, counting every read the engine makes of it.
class CountingClock final : public ClockSource {
 public:
  TimePoint now() const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    return SystemClock::instance().now();
  }
  std::uint64_t reads() const { return reads_.load(); }

 protected:
  bool wait_step(std::unique_lock<std::mutex>& lk, std::condition_variable& cv,
                 TimePoint deadline) override {
    return cv.wait_until(lk, deadline) != std::cv_status::timeout;
  }

 private:
  mutable std::atomic<std::uint64_t> reads_{0};
};

struct Budget {
  double per_request = 0.0;  ///< allocations, over all measured rounds
  std::vector<double> round_per_request;
  double clock_reads_per_request = 0.0;  ///< over all measured rounds
};

/// One worker and lane-full seals only, so each round of kLanes submits is
/// exactly one batch. The allocation count includes the caller's copy of
/// each input vector.
Budget measure(const Netlist& nl, std::uint32_t members) {
  CountingClock clock;
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.compile.lpu = bench::paper_lpu(8);
  eopt.clock = &clock;
  Engine engine(eopt);
  const ModelHandle h = members > 1 ? engine.load_parallel("m", nl, members)
                                    : engine.load("m", nl);

  Rng rng(3);
  std::vector<std::vector<bool>> pool(kLanes, std::vector<bool>(nl.num_inputs()));
  for (auto& in : pool) {
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.next_bool();
  }
  std::vector<std::future<std::vector<bool>>> futs(kLanes);
  const auto round = [&] {
    for (std::size_t i = 0; i < kLanes; ++i) futs[i] = engine.submit(h, pool[i]);
    for (auto& f : futs) f.get();
  };

  for (std::size_t r = 0; r < kWarmupRounds; ++r) round();
  Budget b;
  std::uint64_t total = 0;
  const std::uint64_t reads_before = clock.reads();
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::uint64_t before = g_allocations.load();
    round();
    const std::uint64_t n = g_allocations.load() - before;
    total += n;
    b.round_per_request.push_back(static_cast<double>(n) / kLanes);
  }
  b.per_request = static_cast<double>(total) / (kRounds * kLanes);
  b.clock_reads_per_request =
      static_cast<double>(clock.reads() - reads_before) / (kRounds * kLanes);
  return b;
}

/// Tracing stamps every event with a clock read.
bool tracing_pinned_on() { return std::getenv("LBNN_FORCE_TRACING") != nullptr; }

/// The budget covers the default serving path: tracing adds per-request
/// events, and the scalar oracle allocates inside every run.
bool default_path_pinned_off() {
  const char* scalar = std::getenv("LBNN_FORCE_SCALAR");
  return tracing_pinned_on() ||
         (scalar != nullptr && scalar[0] != '\0' && scalar[0] != '0');
}

Netlist anchor() {
  Rng gen(7);
  return reconvergent_grid(96, 24, gen);
}

Netlist conv6() {
  nn::SynthOptions s;
  s.max_neurons = 192;
  s.max_inputs = 64;
  Rng rng(11);
  return nn::synthesize_layer_ffcl(nn::vgg16().layers[4], s, rng).ffcl;
}

void expect_steady(const Budget& b) {
  EXPECT_NEAR(b.round_per_request[kRounds - 2], b.round_per_request[kRounds - 1],
              0.01);
}

TEST(AllocBudget, AnchorSubmitToGet) {
  if (default_path_pinned_off()) GTEST_SKIP() << "default serving path pinned off";
  const Budget b = measure(anchor(), 1);
  RecordProperty("allocs_per_request", std::to_string(b.per_request));
  EXPECT_LE(b.per_request, 5.7);
  expect_steady(b);
}

TEST(AllocBudget, Conv6SubmitToGet) {
  if (default_path_pinned_off()) GTEST_SKIP() << "default serving path pinned off";
  const Budget b = measure(conv6(), 2);
  RecordProperty("allocs_per_request", std::to_string(b.per_request));
  EXPECT_LE(b.per_request, 7.2);
  expect_steady(b);
}

// Engine clock reads per request, in the same setup: admission stamps, the
// batch's lifecycle stamps and each member's service timing. One extra read
// per request moves the count by 1.0, a read per batch by 1/128.
TEST(ClockBudget, AnchorSubmitToGet) {
  if (tracing_pinned_on()) GTEST_SKIP() << "tracing pinned on";
  const Budget b = measure(anchor(), 1);
  RecordProperty("clock_reads_per_request",
                 std::to_string(b.clock_reads_per_request));
  EXPECT_LE(b.clock_reads_per_request, kAnchorClockReads);
}

TEST(ClockBudget, Conv6SubmitToGet) {
  if (tracing_pinned_on()) GTEST_SKIP() << "tracing pinned on";
  const Budget b = measure(conv6(), 2);
  RecordProperty("clock_reads_per_request",
                 std::to_string(b.clock_reads_per_request));
  EXPECT_LE(b.clock_reads_per_request, kConv6ClockReads);
}

}  // namespace
}  // namespace lbnn::runtime
