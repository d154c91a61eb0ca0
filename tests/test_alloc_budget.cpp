// Heap allocations per request on the serving path, Engine::submit through
// the future's get(), counted by a replacement global operator new. The
// count depends only on the code path and the model, so unlike wall-clock
// numbers it can gate a per-request cost exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
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

struct Budget {
  double per_request = 0.0;  ///< over all measured rounds
  std::vector<double> round_per_request;
};

/// One worker, lane-full seals only and no hedging, so each round of kLanes
/// submits is exactly one batch. The count includes the caller's copy of
/// each input vector.
Budget measure(const Netlist& nl, std::uint32_t members) {
  EngineOptions eopt;
  eopt.num_workers = 1;
  eopt.batch_timeout = std::chrono::hours(1);
  eopt.hedging = false;
  eopt.compile.lpu = bench::paper_lpu(8);
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
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::uint64_t before = g_allocations.load();
    round();
    const std::uint64_t n = g_allocations.load() - before;
    total += n;
    b.round_per_request.push_back(static_cast<double>(n) / kLanes);
  }
  b.per_request = static_cast<double>(total) / (kRounds * kLanes);
  return b;
}

/// The budget covers the default serving path: tracing adds per-request
/// events, and the scalar oracle allocates inside every run.
bool default_path_pinned_off() {
  const char* scalar = std::getenv("LBNN_FORCE_SCALAR");
  return std::getenv("LBNN_FORCE_TRACING") != nullptr ||
         (scalar != nullptr && scalar[0] != '\0' && scalar[0] != '0');
}

void expect_steady(const Budget& b) {
  EXPECT_NEAR(b.round_per_request[kRounds - 2], b.round_per_request[kRounds - 1],
              0.01);
}

TEST(AllocBudget, AnchorSubmitToGet) {
  if (default_path_pinned_off()) GTEST_SKIP() << "default serving path pinned off";
  Rng gen(7);
  const Budget b = measure(reconvergent_grid(96, 24, gen), 1);
  RecordProperty("allocs_per_request", std::to_string(b.per_request));
  EXPECT_LE(b.per_request, 5.7);
  expect_steady(b);
}

TEST(AllocBudget, Conv6SubmitToGet) {
  if (default_path_pinned_off()) GTEST_SKIP() << "default serving path pinned off";
  nn::SynthOptions s;
  s.max_neurons = 192;
  s.max_inputs = 64;
  Rng rng(11);
  const Budget b =
      measure(nn::synthesize_layer_ffcl(nn::vgg16().layers[4], s, rng).ffcl, 2);
  RecordProperty("allocs_per_request", std::to_string(b.per_request));
  EXPECT_LE(b.per_request, 7.2);
  expect_steady(b);
}

}  // namespace
}  // namespace lbnn::runtime
