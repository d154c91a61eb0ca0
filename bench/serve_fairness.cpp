// Multi-model fairness: one heavy model saturating the engine vs N light
// models with latency-sensitive traffic, under weighted-fair scheduling
// (per-model queues + stride scheduling): a light batch is dispatched as soon
// as a worker frees, regardless of how deep the heavy backlog is.
//
//   $ ./serve_fairness [ms]
//
// Prints each model's latency percentiles and the worst light-model p99.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "netlist/random_circuits.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace lbnn;
using namespace lbnn::runtime;

constexpr int kLightModels = 3;

ServeReport run(const Netlist& heavy_nl, const std::vector<Netlist>& light_nls,
               std::chrono::milliseconds run_for) {
  EngineOptions eopt;
  eopt.num_workers = 2;
  eopt.batch_timeout = std::chrono::microseconds(200);
  eopt.compile.lpu.m = 8;  // 16-lane words: quick compiles, busy batches
  eopt.compile.lpu.n = 8;
  Engine engine(eopt);

  ModelOptions heavy_opt;
  heavy_opt.weight = 1;
  // A standing backlog of ~8 batches: the queue a light batch would wait
  // behind if one ready queue served every model in arrival order.
  heavy_opt.queue_bound = 8 * 16;
  const ModelHandle heavy = engine.load("heavy", heavy_nl, heavy_opt);
  std::vector<ModelHandle> lights;
  for (int i = 0; i < kLightModels; ++i) {
    ModelOptions light_opt;
    light_opt.weight = 8;
    lights.push_back(
        engine.load("light-" + std::to_string(i), light_nls[i], light_opt));
  }

  std::atomic<bool> stop{false};
  // Saturator: blocking submits keep the heavy queue pinned at its bound.
  std::thread saturator([&] {
    Rng rng(17);
    std::vector<bool> bits(heavy_nl.num_inputs());
    while (!stop.load()) {
      for (std::size_t pi = 0; pi < bits.size(); ++pi) bits[pi] = rng.next_bool();
      try {
        engine.submit(heavy, bits);
      } catch (const Error&) {
        break;  // engine shutting down
      }
    }
  });
  // Light clients: one outstanding request each (latency-sensitive RPC
  // shape); the request->result time lands in the per-model histogram.
  std::vector<std::thread> clients;
  for (int i = 0; i < kLightModels; ++i) {
    clients.emplace_back([&, i] {
      std::vector<bool> bits(light_nls[i].num_inputs(), i % 2 != 0);
      while (!stop.load()) {
        try {
          engine.submit(lights[i], bits).get();
        } catch (const Error&) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }

  std::this_thread::sleep_for(run_for);
  stop.store(true);
  saturator.join();
  for (auto& c : clients) c.join();
  engine.drain();
  const ServeReport report = engine.report();
  engine.shutdown();
  return report;
}

void print_models(const ServeReport& r) {
  std::cout << std::left << std::setw(12) << "  model" << std::right
            << std::setw(8) << "weight" << std::setw(10) << "reqs"
            << std::setw(10) << "p50us" << std::setw(10) << "p99us"
            << std::setw(9) << "q-hwm" << "\n";
  for (const ModelReport& m : r.per_model) {
    std::cout << "  " << std::left << std::setw(10) << m.name << std::right
              << std::setw(8) << m.weight << std::setw(10) << m.requests
              << std::setw(10) << m.p50_latency_us << std::setw(10)
              << m.p99_latency_us << std::setw(9) << m.queue_depth_hwm << "\n";
  }
  std::cout << "\n";
}

std::uint64_t worst_light_p99(const ServeReport& r) {
  std::uint64_t worst = 0;
  for (const ModelReport& m : r.per_model) {
    if (m.name.rfind("light", 0) == 0 && m.p99_latency_us > worst) {
      worst = m.p99_latency_us;
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const long long requested = argc > 1 ? std::atoll(argv[1]) : 400;
  const auto run_for =
      std::chrono::milliseconds(requested > 0 ? requested : 400);

  Rng gen(5);
  // Heavy: a deep grid whose batches occupy a worker for a while. Light:
  // small distinct circuits (distinct fingerprints — no cache aliasing).
  const Netlist heavy_nl = reconvergent_grid(64, 16, gen);
  std::vector<Netlist> light_nls;
  for (int i = 0; i < kLightModels; ++i) {
    light_nls.push_back(reconvergent_grid(8, 4 + i, gen));
  }

  std::cout << "one heavy model (" << heavy_nl.num_gates()
            << " gates, saturating) + " << kLightModels
            << " light models (sparse RPCs), " << run_for.count()
            << " ms, weighted-fair, 2 workers on "
            << std::thread::hardware_concurrency() << " core(s)\n\n";

  const ServeReport fair = run(heavy_nl, light_nls, run_for);
  print_models(fair);

  const std::uint64_t fair_p99 = worst_light_p99(fair);
  std::cout << "worst light-model p99 under heavy saturation: " << fair_p99
            << " us\n";
  lbnn::bench::emit_bench_json("serve_fairness",
                               static_cast<double>(fair.p50_latency_us),
                               static_cast<double>(fair_p99),
                               fair.requests_per_sec, fair_p99 > 0);
  return 0;
}
