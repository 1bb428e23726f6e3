// Kernel microbenchmarks (google-benchmark): matmul, conv forward/backward,
// batchnorm and a full small-model training step. These establish the
// engine throughput underlying every experiment in the paper reproduction.
//
// Besides the console table, every run writes a machine-readable summary to
// BENCH_kernels.json (override the path with BDPROTO_BENCH_JSON) so CI can
// archive kernel throughput across commits.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "models/factory.h"
#include "nn/layers.h"
#include "obs/obs.h"
#include "util/atomic_file.h"
#include "util/json.h"
#include "runtime/thread_pool.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace {

bd::Tensor random_tensor(const bd::Shape& shape, bd::Rng& rng) {
  bd::Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  bd::Rng rng(1);
  const bd::Tensor a = random_tensor({n, n}, rng);
  const bd::Tensor b = random_tensor({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bd::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

// Thread-scaling variants: Arg is the bd::runtime pool size, forced via the
// set_thread_count() hook. Wall-clock (real time) is the honest metric for
// multi-worker kernels; the determinism contract means the outputs are
// bitwise identical across all three settings.
void BM_MatmulParallel(benchmark::State& state) {
  bd::runtime::set_thread_count(static_cast<int>(state.range(0)));
  state.counters["threads"] = bd::runtime::thread_count();
  bd::Rng rng(7);
  const bd::Tensor a = random_tensor({128, 128}, rng);
  const bd::Tensor b = random_tensor({128, 128}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bd::matmul(a, b));
  }
  bd::runtime::set_thread_count(0);
  state.SetItemsProcessed(state.iterations() * 128 * 128 * 128);
}
BENCHMARK(BM_MatmulParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Conv2dForwardParallel(benchmark::State& state) {
  bd::runtime::set_thread_count(static_cast<int>(state.range(0)));
  state.counters["threads"] = bd::runtime::thread_count();
  bd::Rng rng(8);
  const bd::Tensor x = random_tensor({8, 16, 16, 16}, rng);
  const bd::Tensor w = random_tensor({16, 16, 3, 3}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bd::conv2d_forward(x, w, bd::Tensor(), {1, 1}));
  }
  bd::runtime::set_thread_count(0);
}
BENCHMARK(BM_Conv2dForwardParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Conv2dForward(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  bd::Rng rng(2);
  const bd::Tensor x = random_tensor({8, c, 16, 16}, rng);
  const bd::Tensor w = random_tensor({c, c, 3, 3}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bd::conv2d_forward(x, w, bd::Tensor(), {1, 1}));
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void BM_Conv2dBackward(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  bd::Rng rng(3);
  const bd::Tensor x = random_tensor({8, c, 16, 16}, rng);
  const bd::Tensor w = random_tensor({c, c, 3, 3}, rng);
  const bd::Tensor go = random_tensor({8, c, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bd::conv2d_backward(x, w, false, go, {1, 1}));
  }
}
BENCHMARK(BM_Conv2dBackward)->Arg(8)->Arg(16);

void BM_DepthwiseConv(benchmark::State& state) {
  bd::Rng rng(4);
  const bd::Tensor x = random_tensor({8, 32, 16, 16}, rng);
  const bd::Tensor w = random_tensor({32, 1, 3, 3}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bd::depthwise_conv2d_forward(x, w, bd::Tensor(), {1, 1}));
  }
}
BENCHMARK(BM_DepthwiseConv);

void BM_ModelForward(benchmark::State& state) {
  bd::Rng rng(5);
  bd::models::ModelSpec spec;
  spec.arch = "preactresnet";
  spec.base_width = 8;
  auto model = bd::models::make_model(spec, rng);
  model->set_training(false);
  const bd::Tensor x = random_tensor({16, 3, 16, 16}, rng);
  bd::ag::NoGradGuard guard;
  for (auto _ : state) {
    // forward() only builds the graph; value() forces materialization.
    benchmark::DoNotOptimize(model->forward(bd::ag::Var(x)).value()[0]);
  }
}
BENCHMARK(BM_ModelForward);

void BM_ModelTrainStep(benchmark::State& state) {
  bd::Rng rng(6);
  bd::models::ModelSpec spec;
  spec.arch = "preactresnet";
  spec.base_width = 8;
  auto model = bd::models::make_model(spec, rng);
  model->set_training(true);
  const bd::Tensor x = random_tensor({16, 3, 16, 16}, rng);
  const std::vector<std::int64_t> labels(16, 1);
  for (auto _ : state) {
    model->zero_grad();
    auto loss = bd::ag::cross_entropy(model->forward(bd::ag::Var(x)), labels);
    loss.backward();
    benchmark::DoNotOptimize(loss.value()[0]);
  }
}
BENCHMARK(BM_ModelTrainStep);

// Same training step, but reporting the backward-pass memory planner: the
// graph IR plans one buffer per interior gradient and serves it from the
// thread-local arena, so in steady state the reuse ratio approaches 1 and
// the arena footprint (peak_bytes) sits far below what a malloc-per-node
// backward would touch (naive = buffers_planned fresh buffers per pass).
// Counters are exported so BENCH_kernels.json records the reduction.
void BM_TrainStepArena(benchmark::State& state) {
  bd::Rng rng(6);
  bd::models::ModelSpec spec;
  spec.arch = "preactresnet";
  spec.base_width = 8;
  auto model = bd::models::make_model(spec, rng);
  model->set_training(true);
  const bd::Tensor x = random_tensor({16, 3, 16, 16}, rng);
  const std::vector<std::int64_t> labels(16, 1);

  auto& arena = bd::ag::GradArena::local();
  arena.reset_stats();
  for (auto _ : state) {
    model->zero_grad();
    auto loss = bd::ag::cross_entropy(model->forward(bd::ag::Var(x)), labels);
    loss.backward();
    benchmark::DoNotOptimize(loss.value()[0]);
  }
  const bd::ag::ArenaStats& s = arena.stats();
  const double passes = static_cast<double>(s.passes > 0 ? s.passes : 1);
  state.counters["arena_peak_bytes"] =
      static_cast<double>(s.last_peak_bytes);
  state.counters["arena_naive_bytes"] =
      static_cast<double>(s.last_naive_bytes);
  state.counters["arena_reuse_ratio"] =
      s.buffers_planned > 0 ? static_cast<double>(s.buffers_reused) /
                                  static_cast<double>(s.buffers_planned)
                            : 0.0;
  state.counters["grad_buffers_per_pass"] =
      static_cast<double>(s.buffers_planned) / passes;
  state.counters["slot_allocs_total"] = static_cast<double>(s.slot_allocs);
}
BENCHMARK(BM_TrainStepArena);

// Observability off-path overhead: both pillars disabled, so each iteration
// pays exactly one relaxed atomic load in the Span constructor (and nothing
// in the destructor). Tracks the "costs nothing when off" guarantee that
// tests/obs_test.cpp asserts with a wall-clock bound.
void BM_SpanOverhead(benchmark::State& state) {
  bd::obs::set_metrics_enabled(false);
  bd::obs::set_trace_enabled(false);
  for (auto _ : state) {
    bd::obs::Span span("bench.span_overhead");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanOverhead);

// Same guarantee for the combined kernel probe (span + counters + duration
// histogram) on pre-registered instruments, as the graph-op probe uses it:
// disabled, it is one atomic load.
void BM_KernelProbeOverhead(benchmark::State& state) {
  bd::obs::set_metrics_enabled(false);
  bd::obs::set_trace_enabled(false);
  bd::obs::KernelStats& stats =
      bd::obs::kernel_stats("bench.kernel_probe_overhead");
  for (auto _ : state) {
    bd::obs::KernelScope probe(stats, 1);
    benchmark::DoNotOptimize(&probe);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelProbeOverhead);

/// Collects per-benchmark results for the JSON export. `op` is the function
/// name, `shape` the slash-separated argument suffix (the pool size for the
/// */Parallel variants), `threads` the runtime pool width in effect: the
/// "threads" counter a benchmark that sets its own pool size reports, else
/// the ambient pool width.
class JsonCollector : public benchmark::BenchmarkReporter {
 public:
  struct Row {
    std::string name;
    double ns_per_op;
    std::int64_t iterations;
    std::int64_t threads;
    std::vector<std::pair<std::string, double>> counters;
  };

  bool ReportContext(const Context& context) override {
    return console_.ReportContext(context);
  }

  void Finalize() override { console_.Finalize(); }

  void ReportRuns(const std::vector<Run>& runs) override {
    console_.ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.run_type == Run::RT_Aggregate || run.error_occurred) continue;
      const double ns =
          run.iterations > 0
              ? run.real_accumulated_time * 1e9 /
                    static_cast<double>(run.iterations)
              : 0.0;
      // run.counters is a std::map, so this ordering is deterministic.
      std::int64_t threads = bd::runtime::thread_count();
      std::vector<std::pair<std::string, double>> counters;
      for (const auto& [cname, counter] : run.counters) {
        if (cname == "threads") {
          threads = static_cast<std::int64_t>(counter.value);
        } else {
          counters.emplace_back(cname, static_cast<double>(counter.value));
        }
      }
      rows_.push_back({run.benchmark_name(), ns, run.iterations, threads,
                       std::move(counters)});
    }
  }

  bool write_json(const std::string& path) const {
    bd::JsonArray benchmarks;
    for (const Row& r : rows_) {
      const std::size_t slash = r.name.find('/');
      bd::JsonObject row;
      row.set("name", r.name)
          .set("op", r.name.substr(0, slash))
          .set("shape",
               slash == std::string::npos ? "" : r.name.substr(slash + 1))
          .set_int("threads", r.threads)
          .set_int("iterations", r.iterations)
          .set_fixed("ns_per_op", r.ns_per_op, 3);
      for (const auto& [cname, value] : r.counters) {
        row.set_fixed(cname, value, 3);
      }
      benchmarks.push_raw(row.str());
    }
    return bd::write_file_atomic(
        path,
        bd::JsonObject().set_raw("benchmarks", benchmarks.str()).str() + '\n');
  }

  bool empty() const { return rows_.empty(); }

 private:
  // Delegate display to the standard console table; this reporter is passed
  // as the display reporter because the library insists on --benchmark_out
  // whenever a separate file reporter is supplied.
  benchmark::ConsoleReporter console_;
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  JsonCollector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);

  const char* env_path = std::getenv("BDPROTO_BENCH_JSON");
  const std::string json_path =
      (env_path != nullptr && env_path[0] != '\0') ? env_path
                                                   : "BENCH_kernels.json";
  if (!collector.empty()) {
    if (collector.write_json(json_path)) {
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}
