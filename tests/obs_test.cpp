// Observability subsystem: metric semantics, span nesting across the
// parallel runtime, exporter validity, env-knob gating — and the harness
// that proves instrumentation costs (almost) nothing when off.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "util/json.h"

namespace bd::obs {
namespace {

/// Every test must leave the process-wide observability state exactly as it
/// found it (disabled, empty trace), because the instruments are global.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    clear_trace();
  }
  void TearDown() override {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    clear_trace();
    set_trace_capacity_for_test(0);
  }
};

TEST_F(ObsTest, CounterSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, CounterConcurrentAdds) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST_F(ObsTest, GaugeSemantics) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1.0      -> bucket 0
  h.observe(1.0);    // == bound    -> bucket 0 (le semantics)
  h.observe(5.0);    //             -> bucket 1
  h.observe(100.0);  //             -> bucket 2
  h.observe(1e9);    // overflow    -> bucket 3
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e9);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST_F(ObsTest, HistogramRejectsBadLayouts) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({10.0, 1.0}), std::invalid_argument);
}

TEST_F(ObsTest, FixedBucketLayouts) {
  EXPECT_EQ(duration_ns_buckets().size(), 8u);
  EXPECT_EQ(duration_ns_buckets().front(), 1e3);
  EXPECT_EQ(duration_ns_buckets().back(), 1e10);
  EXPECT_EQ(seconds_buckets().size(), 7u);
  EXPECT_EQ(seconds_buckets().front(), 1e-3);
  EXPECT_EQ(seconds_buckets().back(), 1e3);
}

TEST_F(ObsTest, RegistryGetOrCreate) {
  Counter& a = registry().counter("obs_test.counter");
  Counter& b = registry().counter("obs_test.counter");
  EXPECT_EQ(&a, &b);
  Histogram& h = registry().histogram("obs_test.hist", {1.0, 2.0});
  // Bounds apply only on first registration; same instrument afterwards.
  Histogram& h2 = registry().histogram("obs_test.hist", {99.0});
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST_F(ObsTest, KnobParsing) {
  EXPECT_FALSE(knob_enables(""));
  EXPECT_FALSE(knob_enables("0"));
  EXPECT_FALSE(knob_enables("off"));
  EXPECT_FALSE(knob_enables("OFF"));
  EXPECT_FALSE(knob_enables("false"));
  EXPECT_TRUE(knob_enables("1"));
  EXPECT_TRUE(knob_enables("on"));
  EXPECT_TRUE(knob_enables("TRUE"));
  EXPECT_TRUE(knob_enables("/tmp/out.json"));

  EXPECT_EQ(knob_path("1", "default.json"), "default.json");
  EXPECT_EQ(knob_path("ON", "default.json"), "default.json");
  EXPECT_EQ(knob_path("true", "default.json"), "default.json");
  EXPECT_EQ(knob_path("/tmp/custom.json", "default.json"),
            "/tmp/custom.json");
}

TEST_F(ObsTest, EnvKnobGating) {
  // Default (knobs unset): everything off after a reinit.
  ::unsetenv("BDPROTO_METRICS");
  ::unsetenv("BDPROTO_TRACE");
  reinit_from_env_for_test();
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(trace_enabled());
  EXPECT_FALSE(enabled());
  EXPECT_EQ(metrics_export_path(), "");
  EXPECT_EQ(trace_export_path(), "");

  ::setenv("BDPROTO_METRICS", "1", 1);
  ::setenv("BDPROTO_TRACE", "/tmp/obs_test_trace.json", 1);
  reinit_from_env_for_test();
  EXPECT_TRUE(metrics_enabled());
  EXPECT_TRUE(trace_enabled());
  EXPECT_EQ(metrics_export_path(), "bdproto_metrics.jsonl");
  EXPECT_EQ(trace_export_path(), "/tmp/obs_test_trace.json");

  ::setenv("BDPROTO_METRICS", "off", 1);
  ::setenv("BDPROTO_TRACE", "0", 1);
  reinit_from_env_for_test();
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(trace_enabled());

  ::unsetenv("BDPROTO_METRICS");
  ::unsetenv("BDPROTO_TRACE");
  reinit_from_env_for_test();
  EXPECT_FALSE(enabled());
}

TEST_F(ObsTest, SetHooksToggleIndependently) {
  set_trace_enabled(true);
  EXPECT_TRUE(trace_enabled());
  EXPECT_FALSE(metrics_enabled());
  set_metrics_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  set_trace_enabled(false);
  EXPECT_FALSE(trace_enabled());
  EXPECT_TRUE(metrics_enabled());
}

TEST_F(ObsTest, SpanRecordsNothingWhenOff) {
  clear_trace();
  const auto before = snapshot_trace().size();
  {
    Span s("obs_test.off");
    Span t("obs_test.off_nested", 7);
  }
  EXPECT_EQ(snapshot_trace().size(), before);
}

TEST_F(ObsTest, SpanNestingOnOneThread) {
  set_trace_enabled(true);
  clear_trace();
  {
    Span outer("obs_test.outer", 1);
    { Span inner("obs_test.inner", 2); }
    { Span inner("obs_test.inner", 3); }
  }
  const auto events = snapshot_trace();
  ASSERT_EQ(events.size(), 6u);
  // Record order on a single thread is B(outer) B/E(inner) B/E(inner)
  // E(outer); all on the same tid with monotone timestamps.
  EXPECT_STREQ(events[0].name, "obs_test.outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].arg, 1);
  EXPECT_STREQ(events[5].name, "obs_test.outer");
  EXPECT_EQ(events[5].phase, 'E');
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].tid, events[0].tid);
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST_F(ObsTest, SpanNestingAcrossParallelWorkers) {
  runtime::set_thread_count(4);
  set_trace_enabled(true);
  clear_trace();

  constexpr std::int64_t kChunks = 64;
  {
    Span outer("obs_test.parallel_outer");
    runtime::parallel_for(0, kChunks, 1, [](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        Span chunk("obs_test.chunk", i);
        // A nested span inside the worker, as kernels produce.
        Span inner("obs_test.chunk_inner");
      }
    });
  }
  runtime::set_thread_count(0);

  const auto events = snapshot_trace();
  // Per-tid streams must be balanced and properly nested.
  std::map<std::uint32_t, std::vector<const char*>> stacks;
  std::int64_t chunk_begins = 0;
  for (const auto& e : events) {
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(e.name);
      if (std::string_view(e.name) == "obs_test.chunk") ++chunk_begins;
    } else {
      ASSERT_FALSE(stack.empty()) << "unbalanced E on tid " << e.tid;
      EXPECT_STREQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  // Chunk boundaries are deterministic: exactly one span per chunk executed,
  // spread over however many workers picked them up.
  EXPECT_EQ(chunk_begins, kChunks);
}

TEST_F(ObsTest, ChromeTraceExportParsesBack) {
  set_trace_enabled(true);
  clear_trace();
  {
    Span outer("obs_test.export", 5);
    Span inner("obs_test.export_inner");
    Span hostile("obs_test.\"quoted\"\x01" "ctl");
  }
  std::ostringstream os;
  write_chrome_trace(os);
  const std::string json = os.str();

  // The whole export is one valid JSON value, hostile span names included.
  Json trace;
  std::string error;
  ASSERT_TRUE(Json::parse(json, trace, error)) << error;
  const Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 6u);
  EXPECT_EQ(events->items()[2].get_string("name"),
            "obs_test.\"quoted\"\x01" "ctl");
  ASSERT_NE(events->items()[0].find("args"), nullptr);
  EXPECT_EQ(events->items()[0].find("args")->get_int("v", 0), 5);

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs_test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":5}"), std::string::npos);

  // Hand-rolled pairing check: equal numbers of begin and end events.
  auto count = [&json](const char* needle) {
    std::size_t n = 0, pos = 0;
    const std::string s(needle);
    while ((pos = json.find(s, pos)) != std::string::npos) {
      ++n;
      pos += s.size();
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), 3u);
  EXPECT_EQ(count("\"ph\":\"E\""), 3u);
  EXPECT_EQ(count("\"cat\":\"bd\""), 6u);
}

TEST_F(ObsTest, JsonlExportIsValid) {
  registry().counter("obs_test.export_counter").add(3);
  registry().gauge("obs_test.export_gauge").set(1.5);
  registry().gauge("obs_test.export_nan").set(std::nan(""));
  registry()
      .histogram("obs_test.export_hist", {10.0, 20.0})
      .observe(15.0);

  std::ostringstream os;
  registry().write_jsonl(os);
  const std::string jsonl = os.str();

  EXPECT_NE(jsonl.find("{\"type\":\"counter\",\"name\":"
                       "\"obs_test.export_counter\",\"value\":3}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"obs_test.export_gauge\",\"value\":1.5}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"obs_test.export_hist\""), std::string::npos);
  EXPECT_NE(jsonl.find("{\"le\":\"+Inf\","), std::string::npos);

  // Every line is one object: starts with '{', ends with '}', and parses.
  std::istringstream is(jsonl);
  std::string line;
  std::size_t lines = 0;
  bool saw_nan_gauge = false;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    Json metric;
    std::string error;
    ASSERT_TRUE(Json::parse(line, metric, error)) << error << ": " << line;
    if (metric.get_string("name") == "obs_test.export_nan") {
      // JSON has no NaN literal: a diverged gauge exports as null.
      ASSERT_NE(metric.find("value"), nullptr);
      EXPECT_TRUE(metric.find("value")->is_null());
      saw_nan_gauge = true;
    }
    ++lines;
  }
  EXPECT_GE(lines, 4u);
  EXPECT_TRUE(saw_nan_gauge);
}

TEST_F(ObsTest, CapacityDropKeepsPairsBalanced) {
  set_trace_enabled(true);
  clear_trace();
  set_trace_capacity_for_test(4);

  for (int i = 0; i < 8; ++i) {
    Span outer("obs_test.cap_outer", i);
    Span inner("obs_test.cap_inner");
  }
  EXPECT_GT(trace_dropped_count(), 0u);

  const auto events = snapshot_trace();
  std::vector<const char*> stack;
  for (const auto& e : events) {
    if (e.phase == 'B') {
      stack.push_back(e.name);
    } else {
      ASSERT_FALSE(stack.empty());
      EXPECT_STREQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());
  // Dropping a 'B' suppresses its whole subtree, so the export is still a
  // valid forest even though events were discarded.
  EXPECT_LE(events.size(), 4u + 1u);  // one 'E' may land past the cap

  set_trace_capacity_for_test(0);
  clear_trace();
  {
    Span s("obs_test.cap_restored");
  }
  EXPECT_GE(snapshot_trace().size(), 2u);
}

/// The inclusive and self milliseconds render_span_tree prints for `name`.
std::pair<double, double> tree_row_ms(const std::string& tree,
                                      const std::string& name) {
  const std::size_t at = tree.find(name + ' ');
  if (at == std::string::npos) return {-1.0, -1.0};
  unsigned long long count = 0;
  double incl = -1.0, self = -1.0;
  std::sscanf(tree.c_str() + at + name.size(), " %llu x %lf ms %lf ms self",
              &count, &incl, &self);
  return {incl, self};
}

TEST_F(ObsTest, RenderSpanTreeAggregates) {
  set_trace_enabled(true);
  clear_trace();
  const auto sleep_ms = [](int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  {
    Span outer("obs_test.tree_outer");
    sleep_ms(5);  // outer's own work: its self time
    {
      Span inner("obs_test.tree_inner");
      sleep_ms(2);
    }
    {
      Span inner("obs_test.tree_inner");
      sleep_ms(2);
    }
  }
  const std::string tree = render_span_tree();
  EXPECT_NE(tree.find("obs_test.tree_outer"), std::string::npos);
  EXPECT_NE(tree.find("obs_test.tree_inner"), std::string::npos);
  EXPECT_NE(tree.find("2 x"), std::string::npos);

  // Self = inclusive minus the direct children: a leaf's self is all of
  // it, the outer span's self is its own 5 ms of the total.
  const auto [outer_incl, outer_self] =
      tree_row_ms(tree, "obs_test.tree_outer");
  const auto [inner_incl, inner_self] =
      tree_row_ms(tree, "obs_test.tree_inner");
  EXPECT_DOUBLE_EQ(inner_self, inner_incl) << tree;
  EXPECT_GE(inner_incl, 4.0) << tree;
  EXPECT_GE(outer_self, 5.0) << tree;
  EXPECT_NEAR(outer_self, outer_incl - inner_incl, 0.002) << tree;

  clear_trace();
  EXPECT_EQ(render_span_tree(), "(no spans recorded)\n");
}

TEST_F(ObsTest, KernelProbeRecordsWhenMetricsOn) {
  set_metrics_enabled(true);
  const std::uint64_t calls_before =
      registry().counter("op.matmul.fwd.calls").value();
  const std::uint64_t items_before =
      registry().counter("op.matmul.fwd.items").value();

  Tensor a({4, 8});
  Tensor b({8, 2});
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = 1.0f;
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = 2.0f;
  (void)ag::matmul(ag::Var(a), ag::Var(b)).value();

  EXPECT_EQ(registry().counter("op.matmul.fwd.calls").value(),
            calls_before + 1);
  EXPECT_EQ(registry().counter("op.matmul.fwd.items").value(),
            items_before + 4u * 8u * 2u);
}

// Graph ops are probed once, at the autograd executor: a conv -> relu -> sum
// step records one op.conv2d.fwd and one op.conv2d.bwd with the conv's MACs
// as items, and no op span ever opens inside another (the tensor kernels
// below the executor carry no probes of their own).
TEST_F(ObsTest, GraphOpProbesAtExecutorDoNotNest) {
  set_metrics_enabled(true);
  set_trace_enabled(true);
  clear_trace();
  const auto counter = [](const char* name) {
    return registry().counter(name).value();
  };
  const std::uint64_t fwd_before = counter("op.conv2d.fwd.calls");
  const std::uint64_t items_before = counter("op.conv2d.fwd.items");
  const std::uint64_t bwd_before = counter("op.conv2d.bwd.calls");

  // (N=2, Cin=3, 6x6) input, (Cout=4, Cin=3, 3x3) weight, pad 1 -> 6x6 out.
  Tensor x({2, 3, 6, 6});
  Tensor w({4, 3, 3, 3});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = 0.01f * (i % 17);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = 0.02f * (i % 5) - 0.03f;
  ag::Var wv(w, /*requires_grad=*/true);
  Conv2dSpec spec;
  spec.padding = 1;
  ag::Var loss =
      ag::sum_all(ag::relu(ag::conv2d(ag::Var(x), wv, ag::Var(), spec)));
  loss.backward();

  EXPECT_EQ(counter("op.conv2d.fwd.calls"), fwd_before + 1);
  EXPECT_EQ(counter("op.conv2d.fwd.items"),
            items_before + 2u * 4u * 6u * 6u * 3u * 3u * 3u);
  EXPECT_EQ(counter("op.conv2d.bwd.calls"), bwd_before + 1);
  EXPECT_GT(counter("op.relu.fwd.calls"), 0u);

  std::map<std::uint32_t, int> open_ops;  // per tid: op spans now open
  std::size_t op_spans = 0;
  for (const auto& e : snapshot_trace()) {
    if (std::string_view(e.name).rfind("op.", 0) != 0) continue;
    if (e.phase == 'B') {
      EXPECT_EQ(open_ops[e.tid], 0) << e.name << " opens inside an op span";
      ++open_ops[e.tid];
      ++op_spans;
    } else {
      --open_ops[e.tid];
    }
  }
  EXPECT_GE(op_spans, 6u);  // conv, relu, sum fwd; sum, relu, conv bwd
}

// The graph-IR scheduler reports its arena footprint: after a backward pass
// with metrics on, the autograd.arena_peak_bytes gauge holds the plan's
// peak (the same number GradArena::stats() carries) and the pass/planner
// counters have moved.
TEST_F(ObsTest, AutogradArenaGaugeRecordsBackwardFootprint) {
  set_metrics_enabled(true);
  const std::uint64_t passes_before =
      registry().counter("autograd.backward_passes").value();

  ag::Var a(Tensor({4, 4}), /*requires_grad=*/true);
  for (std::int64_t i = 0; i < 16; ++i) a.mutable_value()[i] = 0.1f * i;
  ag::Var loss = ag::sum_all(ag::mul(ag::relu(a), ag::sigmoid(a)));
  loss.backward();

  EXPECT_EQ(registry().counter("autograd.backward_passes").value(),
            passes_before + 1);
  EXPECT_GT(registry().counter("autograd.nodes_materialized").value(), 0u);
  const double gauge = registry().gauge("autograd.arena_peak_bytes").value();
  EXPECT_GT(gauge, 0.0);
  EXPECT_EQ(gauge, static_cast<double>(
                       ag::GradArena::local().stats().last_peak_bytes));
}

TEST_F(ObsTest, ResetValuesZeroesInPlace) {
  Counter& c = registry().counter("obs_test.reset_me");
  c.add(5);
  registry().reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // the reference stayed valid
  EXPECT_EQ(c.value(), 1u);
}

// The "costs nothing when off" guarantee, as a wall-clock bound: one
// million span enter/exit pairs with both pillars disabled. The disabled
// path is one relaxed atomic load, so even under ASan + Debug this runs in
// a few milliseconds; the bound is deliberately generous (2s) to stay
// robust on loaded CI machines while still catching a regression that
// takes a lock or allocates per span (which would be >100x slower).
TEST_F(ObsTest, DisabledSpanOverheadGuard) {
  ASSERT_FALSE(enabled());
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000000; ++i) {
    Span span("obs_test.overhead");
    (void)span;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  EXPECT_LT(ms, 2000) << "disabled spans cost " << ms << "ms per 1e6 pairs";
  // And they really recorded nothing.
  EXPECT_EQ(snapshot_trace().size(), 0u);
}

}  // namespace
}  // namespace bd::obs
