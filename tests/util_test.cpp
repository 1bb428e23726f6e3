// Unit tests for util: RNG determinism/statistics, stats accumulators,
// table formatting, env-based configuration, the JSON codec.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <set>

#include "util/env.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace bd {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(3, 1), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stat.mean(), 2.0, 0.1);
  EXPECT_NEAR(stat.stddev(), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
  std::vector<int> empty;
  EXPECT_NO_THROW(rng.shuffle(empty));
}

TEST(Rng, ForkIndependence) {
  Rng a(31);
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Stats, MeanStdString) {
  EXPECT_EQ(mean_std_string({90.0}), "90.00");
  EXPECT_EQ(mean_std_string({1.0, 3.0}, 1), "2.0±1.4");
}

TEST(Table, FormatsAlignedRows) {
  TextTable t({"A", "Blah"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| A "), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsBadRows) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Table, CsvEscapesCommas) {
  TextTable t({"A"});
  t.add_row({"1,2"});
  EXPECT_NE(t.to_csv().find("1;2"), std::string::npos);
}

TEST(Env, IntParsing) {
  setenv("BD_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("BD_TEST_INT").value(), 42);
  setenv("BD_TEST_INT", "nonsense", 1);
  EXPECT_FALSE(env_int("BD_TEST_INT").has_value());
  unsetenv("BD_TEST_INT");
  EXPECT_FALSE(env_int("BD_TEST_INT").has_value());
}

TEST(Stopwatch, MonotoneAndResettable) {
  Stopwatch watch;
  const double t1 = watch.seconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const double t2 = watch.seconds();
  EXPECT_GE(t2, t1);
  EXPECT_GE(watch.milliseconds(), t2 * 1e3 * 0.5);
  watch.reset();
  EXPECT_LT(watch.seconds(), t2 + 1.0);
}

TEST(Logging, LevelRoundTrip) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages must not crash (output is suppressed).
  BD_LOG(Debug) << "invisible";
  BD_LOG(Info) << "also invisible";
  set_log_level(original);
}

TEST(Env, ScaledPicksByMode) {
  // In the test environment BDPROTO_MODE is unset -> quick.
  EXPECT_EQ(scaled(1, 2), full_mode() ? 2 : 1);
}

// ---------------------------------------------------------------------------
// JSON codec (util/json.h)
// ---------------------------------------------------------------------------

TEST(WireTest, ParsesNestedValues) {
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse(
      R"({"op":"submit","n":-1.5e2,"flag":true,"none":null,)"
      R"("arr":[1,"two",{}],"obj":{"k":"v\n"}})",
      v, error))
      << error;
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("op"), "submit");
  EXPECT_DOUBLE_EQ(v.get_double("n", 0), -150.0);
  EXPECT_TRUE(v.get_bool("flag", false));
  ASSERT_NE(v.find("none"), nullptr);
  EXPECT_TRUE(v.find("none")->is_null());
  ASSERT_NE(v.find("arr"), nullptr);
  EXPECT_EQ(v.find("arr")->items().size(), 3u);
  EXPECT_EQ(v.find("obj")->get_string("k"), "v\n");
}

TEST(WireTest, RejectsMalformedInputWithOffset) {
  Json v;
  std::string error;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1}trailing", "\"unterminated",
        "01", "nul", "{\"a\" 1}", "\"bad\\q\"", "1e999"}) {
    EXPECT_FALSE(Json::parse(bad, v, error)) << bad;
    EXPECT_NE(error.find("byte"), std::string::npos) << error;
  }
}

TEST(WireTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += "[";
  Json v;
  std::string error;
  EXPECT_FALSE(Json::parse(deep, v, error));
}

TEST(WireTest, WrongTypePresentMemberIsNotCoerced) {
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse(R"({"n":"five","s":7})", v, error));
  EXPECT_EQ(v.get_int("n", 3), 3);       // string where number expected
  EXPECT_EQ(v.get_string("s", "x"), "x");  // number where string expected
}

TEST(WireTest, GetIntFallsBackOutsideInt64) {
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse(
      R"({"big":1e19,"huge":1e300,"low":-1e300,"edge":-9223372036854775808,)"
      R"("ok":-42.9})",
      v, error))
      << error;
  EXPECT_EQ(v.get_int("big", 7), 7);
  EXPECT_EQ(v.get_int("huge", 7), 7);
  EXPECT_EQ(v.get_int("low", 7), 7);
  EXPECT_EQ(v.get_int("edge", 7), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.get_int("ok", 7), -42);
}

TEST(WireTest, EscapeRoundTrip) {
  const std::string hostile = "a\"b\\c\nd\te\x01f";
  Json v;
  std::string error;
  ASSERT_TRUE(Json::parse("\"" + json_escape(hostile) + "\"", v, error))
      << error;
  EXPECT_EQ(v.as_string(), hostile);
}

}  // namespace
}  // namespace bd
