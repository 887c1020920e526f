// Tests for the benchmark harness: the tail-percentile rule, open-loop
// accounting, span self time, result emission and the metric catalog
// that BENCHMARK.json must mirror.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "harness.h"
#include "support/json.h"

namespace perfbench {
namespace {

using std::chrono::milliseconds;

TEST(TailPercentile, NeedsTenSamplesBeyondTheRank) {
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) values.push_back(i);
  EXPECT_FALSE(TailPercentile(values, 0.99).has_value());
  values.push_back(1000);
  ASSERT_TRUE(TailPercentile(values, 0.99).has_value());
  EXPECT_EQ(*TailPercentile(values, 0.99), 990);
  EXPECT_EQ(*TailPercentile(values, 0.5), 500);
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(OpenLoop, StalledRequestChargesTheRequestsBehindIt) {
  // One slot, a request due every 2 ms; request 2 stalls for 40 ms.
  const std::vector<Due> schedule =
      MergeSchedules({FixedRate(500, 0.024, 0, 0)});
  ASSERT_EQ(schedule.size(), 12u);
  const std::vector<Outcome> outcomes =
      RunOpenLoop(schedule, 1, [](size_t, const Due& due) {
        if (due.seq == 2) std::this_thread::sleep_for(milliseconds(40));
        return true;
      });
  ASSERT_EQ(outcomes.size(), 12u);
  EXPECT_LT(outcomes[1].latency_us(), 20000);
  EXPECT_GE(outcomes[2].latency_us(), 40000);
  // Request 3 was due 2 ms after the stall began: it waited ~38 ms to be
  // sent, and its latency counts that wait.
  EXPECT_GE(outcomes[3].late_us(), 30000);
  EXPECT_GE(outcomes[3].latency_us(), outcomes[3].late_us());
  for (const Outcome& o : outcomes) EXPECT_TRUE(o.ok);
}

TEST(OpenLoop, VerifyRunsOutsideTheTimedWindow) {
  const std::vector<Due> schedule =
      MergeSchedules({FixedRate(1000, 0.005, 0, 0)});
  size_t verified = 0;
  const std::vector<Outcome> outcomes = RunOpenLoop(
      schedule, 1, [](size_t, const Due&) { return true; },
      [&](size_t, const Due&) {
        ++verified;
        std::this_thread::sleep_for(milliseconds(5));
      });
  EXPECT_EQ(verified, schedule.size());
  EXPECT_LT(outcomes[0].done_us - outcomes[0].start_us, 4000);
}

TEST(SpanBuffer, SelfTimeExcludesChildren) {
  SpanBuffer spans(16);
  const uint16_t parent = spans.Name("parent");
  const uint16_t child = spans.Name("child");
  {
    Scope outer(&spans, parent, 1);
    std::this_thread::sleep_for(milliseconds(5));
    Scope inner(&spans, child, 1);
    std::this_thread::sleep_for(milliseconds(20));
  }
  const auto self = spans.SelfMs();
  const auto total = spans.TotalMs();
  EXPECT_GE(total.at("parent"), 25);
  EXPECT_GE(self.at("child"), 20);
  EXPECT_NEAR(self.at("parent"), total.at("parent") - total.at("child"),
              1e-9);
  EXPECT_LT(self.at("parent"), 15);
  EXPECT_NE(spans.ChromeTrace(10).find("\"name\":\"child\""),
            std::string::npos);
}

Metrics AllEndToEnd() {
  Metrics metrics;
  for (const MetricSpec& spec : EndToEndMetrics()) metrics.Set(spec.name, 1.5);
  return metrics;
}

TEST(EmitResult, CleanRunIsCorrect) {
  Oracle oracle;
  oracle.Check(true, "fine");
  std::string line;
  EXPECT_EQ(EmitResult(EndToEndMetrics(), AllEndToEnd(), oracle, {10, 0},
                       &line),
            0);
  auto json = autovac::ParseJson(line);
  ASSERT_TRUE(json.ok()) << line;
  EXPECT_TRUE(*autovac::JsonFieldBool(*json, "correct"));
  EXPECT_EQ(*autovac::JsonFieldUint64(*json, "attempted"), 10u);
  EXPECT_EQ(*autovac::JsonFieldUint64(*json, "failed"), 0u);
  const autovac::JsonValue* sample = json->Find("metrics")->Find("sample_p50_ms");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(*autovac::JsonFieldString(*sample, "unit"), "ms");
}

TEST(EmitResult, OracleMismatchFailsTheRun) {
  Oracle oracle;
  oracle.Check(false, "verdict differs");
  std::string line;
  EXPECT_EQ(EmitResult(EndToEndMetrics(), AllEndToEnd(), oracle, {10, 0},
                       &line),
            1);
  auto json = autovac::ParseJson(line);
  ASSERT_TRUE(json.ok()) << line;
  EXPECT_FALSE(*autovac::JsonFieldBool(*json, "correct"));
  EXPECT_EQ(*autovac::JsonFieldUint64(*json, "failed"), 1u);
}

TEST(EmitResult, UnmeasuredMetricFailsTheRun) {
  Metrics partial;
  partial.Set("setup_s", 0.5);
  std::string line;
  EXPECT_EQ(EmitResult(EndToEndMetrics(), partial, Oracle(), {10, 0}, &line),
            1);
}

// The catalog the benchmark prints must be exactly BENCHMARK.json's.
void ExpectCatalog(const autovac::JsonValue& list,
                   const std::vector<MetricSpec>& catalog) {
  ASSERT_TRUE(list.is_array());
  ASSERT_EQ(list.array.size(), catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(*autovac::JsonFieldString(list.array[i], "name"),
              catalog[i].name);
    EXPECT_EQ(*autovac::JsonFieldString(list.array[i], "unit"),
              catalog[i].unit);
  }
}

TEST(Catalog, MatchesBenchmarkJson) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  auto json = autovac::ParseJson(text.str());
  ASSERT_TRUE(json.ok());
  ExpectCatalog(*json->Find("end_to_end"), EndToEndMetrics());
  ExpectCatalog(*json->Find("per_layer"), PerLayerMetrics());
}

}  // namespace
}  // namespace perfbench
