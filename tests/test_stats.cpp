// Tests for the statistics utilities: Summary, FctCollector, meters, table.
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "stats/fct.hpp"
#include "stats/queue_trace.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

using namespace pmsb;
using namespace pmsb::stats;

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
}

TEST(Summary, MeanAndExtremes) {
  Summary s;
  for (double v : {3.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(Summary, PercentilesInterpolate) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
}

TEST(Summary, SingleSampleAllPercentiles) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(Summary, AddAfterPercentileResorts) {
  Summary s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(SizeBins, PaperBoundaries) {
  EXPECT_EQ(size_bin(0), SizeBin::kSmall);
  EXPECT_EQ(size_bin(99'999), SizeBin::kSmall);
  EXPECT_EQ(size_bin(100'000), SizeBin::kMedium);
  EXPECT_EQ(size_bin(10'000'000), SizeBin::kMedium);
  EXPECT_EQ(size_bin(10'000'001), SizeBin::kLarge);
  EXPECT_STREQ(size_bin_name(SizeBin::kSmall), "small");
}

TEST(FctCollector, BinsAndOverall) {
  FctCollector c;
  c.record({1, 50'000, 0, sim::microseconds(100), 0});    // small
  c.record({2, 60'000, 0, sim::microseconds(300), 0});    // small
  c.record({3, 20'000'000, 0, sim::milliseconds(20), 0}); // large
  EXPECT_EQ(c.count(), 3u);
  EXPECT_EQ(c.fct_us(SizeBin::kSmall).count(), 2u);
  EXPECT_EQ(c.fct_us(SizeBin::kLarge).count(), 1u);
  EXPECT_EQ(c.fct_us(SizeBin::kMedium).count(), 0u);
  EXPECT_DOUBLE_EQ(c.fct_us(SizeBin::kSmall).mean(), 200.0);
  EXPECT_EQ(c.overall_fct_us().count(), 3u);
}

TEST(FctCollector, IdealFctFormula) {
  // 1 MSS flow: one RTT plus one MTU serialization.
  const auto ideal =
      FctCollector::ideal_fct(1460, sim::gbps(10), sim::microseconds(20));
  EXPECT_EQ(ideal, sim::microseconds(20) + 1200);
  // 10 segments: headers inflate the wire bytes.
  const auto ten = FctCollector::ideal_fct(14'600, sim::gbps(10), 0);
  EXPECT_EQ(ten, sim::serialization_delay(14'600 + 10 * 40, sim::gbps(10)));
}

TEST(FctCollector, SlowdownNormalises) {
  FctCollector c;
  const sim::RateBps rate = sim::gbps(10);
  const sim::TimeNs rtt = sim::microseconds(20);
  const auto ideal = FctCollector::ideal_fct(50'000, rate, rtt);
  c.record({1, 50'000, 0, ideal, 0});          // ran at ideal speed
  c.record({2, 50'000, 0, 3 * ideal, 0});      // 3x slowdown
  const auto s = c.slowdown(SizeBin::kSmall, rate, rtt);
  ASSERT_EQ(s.count(), 2u);
  EXPECT_NEAR(s.min(), 1.0, 1e-9);
  EXPECT_NEAR(s.max(), 3.0, 1e-9);
  EXPECT_NEAR(s.mean(), 2.0, 1e-9);
}

TEST(QueueTracer, CapturesPeakAndMean) {
  sim::Simulator sim;
  std::uint64_t occupancy = 0;
  sim.schedule_at(sim::microseconds(50), [&] { occupancy = 30'000; });
  sim.schedule_at(sim::microseconds(250), [&] { occupancy = 10'000; });
  QueueTracer tracer(sim, [&] { return occupancy; }, sim::microseconds(10));
  sim.run(sim::milliseconds(1));
  EXPECT_EQ(tracer.peak_bytes(), 30'000u);
  EXPECT_GT(tracer.mean_bytes(sim::microseconds(60), sim::microseconds(240)), 25'000.0);
  EXPECT_LT(tracer.mean_bytes(sim::microseconds(300), sim::milliseconds(1)), 11'000.0);
}

TEST(Table, FormatsWithoutCrashing) {
  Table t({"a", "b"});
  t.add_row({"1", Table::num(3.14159, 3)});
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
  // Print to /dev/null-ish: just ensure no crash.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.print(f);
  std::fclose(f);
}
