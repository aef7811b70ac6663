// Tests for the analysis metrics and the synthetic traffic patterns.
#include <gtest/gtest.h>

#include <set>

#include "analysis/metrics.hpp"
#include "sim/rng.hpp"
#include "workload/patterns.hpp"

using namespace pmsb;
using namespace pmsb::analysis;
using namespace pmsb::workload;

TEST(JainIndex, PerfectlyFairIsOne) {
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({2.5}), 1.0);
}

TEST(JainIndex, StarvationApproachesOneOverN) {
  const double j = jain_index({10.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(j, 0.25, 1e-9);
}

TEST(JainIndex, KnownIntermediateValue) {
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42.
  EXPECT_NEAR(jain_index({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(JainIndex, EmptyThrows) {
  EXPECT_THROW(static_cast<void>(jain_index({})), std::invalid_argument);
}

TEST(WeightedJain, WeightedFairShareScoresOne) {
  // Allocations proportional to 1:2:3 weights.
  EXPECT_NEAR(weighted_jain_index({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 1.0, 1e-12);
}

TEST(WeightedJain, UnweightedViolationScoresBelowOne) {
  EXPECT_LT(weighted_jain_index({3.0, 3.0}, {1.0, 2.0}), 1.0);
  EXPECT_THROW(static_cast<void>(weighted_jain_index({1.0}, {1.0, 2.0})), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(weighted_jain_index({1.0}, {0.0})), std::invalid_argument);
}

TEST(Convergence, FindsSettlingPoint) {
  std::vector<TimePoint> series = {{0, 0.1}, {10, 0.3}, {20, 0.48}, {30, 0.52},
                                   {40, 0.49}, {50, 0.51}};
  EXPECT_EQ(convergence_time(series, 0.5, 0.05), 20);
}

TEST(Convergence, LateExcursionResets) {
  std::vector<TimePoint> series = {{0, 0.5}, {10, 0.5}, {20, 0.9}, {30, 0.5}};
  EXPECT_EQ(convergence_time(series, 0.5, 0.05), 30);
}

TEST(Convergence, NeverSettles) {
  std::vector<TimePoint> series = {{0, 0.1}, {10, 0.9}};
  EXPECT_EQ(convergence_time(series, 0.5, 0.05), sim::kTimeNever);
}

TEST(Utilization, FullLinkIsOne) {
  // 10G for 1 ms = 1.25 MB.
  EXPECT_NEAR(utilization(1'250'000, 0, sim::milliseconds(1), sim::gbps(10)), 1.0,
              1e-9);
  EXPECT_THROW(static_cast<void>(utilization(1, 10, 10, sim::gbps(10))), std::invalid_argument);
}

TEST(Permutation, IsDerangementCoveringAllHosts) {
  sim::Rng rng(5);
  const auto flows = permutation_pattern(16, 1000, 0, 4, rng);
  ASSERT_EQ(flows.size(), 16u);
  std::set<net::HostId> dsts;
  for (const auto& f : flows) {
    EXPECT_NE(f.src, f.dst);
    dsts.insert(f.dst);
  }
  EXPECT_EQ(dsts.size(), 16u);  // every host receives exactly once
}

TEST(Incast, TargetsAggregatorOnly) {
  const auto flows = incast_pattern(12, 3, 8, 64'000, sim::microseconds(5), 4);
  ASSERT_EQ(flows.size(), 8u);
  for (const auto& f : flows) {
    EXPECT_EQ(f.dst, 3);
    EXPECT_NE(f.src, 3);
    EXPECT_EQ(f.bytes, 64'000u);
    EXPECT_EQ(f.start, sim::microseconds(5));
  }
}

TEST(Incast, FanInLargerThanHostsWraps) {
  const auto flows = incast_pattern(4, 0, 9, 1000, 0, 2);
  EXPECT_EQ(flows.size(), 9u);
  for (const auto& f : flows) EXPECT_NE(f.src, 0);
}

TEST(AllToAll, CoversEveryOrderedPair) {
  sim::Rng rng(6);
  const auto flows = all_to_all_pattern(6, 500, 0, sim::microseconds(10), 3, rng);
  EXPECT_EQ(flows.size(), 30u);
  std::set<std::pair<net::HostId, net::HostId>> pairs;
  for (const auto& f : flows) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_LT(f.start, sim::microseconds(10));
    pairs.insert({f.src, f.dst});
  }
  EXPECT_EQ(pairs.size(), 30u);
}
