// Tests for experiments::Fabric: every plane — faults, invariants, digest,
// profiler and spans — attaches to every topology the same way, and a run
// with all of them attached is clean and repeatable.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "experiments/dumbbell.hpp"
#include "experiments/fabric.hpp"
#include "experiments/leafspine.hpp"
#include "experiments/multiport.hpp"

using namespace pmsb;

namespace {

struct Outcome {
  std::string digest;
  std::uint64_t digest_events = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t violations = 0;
  std::uint64_t fault_forwarded = 0;
  std::size_t last_hop_rx = 0;  ///< watched flow's kRx spans on its last hop
};

/// Every plane of one run. Construct before the fabric so it outlives it;
/// finish() detaches what holds the fabric's kernel (checker, profiler).
struct Planes {
  faults::FaultPlan plan;
  regress::RunDigest digest;
  telemetry::Profiler profiler;
  trace::SpanTracer spans;
  std::unique_ptr<faults::InvariantChecker> checker;

  void attach(experiments::Fabric& fab, const std::string& faults) {
    plan.add_spec_string(faults);
    fab.install_faults(plan, 7);
    checker = std::make_unique<faults::InvariantChecker>(fab.simulator());
    fab.install_invariants(*checker);
    checker->start_periodic(sim::microseconds(100));
    fab.install_digest(digest);
    fab.install_profiler(profiler);
    spans.watch_flow(1);
    fab.install_span_tracer(spans);
  }

  Outcome finish(experiments::Fabric& fab, const std::string& last_hop) {
    checker->check_now();
    fab.finalize_digest();
    Outcome out;
    out.digest = digest.total().hex();
    out.digest_events = digest.count();
    out.dispatches = profiler.dispatches();
    out.evaluations = checker->evaluations();
    out.violations = checker->total_violations();
    out.fault_forwarded = plan.forwarded();
    const trace::NodeId node = spans.intern_node(last_hop);
    spans.for_each_chronological([&](const trace::SpanRecord& s) {
      if (s.flow == 1 && s.node == node && s.phase == trace::SpanPhase::kRx) {
        ++out.last_hop_rx;
      }
    });
    checker.reset();
    profiler.detach();
    return out;
  }
};

Outcome run_dumbbell() {
  Planes planes;
  experiments::DumbbellConfig cfg;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 30'000;
  experiments::DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 400'000, .start = 0});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 400'000, .start = 0});
  planes.attach(sc, "loss:sender0->*:0.001;bleach:switch:0.05");
  sc.run(sim::milliseconds(5));
  return planes.finish(sc, "switch->receiver");
}

Outcome run_leafspine() {
  Planes planes;
  experiments::LeafSpineConfig cfg;
  cfg.num_leaves = 2;
  cfg.num_spines = 2;
  cfg.hosts_per_leaf = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 30'000;
  experiments::LeafSpineScenario sc(cfg);
  // Flow 1 crosses the core to h3; flow 2 stays under leaf 1.
  sc.add_workload({{.src = 0, .dst = 3, .service = 0, .bytes = 300'000, .start = 0},
                   {.src = 2, .dst = 3, .service = 1, .bytes = 300'000, .start = 0}});
  planes.attach(sc, "loss:h0->*:0.001;bleach:spine0:0.05");
  EXPECT_TRUE(sc.run_until_complete(sim::milliseconds(50)));
  return planes.finish(sc, "leaf1->h3");
}

Outcome run_multiport() {
  Planes planes;
  experiments::MultiPortConfig cfg;
  cfg.num_senders = 2;
  cfg.num_receivers = 2;
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 30'000;
  cfg.buffer_policy.kind = switchlib::BufferPolicyKind::kDynamicThresholds;
  experiments::MultiPortScenario sc(cfg);
  sc.add_flow({.sender = 0, .receiver = 1, .service = 0, .bytes = 400'000, .start = 0});
  sc.add_flow({.sender = 1, .receiver = 0, .service = 0, .bytes = 400'000, .start = 0});
  planes.attach(sc, "loss:sender0->*:0.001;bleach:switch:0.05");
  sc.run(sim::milliseconds(5));
  return planes.finish(sc, "switch->receiver1");
}

void expect_every_plane(const Outcome& a, const Outcome& b) {
  EXPECT_GT(a.evaluations, 0u);
  EXPECT_EQ(a.violations, 0u);
  EXPECT_GT(a.fault_forwarded, 0u);
  EXPECT_GT(a.digest_events, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest_events, b.digest_events);
  EXPECT_GT(a.dispatches, 0u);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_GT(a.last_hop_rx, 0u);
  EXPECT_EQ(a.last_hop_rx, b.last_hop_rx);
}

}  // namespace

TEST(Fabric, DumbbellCarriesEveryPlane) {
  expect_every_plane(run_dumbbell(), run_dumbbell());
}

TEST(Fabric, LeafSpineCarriesEveryPlane) {
  expect_every_plane(run_leafspine(), run_leafspine());
}

TEST(Fabric, MultiPortCarriesEveryPlane) {
  expect_every_plane(run_multiport(), run_multiport());
}

TEST(Fabric, FlowLivenessCoversLateFlowsAndDropsCompletedOnes) {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 2;
  experiments::DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 20'000, .start = 0});
  faults::InvariantChecker checker(sc.simulator());
  const auto liveness = sc.install_invariants(checker);
  // Added after install_invariants, and long enough to outlast flow 0.
  sc.add_flow({.sender = 1, .service = 0, .bytes = 2'000'000, .start = 0});
  checker.check_now();
  EXPECT_EQ(liveness->live(), 2u) << "the late flow must be visited too";

  sc.run(sim::milliseconds(1));
  ASSERT_TRUE(sc.flow(0).sender().complete());
  ASSERT_FALSE(sc.flow(1).sender().complete());
  checker.check_now();
  EXPECT_EQ(liveness->live(), 1u) << "a completed flow is no longer visited";

  EXPECT_TRUE(sc.run_until_complete(sim::milliseconds(50)));
  checker.check_now();
  EXPECT_EQ(liveness->live(), 0u);
  EXPECT_TRUE(checker.clean()) << checker.summary();
}
