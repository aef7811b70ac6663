// Tests for experiments::Fabric: every plane — faults, invariants, digest,
// profiler and spans — attaches to every topology the same way, a run with
// all of them attached is clean and repeatable, and the packet planes that
// share one observer record the same together as alone.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

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
      if (s.flow == 1 && s.node == node && s.phase == net::PacketEvent::kRx) {
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

/// What one dumbbell run recorded in each packet plane attached to it.
struct PacketRecords {
  std::string digest;  ///< empty when the digest was not attached
  std::uint64_t digest_events = 0;
  std::vector<trace::SpanRecord> spans;
  std::vector<trace::Record> trace;
};

PacketRecords run_packet_planes(bool digest, bool spans, bool trace) {
  regress::RunDigest run_digest;
  trace::SpanTracer span_tracer;
  span_tracer.watch_all();
  trace::Tracer port_tracer;
  experiments::DumbbellConfig cfg;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 30'000;
  experiments::DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 400'000, .start = 0});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 400'000, .start = 0});
  if (digest) sc.install_digest(run_digest);
  if (spans) sc.install_span_tracer(span_tracer);
  if (trace) sc.install_tracer(port_tracer);
  sc.run(sim::milliseconds(5));
  PacketRecords out;
  if (digest) {
    sc.finalize_digest();
    out.digest = run_digest.total().hex();
    out.digest_events = run_digest.count();
  }
  out.spans = span_tracer.records();
  out.trace = port_tracer.records();
  return out;
}

}  // namespace

TEST(Fabric, PacketPlanesRecordTheSameTogetherAsAlone) {
  const PacketRecords all = run_packet_planes(true, true, true);
  const PacketRecords digest_only = run_packet_planes(true, false, false);
  const PacketRecords spans_only = run_packet_planes(false, true, false);
  const PacketRecords trace_only = run_packet_planes(false, false, true);
  EXPECT_EQ(all.digest, digest_only.digest);
  EXPECT_EQ(all.digest_events, digest_only.digest_events);
  EXPECT_EQ(all.spans, spans_only.spans);
  EXPECT_EQ(all.trace, trace_only.trace);
  EXPECT_TRUE(digest_only.spans.empty() && digest_only.trace.empty());
  EXPECT_TRUE(spans_only.digest.empty() && spans_only.trace.empty());
  EXPECT_TRUE(trace_only.digest.empty() && trace_only.spans.empty());
  // Every site reported: senders, the bottleneck port and its link.
  std::array<std::size_t, net::kNumPacketEvents> phases{};
  for (const trace::SpanRecord& s : all.spans) {
    ++phases[static_cast<std::size_t>(s.phase)];
  }
  for (const net::PacketEvent e :
       {net::PacketEvent::kSend, net::PacketEvent::kEnqueue, net::PacketEvent::kDequeue,
        net::PacketEvent::kLinkTx, net::PacketEvent::kRx, net::PacketEvent::kAck,
        net::PacketEvent::kMark}) {
    EXPECT_GT(phases[static_cast<std::size_t>(e)], 0u) << net::packet_event_name(e);
  }
  EXPECT_GT(all.digest_events, 0u);
  EXPECT_FALSE(all.trace.empty());
}

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
