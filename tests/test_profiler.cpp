// Profiler contract tests: scope attribution (self vs total across nesting),
// zero-cost-when-off, kernel hook counters, exact counts under sampled
// timing, the sampled wall estimator, pmsb.profile/1 byte-stable round-trip
// through telemetry::json, manifest splicing, rusage capture, and — the
// property everything else hangs on — that attaching a profiler never
// perturbs a run's digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "regress/digest.hpp"
#include "sim/simulator.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/manifest_reader.hpp"
#include "telemetry/process_stats.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_report.hpp"

using namespace pmsb;
using telemetry::ProfileScope;
using telemetry::Profiler;

namespace {

void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

experiments::DumbbellConfig small_config() {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  return cfg;
}

struct DumbbellProfile {
  std::uint64_t executed_events = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t sampled_dispatches = 0;
  std::map<std::string, std::uint64_t> scope_counts;
  // Call counts kept by the components themselves.
  std::uint64_t port_arrivals = 0;  ///< bottleneck enqueued + dropped
  std::uint64_t port_enqueued = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t acks_received = 0;
};

DumbbellProfile profile_dumbbell() {
  experiments::DumbbellScenario sc(small_config());
  sc.add_flow({.sender = 0, .service = 0, .bytes = 200'000});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 200'000});
  Profiler p;
  sc.install_profiler(p);
  sc.run(sim::milliseconds(20));
  DumbbellProfile out;
  out.executed_events = sc.simulator().executed_events();
  out.dispatches = p.dispatches();
  out.sampled_dispatches = p.sampled_dispatches();
  for (Profiler::KindId k = 0; k < p.num_kinds(); ++k) {
    out.scope_counts[p.kind_name(k)] = p.count(k);
  }
  const switchlib::PortStats& ps = sc.bottleneck().stats();
  out.port_arrivals = ps.enqueued_packets + ps.dropped_packets;
  out.port_enqueued = ps.enqueued_packets;
  for (std::size_t i = 0; i < sc.num_flows(); ++i) {
    out.segments_sent += sc.flow(i).sender().stats().segments_sent;
    out.acks_received += sc.flow(i).sender().stats().acks_received;
  }
  return out;
}

std::string run_digest_hex(bool with_profiler) {
  experiments::DumbbellScenario sc(small_config());
  sc.add_flow({.sender = 0, .service = 0, .bytes = 200'000});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 200'000});
  regress::RunDigest digest;
  sc.install_digest(digest);
  Profiler profiler;
  if (with_profiler) sc.install_profiler(profiler);
  sc.run(sim::milliseconds(50));
  sc.finalize_digest();
  return digest.total().hex();
}

}  // namespace

TEST(Profiler, ScopesAttributeSelfAndTotalTime) {
  Profiler p;
  const auto outer = p.intern("outer");
  const auto inner = p.intern("inner");
  {
    ProfileScope a(&p, outer);
    spin_for(std::chrono::microseconds(200));
    {
      ProfileScope b(&p, inner);
      spin_for(std::chrono::microseconds(200));
    }
  }
  EXPECT_EQ(p.count(outer), 1u);
  EXPECT_EQ(p.count(inner), 1u);
  // The inner scope's time counts toward outer's total but not its self.
  EXPECT_GE(p.total_wall_ns(inner), 100'000u);
  EXPECT_GE(p.total_wall_ns(outer), p.total_wall_ns(inner));
  EXPECT_LE(p.self_wall_ns(outer) + p.self_wall_ns(inner), p.total_wall_ns(outer));
  EXPECT_EQ(p.self_wall_ns(inner), p.total_wall_ns(inner));
}

TEST(Profiler, InternIsIdempotentAndNamesStick) {
  Profiler p;
  const auto a = p.intern("sched.DWRR.enqueue");
  EXPECT_EQ(p.intern("sched.DWRR.enqueue"), a);
  EXPECT_EQ(p.kind_name(a), "sched.DWRR.enqueue");
  EXPECT_EQ(p.num_kinds(), 1u);
}

TEST(Profiler, NullProfilerScopeIsANoOp) {
  // The off state of the cost contract: must not crash or allocate.
  ProfileScope scope(nullptr, 0);
  SUCCEED();
}

TEST(Profiler, UnbalancedScopeEndThrows) {
  Profiler p;
  EXPECT_THROW(p.scope_end(), std::logic_error);
}

TEST(Profiler, KernelHookCountsDispatchesAndChurn) {
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  int fired = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i * 100, [&fired] { ++fired; });
  const auto doomed = sim.schedule_at(5'000, [] {});
  sim.cancel(doomed);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(p.dispatches(), sim.executed_events());
  EXPECT_EQ(p.events_scheduled(), 11u);
  EXPECT_EQ(p.events_cancelled(), 1u);
  // Every dispatch contributes one sim-time-delta observation.
  EXPECT_EQ(p.sim_delta_ns().count(), p.dispatches());
  p.detach();
  sim.schedule_at(10'000, [] {});
  sim.run();
  EXPECT_EQ(p.events_scheduled(), 11u) << "detached profiler must stop counting";
}

TEST(Profiler, AttachIsExclusiveAndDetachesOnDestruction) {
  sim::Simulator sim;
  {
    Profiler p;
    p.attach(sim);
    EXPECT_EQ(sim.dispatch_hook(), &p);
  }
  EXPECT_EQ(sim.dispatch_hook(), nullptr);
}

TEST(Profiler, ProfileJsonRoundTripsByteStablyThroughJsonReader) {
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  const auto kind = p.intern("component.\"quoted\"\n");  // escaping matters
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(i * 1000, [&p, kind] { ProfileScope s(&p, kind); });
  }
  sim.run();
  const std::string doc = p.to_json();
  // pmsb.profile/1 emits keys sorted at every level, so parsing and
  // re-serializing through telemetry::json must reproduce the exact bytes.
  EXPECT_EQ(telemetry::json::to_json(telemetry::json::parse(doc)), doc);
  const auto v = telemetry::json::parse(doc);
  EXPECT_EQ(v.at("schema").string, "pmsb.profile/1");
  EXPECT_EQ(static_cast<std::uint64_t>(v.at("kernel").at("dispatches").number),
            p.dispatches());
  EXPECT_EQ(v.at("scopes").array.size(), 1u);
}

TEST(Profiler, StaysBalancedWhenDispatchThrows) {
  // Regression for the unwind path: the kernel must call end_dispatch even
  // when the callback throws, or the profiler's begin/end pairing breaks and
  // every later scope misattributes its parent.
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  sim.schedule_at(1'000, [] {
    spin_for(std::chrono::microseconds(200));
    throw std::runtime_error("mid-dispatch failure");
  });
  sim.schedule_at(2'000, [] {});
  EXPECT_THROW(sim.run(), std::runtime_error);
  // end_dispatch provably ran: the dispatch was counted and its wall time
  // (including the spin before the throw) was accumulated.
  EXPECT_EQ(p.dispatches(), 1u);
  EXPECT_GE(p.dispatch_wall_ns(), 100'000u);
  // The profiler is still coherent: the survivor dispatches and counts.
  sim.run();
  EXPECT_EQ(p.dispatches(), 2u);
  EXPECT_EQ(p.sim_delta_ns().count(), 2u);
  const auto v = telemetry::json::parse(p.to_json());
  EXPECT_EQ(v.at("kernel").at("dispatches").number, 2.0);
}

TEST(Profiler, ReportsQueueBackendAndCompactions) {
  sim::Simulator sim(sim::QueueBackend::kCalendar);
  Profiler p;
  p.attach(sim);
  // Cancel-heavy churn deep enough to trip the tombstone compactor.
  sim::EventId timer = sim.schedule_at(1'000'000, [] {});
  for (int i = 1; i <= 500; ++i) {
    sim.cancel(timer);
    timer = sim.schedule_at(1'000'000 + i, [] {});
  }
  sim.run();
  const auto v = telemetry::json::parse(p.to_json());
  EXPECT_EQ(v.at("kernel").at("queue_backend").string, "calendar");
  EXPECT_EQ(
      static_cast<std::uint64_t>(v.at("kernel").at("queue_compactions").number),
      sim.queue_compactions());
  EXPECT_GT(sim.queue_compactions(), 0u);
}

TEST(Profiler, AttachingNeverPerturbsTheRunDigest) {
  // The observability plane's prime directive: profile=1 must not change
  // what the simulation computes, only observe it.
  EXPECT_EQ(run_digest_hex(false), run_digest_hex(true));
}

TEST(Profiler, DumbbellScopesCoverPortSchedulerEcnAndTransport) {
  experiments::DumbbellScenario sc(small_config());
  sc.add_flow({.sender = 0, .service = 0, .bytes = 100'000});
  Profiler p;
  sc.install_profiler(p);
  sc.run(sim::milliseconds(20));
  const auto v = telemetry::json::parse(p.to_json());
  std::vector<std::string> names;
  for (const auto& s : v.at("scopes").array) {
    names.push_back(s.at("name").string);
    EXPECT_GT(s.at("count").number, 0.0) << names.back();
    EXPECT_GE(s.at("total_wall_ns").number, s.at("self_wall_ns").number)
        << names.back();
  }
  auto has = [&names](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("port.handle"));
  EXPECT_TRUE(has("port.transmit"));
  EXPECT_TRUE(has("sched.DWRR.enqueue"));
  EXPECT_TRUE(has("sched.DWRR.dequeue"));
  EXPECT_TRUE(has("ecn.PMSB.should_mark"));
  EXPECT_TRUE(has("transport.send"));
  EXPECT_TRUE(has("transport.ack"));
  EXPECT_GT(v.at("kernel").at("dispatches").number, 0.0);
  EXPECT_GT(v.at("kernel").at("max_heap_depth").number, 0.0);
}

TEST(Profiler, ManifestSplicesProfileVerbatimAndReaderTolerates) {
  Profiler p;
  {
    ProfileScope s(&p, p.intern("x"));
  }
  telemetry::RunManifest manifest("test");
  manifest.set_profile_json(p.to_json());
  const std::string path = ::testing::TempDir() + "/manifest_profile.json";
  manifest.write(path, nullptr);

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = telemetry::json::parse(ss.str());
  ASSERT_NE(doc.find("profile"), nullptr);
  EXPECT_EQ(telemetry::json::to_json(*doc.find("profile")), p.to_json());
  // manifest_reader must keep parsing manifests that carry a profile.
  const auto data = telemetry::read_run_manifest(path);
  EXPECT_EQ(data.tool, "test");
  std::remove(path.c_str());
}

TEST(Profiler, CountsStayExactWhileTimingIsSampled) {
  const DumbbellProfile run = profile_dumbbell();
  EXPECT_EQ(run.dispatches, run.executed_events);
  EXPECT_LT(run.sampled_dispatches, run.dispatches);
  EXPECT_EQ(run.scope_counts.at("port.handle"), run.port_arrivals);
  EXPECT_EQ(run.scope_counts.at("sched.DWRR.enqueue"), run.port_enqueued);
  EXPECT_EQ(run.scope_counts.at("transport.send"), run.segments_sent);
  EXPECT_EQ(run.scope_counts.at("transport.ack"), run.acks_received);
  EXPECT_GT(run.segments_sent, 0u);
}

TEST(Profiler, TimedSampleIsDeterministicAndNearOneInSixtyFour) {
  const DumbbellProfile a = profile_dumbbell();
  const DumbbellProfile b = profile_dumbbell();
  EXPECT_EQ(a.sampled_dispatches, b.sampled_dispatches);
  EXPECT_EQ(a.scope_counts, b.scope_counts);
  const double expected =
      static_cast<double>(a.dispatches) / static_cast<double>(Profiler::kSamplePeriod);
  EXPECT_GE(static_cast<double>(a.sampled_dispatches), 0.75 * expected);
  EXPECT_LE(static_cast<double>(a.sampled_dispatches), 1.25 * expected);
}

// Every dispatch spins 20 us in A, then 5 us in B. Returns whether the
// scaled estimates land within 30% of the true totals, with A above B.
::testing::AssertionResult sampled_estimate_is_accurate() {
  constexpr int kDispatches = 2000;
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  const auto a = p.intern("A");
  const auto b = p.intern("B");
  for (int i = 0; i < kDispatches; ++i) {
    sim.schedule_at(i * 1000, [&p, a, b] {
      {
        ProfileScope s(&p, a);
        spin_for(std::chrono::microseconds(20));
      }
      ProfileScope s(&p, b);
      spin_for(std::chrono::microseconds(5));
    });
  }
  sim.run();
  if (p.count(a) != kDispatches || p.count(b) != kDispatches) {
    return ::testing::AssertionFailure() << "scope counts are not exact";
  }
  // Untimed dispatches read no clock: two reads per timed dispatch and two
  // per scope inside it, nothing else.
  if (p.clock_reads() != p.sampled_dispatches() * 6) {
    return ::testing::AssertionFailure()
           << p.clock_reads() << " clock reads for " << p.sampled_dispatches()
           << " timed dispatches";
  }
  const double true_a = kDispatches * 20'000.0;
  const double true_b = kDispatches * 5'000.0;
  const double est_a = static_cast<double>(p.self_wall_ns(a));
  const double est_b = static_cast<double>(p.self_wall_ns(b));
  const double est_dispatch = static_cast<double>(p.dispatch_wall_ns());
  if (std::abs(est_a - true_a) > 0.3 * true_a || std::abs(est_b - true_b) > 0.3 * true_b ||
      std::abs(est_dispatch - true_a - true_b) > 0.3 * (true_a + true_b) || est_a <= est_b) {
    return ::testing::AssertionFailure()
           << "estimated A " << est_a << " ns (true " << true_a << "), B " << est_b
           << " ns (true " << true_b << "), dispatch " << est_dispatch << " ns from "
           << p.sampled_dispatches() << " timed dispatches";
  }
  return ::testing::AssertionSuccess();
}

TEST(Profiler, SampledEstimateTracksTrueScopeTime) {
  // Only ~31 of the 2000 dispatches are timed, so a host preemption landing
  // in one of them is scaled up 64x along with it and can swamp a 50 ms run.
  // A fresh run is taken then; a biased estimator fails every attempt.
  ::testing::AssertionResult result = ::testing::AssertionFailure();
  for (int attempt = 0; attempt < 5 && !result; ++attempt) {
    result = sampled_estimate_is_accurate();
  }
  EXPECT_TRUE(result);
}

// A chain of dispatches, each scheduling the next, opens an outer scope
// around one empty scope per dispatch. Returns whether both read at most
// 3 ns of self time per call once the calibrated overhead is subtracted.
::testing::AssertionResult empty_scopes_read_near_zero() {
  constexpr int kDispatches = 200'000;
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  const auto outer = p.intern("outer");
  const auto inner = p.intern("inner");
  int left = kDispatches;
  std::function<void()> step = [&] {
    {
      ProfileScope o(&p, outer);
      ProfileScope empty(&p, inner);
    }
    if (--left > 0) sim.schedule_in(1, step);
  };
  sim.schedule_at(0, step);
  sim.run();
  const double outer_ns =
      static_cast<double>(p.self_wall_ns(outer)) / static_cast<double>(p.count(outer));
  const double inner_ns =
      static_cast<double>(p.self_wall_ns(inner)) / static_cast<double>(p.count(inner));
  if (outer_ns > 3.0 || inner_ns > 3.0) {
    return ::testing::AssertionFailure()
           << "empty scopes read " << outer_ns << " ns (outer) and " << inner_ns
           << " ns (inner) self per call from " << p.sampled_dispatches()
           << " timed dispatches";
  }
  return ::testing::AssertionSuccess();
}

TEST(Profiler, EmptyNestedScopesReadNearZeroSelfTime) {
  // The calibration times empty scopes on the path they take in a run, so
  // the profiler's own bookkeeping must not show up as scope time. Retried
  // like the estimator test: a preemption in a timed dispatch is scaled 64x.
  ::testing::AssertionResult result = ::testing::AssertionFailure();
  for (int attempt = 0; attempt < 5 && !result; ++attempt) {
    result = empty_scopes_read_near_zero();
  }
  EXPECT_TRUE(result);
}

TEST(Profiler, ThrowInUntimedDispatchResetsSampling) {
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  const auto leaked = p.intern("leaked");
  const auto after = p.intern("after");
  sim.schedule_at(1'000, [] {});  // the first dispatch is always timed
  sim.schedule_at(2'000, [&p, leaked] {
    p.scope_begin(leaked);  // never ended: the callback throws first
    throw std::runtime_error("mid-dispatch failure");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
  ASSERT_EQ(p.dispatches(), 2u);
  ASSERT_EQ(p.sampled_dispatches(), 1u) << "the throwing dispatch must be untimed";
  EXPECT_EQ(p.count(leaked), 1u);
  // Outside any dispatch again: scopes are timed and unmatched ends throw.
  {
    ProfileScope s(&p, after);
    spin_for(std::chrono::microseconds(100));
  }
  EXPECT_GE(p.total_wall_ns(after), 50'000u);
  EXPECT_THROW(p.scope_end(), std::logic_error);
}

TEST(Profiler, ProfileJsonCarriesSamplingAndCalibrationKeys) {
  sim::Simulator sim;
  Profiler p;
  p.attach(sim);
  const auto kind = p.intern("k");
  for (int i = 0; i < 500; ++i) {
    sim.schedule_at(i * 100, [&p, kind] { ProfileScope s(&p, kind); });
  }
  sim.run();
  const std::string doc = p.to_json();
  EXPECT_EQ(telemetry::json::to_json(telemetry::json::parse(doc)), doc);
  EXPECT_EQ(p.to_json(), doc) << "calibration is measured once, then fixed";
  const auto kernel = telemetry::json::parse(doc).at("kernel");
  EXPECT_EQ(kernel.at("sample_period").number, 64.0);
  EXPECT_EQ(static_cast<std::uint64_t>(kernel.at("sampled_dispatches").number),
            p.sampled_dispatches());
  EXPECT_GT(kernel.at("sampled_dispatches").number, 0.0);
  EXPECT_LE(kernel.at("sampled_dispatches").number, kernel.at("dispatches").number);
  EXPECT_GT(kernel.at("clock_read_ns").number, 0.0);
  EXPECT_EQ(static_cast<std::uint64_t>(kernel.at("overhead_ns_est").number),
            p.clock_reads() * p.clock_read_ns());
}

TEST(ProcessStats, UsageFieldsArePlausible) {
  spin_for(std::chrono::microseconds(500));
  const telemetry::ProcessUsage u = telemetry::process_usage();
  EXPECT_GE(u.utime_s + u.stime_s, 0.0);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(u.utime_s + u.stime_s, 0.0);
#endif
}

TEST(ProcessStats, ManifestCarriesUsageAndReaderParsesIt) {
  telemetry::RunManifest manifest("test");
  const std::string path = ::testing::TempDir() + "/manifest_usage.json";
  manifest.write(path, nullptr);
  const auto data = telemetry::read_run_manifest(path);
  EXPECT_GE(data.utime_s, 0.0);
  EXPECT_GE(data.stime_s, 0.0);
  EXPECT_GE(data.major_page_faults, 0.0);
  std::remove(path.c_str());
}

TEST(Profiler, MaybeWriteProfileJsonHonorsEnv) {
  Profiler p;
  ::unsetenv("PMSB_PROFILE_JSON");
  EXPECT_FALSE(telemetry::maybe_write_profile_json(p));
  const std::string path = ::testing::TempDir() + "/profile_env.json";
  ::setenv("PMSB_PROFILE_JSON", path.c_str(), 1);
  EXPECT_TRUE(telemetry::maybe_write_profile_json(p));
  ::unsetenv("PMSB_PROFILE_JSON");
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(telemetry::json::parse(ss.str()).at("schema").string,
            "pmsb.profile/1");
  std::remove(path.c_str());
}
