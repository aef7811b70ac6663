// Microbenchmarks for the simulation substrate: event-queue throughput,
// scheduler enqueue/dequeue cost and per-packet marking decisions — the
// knobs that bound how large a paper reproduction run can be.
//
// Timing is hand-rolled (warmup + timed reps, median/MAD) rather than a
// benchmark framework so the numbers land in the same pmsb.bench/1 JSON the
// regression plane trends: set PMSB_BENCH_JSON=BENCH_engine.json to get the
// machine-readable report next to the printed table.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pmsb_algorithm.hpp"
#include "ecn/mq_ecn.hpp"
#include "ecn/per_port.hpp"
#include "ecn/per_queue.hpp"
#include "ecn/pmsb_marking.hpp"
#include "ecn/tcn.hpp"
#include "regress/bench_json.hpp"
#include "sched/dwrr.hpp"
#include "sched/wfq.hpp"
#include "sim/simulator.hpp"
#include "switchlib/buffer_policy.hpp"
#include "switchlib/buffer_pool.hpp"
#include "telemetry/profiler.hpp"

using namespace pmsb;

namespace {

// Attached to every benched simulator ONLY when PMSB_PROFILE_JSON is set:
// the dispatch hook's two clock reads per event would skew the throughput
// numbers the regression plane trends, so baseline runs stay unhooked.
telemetry::Profiler* g_profiler = nullptr;

/// Runs `fn` (one rep = `events` work units) warmup + reps times and returns
/// the timed sample as a BenchRecord, printing one table row.
regress::BenchRecord time_bench(const std::string& name, std::uint64_t events,
                                const std::function<void()>& fn) {
  const int warmup = 1;
  const int reps = bench::full_scale() ? 9 : 5;
  // One profiler scope per bench kind (profiled runs only), so `pmsbtrace
  // profile` can rank the benches by count and self wall time.
  const telemetry::Profiler::KindId kind =
      g_profiler != nullptr ? g_profiler->intern("bench." + name) : 0;
  auto run_rep = [&] {
    telemetry::ProfileScope scope(g_profiler, kind);
    fn();
  };
  for (int i = 0; i < warmup; ++i) run_rep();
  std::vector<double> wall;
  wall.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    run_rep();
    wall.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  const auto rec = regress::make_bench_record(name, wall, events);
  std::printf("  %-28s %9.3f ms median  %11.4g ev/s (mad %.2g, %d reps)\n",
              name.c_str(), rec.wall_s_median * 1e3, rec.events_per_s_median,
              rec.events_per_s_mad, rec.reps);
  return rec;
}

volatile std::uint64_t g_sink = 0;  // keeps the measured loops observable

void event_schedule_and_run(sim::QueueBackend backend, std::int64_t batch) {
  sim::Simulator sim(backend);
  if (g_profiler != nullptr) g_profiler->attach(sim);
  std::int64_t fired = 0;
  for (std::int64_t i = 0; i < batch; ++i) {
    sim.schedule_at((i * 7919) % 100000, [&fired] { ++fired; });
  }
  sim.run();
  g_sink = static_cast<std::uint64_t>(fired);
  if (g_profiler != nullptr) g_profiler->detach();
}

void event_cascade(sim::QueueBackend backend, std::int64_t depth_target) {
  // Self-rescheduling chain — the transport timer pattern.
  sim::Simulator sim(backend);
  if (g_profiler != nullptr) g_profiler->attach(sim);
  std::int64_t depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < depth_target) sim.schedule_in(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  g_sink = static_cast<std::uint64_t>(depth);
  if (g_profiler != nullptr) g_profiler->detach();
}

void timer_churn(sim::QueueBackend backend, std::int64_t batch) {
  // The retransmission-timer pattern: most timers are cancelled before they
  // fire. Exercises the O(1) generation-validated cancel and the tombstone
  // compactor (g_sink folds in queue_compactions so it can't be elided).
  sim::Simulator sim(backend);
  if (g_profiler != nullptr) g_profiler->attach(sim);
  std::vector<sim::EventId> ids;
  ids.reserve(static_cast<std::size_t>(batch));
  std::int64_t fired = 0;
  for (std::int64_t i = 0; i < batch; ++i) {
    ids.push_back(sim.schedule_at((i * 7919) % 100000, [&fired] { ++fired; }));
  }
  for (std::int64_t i = 0; i < batch; ++i) {
    if (i % 4 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  sim.run();
  g_sink = static_cast<std::uint64_t>(fired) + sim.queue_compactions();
  if (g_profiler != nullptr) g_profiler->detach();
}

void buffer_admission_churn(const switchlib::BufferPolicyConfig& policy_cfg,
                            std::int64_t ops) {
  // The per-packet admission hot path a Port runs: policy->admit() against a
  // live ledger, charge on accept, release on the simulated departure. Eight
  // slots churn in round-robin with staggered packet sizes so occupancy (and
  // with it every policy's threshold math) keeps moving; refusals count into
  // g_sink so the decision branch can't be elided.
  constexpr std::size_t kPorts = 8;
  switchlib::BufferPool pool(96 * 1500);
  std::vector<switchlib::BufferPool::SlotId> slots;
  std::vector<std::uint64_t> port_bytes(kPorts, 0);
  for (std::size_t p = 0; p < kPorts; ++p) slots.push_back(pool.register_slot());
  const auto policy = switchlib::make_buffer_policy(policy_cfg);
  std::uint64_t refused = 0;
  // A sliding window of in-flight (slot, bytes) charges; departures lag
  // arrivals by kPorts * 4 packets, keeping the pool part-full.
  std::vector<std::pair<std::size_t, std::uint64_t>> in_flight;
  std::size_t drain = 0;
  for (std::int64_t i = 0; i < ops; ++i) {
    const std::size_t p = static_cast<std::size_t>(i) % kPorts;
    const std::uint64_t size = 64 + (static_cast<std::uint64_t>(i) * 577) % 1437;
    const switchlib::AdmissionRequest req{.packet_bytes = size,
                                          .port_bytes = port_bytes[p],
                                          .port_budget = 32 * 1500,
                                          .pool = &pool};
    if (policy->admit(req)) {
      ++refused;
    } else {
      pool.charge(slots[p], size);
      port_bytes[p] += size;
      in_flight.emplace_back(p, size);
    }
    while (in_flight.size() - drain > kPorts * 4) {
      const auto [dp, dsize] = in_flight[drain++];
      pool.release(slots[dp], dsize);
      port_bytes[dp] -= dsize;
    }
    if (drain > 4096) {  // compact the FIFO's consumed prefix
      in_flight.erase(in_flight.begin(),
                      in_flight.begin() + static_cast<std::ptrdiff_t>(drain));
      drain = 0;
    }
  }
  g_sink = refused + pool.bytes();
}

sched::Packet make_pkt() {
  sched::Packet p;
  p.size_bytes = 1500;
  return p;
}

template <typename Scheduler>
void scheduler_churn(std::int64_t ops) {
  Scheduler s(8, std::vector<double>(8, 1.0));
  // Pre-fill so the scheduler stays busy.
  for (int q = 0; q < 8; ++q) {
    for (int i = 0; i < 16; ++i) s.enqueue(static_cast<std::size_t>(q), make_pkt());
  }
  std::uint64_t touched = 0;
  for (std::int64_t i = 0; i < ops; ++i) {
    auto out = s.dequeue(static_cast<sim::TimeNs>(i));
    touched += out->queue;
    s.enqueue(out->queue, make_pkt());
  }
  g_sink = touched;
}

/// A two-queue port state that keeps moving, so every threshold comparison
/// sees both outcomes.
ecn::PortSnapshot marking_snapshot(std::uint64_t i) {
  ecn::PortSnapshot s;
  s.port_bytes = (i * 37) % 120'000;
  s.queue_bytes = (i * 17) % 60'000;
  s.queue = i % 2;
  s.weight = 1.0;
  s.weight_sum = 2.0;
  s.num_queues = 2;
  return s;
}

/// Times `ops` calls of `decide(i)` for i = 1..ops as "marking/<name>"; the
/// mark count lands in g_sink so no decision can be elided.
template <typename Decide>
regress::BenchRecord marking_bench(const std::string& name, std::int64_t ops,
                                   Decide decide) {
  return time_bench("marking/" + name, static_cast<std::uint64_t>(ops), [&] {
    std::uint64_t marks = 0;
    for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(ops); ++i) {
      marks += decide(i) ? 1 : 0;
    }
    g_sink = marks;
  });
}

}  // namespace

int main() {
  bench::print_header(
      "Engine microbenchmarks — event queue and scheduler hot paths",
      "isolated simulator / scheduler loops, no network model",
      "throughput here bounds the reachable scale of every figure bench");

  const std::int64_t cascade_depth = 10000;
  const std::int64_t sched_ops =
      static_cast<std::int64_t>(bench::scaled(200000, 2000000));

  telemetry::Profiler profiler;
  const char* profile_path = std::getenv("PMSB_PROFILE_JSON");
  if (profile_path != nullptr && profile_path[0] != '\0') g_profiler = &profiler;

  regress::BenchReport report;
  report.tool = "bench_micro_engine";
  report.scale = bench::full_scale() ? "full" : "quick";
  // Event-kernel benches run once per queue backend. The unsuffixed names
  // are the binary heap (they predate the knob, so baselines keep trending);
  // "@cal" is the calendar queue on the identical workload.
  const struct {
    sim::QueueBackend backend;
    const char* suffix;
  } kBackends[] = {{sim::QueueBackend::kHeap, ""},
                   {sim::QueueBackend::kCalendar, "@cal"}};
  for (const auto& b : kBackends) {
    report.benchmarks.push_back(
        time_bench(std::string("event_schedule_and_run/1e3") + b.suffix, 1000,
                   [&] { event_schedule_and_run(b.backend, 1000); }));
    report.benchmarks.push_back(
        time_bench(std::string("event_schedule_and_run/1e5") + b.suffix,
                   100000, [&] { event_schedule_and_run(b.backend, 100000); }));
    report.benchmarks.push_back(time_bench(
        std::string("event_cascade/10k") + b.suffix,
        static_cast<std::uint64_t>(cascade_depth),
        [&] { event_cascade(b.backend, cascade_depth); }));
    report.benchmarks.push_back(
        time_bench(std::string("timer_churn/1e5") + b.suffix, 100000,
                   [&] { timer_churn(b.backend, 100000); }));
  }
  report.benchmarks.push_back(
      time_bench("dwrr_enqueue_dequeue", static_cast<std::uint64_t>(sched_ops),
                 [&] { scheduler_churn<sched::DwrrScheduler>(sched_ops); }));
  report.benchmarks.push_back(
      time_bench("wfq_enqueue_dequeue", static_cast<std::uint64_t>(sched_ops),
                 [&] { scheduler_churn<sched::WfqScheduler>(sched_ops); }));
  // Per-packet admission cost of each shared-buffer policy (admit + ledger
  // charge/release), the new branch on the Port::handle hot path.
  const struct {
    const char* name;
    switchlib::BufferPolicyConfig cfg;
  } kPolicies[] = {
      {"buffer_admit/static", {.kind = switchlib::BufferPolicyKind::kStaticPerPort}},
      {"buffer_admit/equal",
       {.kind = switchlib::BufferPolicyKind::kStaticEqualDivision}},
      {"buffer_admit/dt",
       {.kind = switchlib::BufferPolicyKind::kDynamicThresholds, .dt_alpha = 1.0}},
  };
  for (const auto& p : kPolicies) {
    report.benchmarks.push_back(
        time_bench(p.name, static_cast<std::uint64_t>(sched_ops),
                   [&] { buffer_admission_churn(p.cfg, sched_ops); }));
  }

  // Per-packet cost of each marking decision (§IV.C: PMSB needs two
  // comparisons, like RED/ECN, while MQ-ECN keeps a moving-average round
  // estimate and TCN handles timestamps).
  net::Packet pkt;
  ecn::PerPortMarking per_port(97'500);
  report.benchmarks.push_back(marking_bench("per_port", sched_ops, [&](std::uint64_t i) {
    return per_port.should_mark(marking_snapshot(i), pkt, ecn::MarkPoint::kEnqueue, 0);
  }));
  ecn::PerQueueMarking per_queue({48'750, 48'750});
  report.benchmarks.push_back(marking_bench("per_queue", sched_ops, [&](std::uint64_t i) {
    return per_queue.should_mark(marking_snapshot(i), pkt, ecn::MarkPoint::kEnqueue, 0);
  }));
  ecn::PmsbMarking pmsb(18'000);
  report.benchmarks.push_back(marking_bench("pmsb", sched_ops, [&](std::uint64_t i) {
    return pmsb.should_mark(marking_snapshot(i), pkt, ecn::MarkPoint::kEnqueue, 0);
  }));
  report.benchmarks.push_back(
      marking_bench("pmsb_should_mark", sched_ops, [](std::uint64_t i) {
        return core::pmsb_should_mark((i * 37) % 120'000, 18'000, (i * 17) % 60'000, 1.0,
                                      2.0);
      }));
  ecn::MqEcnConfig mq_cfg;
  mq_cfg.quantum_bytes = {1500.0, 1500.0};
  ecn::MqEcnMarking mq_ecn(std::move(mq_cfg));
  // A live round estimate, so the dynamic-threshold path is exercised.
  for (int r = 0; r < 16; ++r) mq_ecn.on_round_complete(r * 3000);
  report.benchmarks.push_back(marking_bench("mqecn", sched_ops, [&](std::uint64_t i) {
    return mq_ecn.should_mark(marking_snapshot(i), pkt, ecn::MarkPoint::kEnqueue, 0);
  }));
  ecn::TcnMarking tcn(sim::microseconds(78));
  report.benchmarks.push_back(marking_bench("tcn", sched_ops, [&](std::uint64_t i) {
    pkt.enqueue_time = static_cast<sim::TimeNs>(i * 11 % 1'000'000);
    return tcn.should_mark(marking_snapshot(i), pkt, ecn::MarkPoint::kDequeue,
                           static_cast<sim::TimeNs>(i * 13));
  }));

  regress::maybe_write_bench_json(report);
  if (g_profiler != nullptr && telemetry::maybe_write_profile_json(*g_profiler)) {
    std::printf("wrote %s (pmsb.profile/1, %zu scopes)\n", profile_path,
                g_profiler->num_kinds());
  }
  return 0;
}
