// Microbenchmark: per-packet cost of each marking decision (§IV.C's
// complexity claim — PMSB needs only two comparisons, like RED/ECN, while
// MQ-ECN keeps a moving-average register and TCN handles timestamps).
#include <benchmark/benchmark.h>

#include "core/pmsb_algorithm.hpp"
#include "ecn/mq_ecn.hpp"
#include "ecn/per_port.hpp"
#include "ecn/per_queue.hpp"
#include "ecn/pmsb_marking.hpp"
#include "ecn/tcn.hpp"

using namespace pmsb;
using namespace pmsb::ecn;

namespace {

PortSnapshot make_snapshot(std::uint64_t i) {
  PortSnapshot s;
  s.port_bytes = (i * 37) % 120'000;
  s.queue_bytes = (i * 17) % 60'000;
  s.queue = i % 2;
  s.weight = 1.0;
  s.weight_sum = 2.0;
  s.num_queues = 2;
  return s;
}

void BM_PerPort(benchmark::State& state) {
  PerPortMarking m(97'500);
  net::Packet pkt;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.should_mark(make_snapshot(++i), pkt, MarkPoint::kEnqueue, 0));
  }
}
BENCHMARK(BM_PerPort);

void BM_PerQueue(benchmark::State& state) {
  PerQueueMarking m({48'750, 48'750});
  net::Packet pkt;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.should_mark(make_snapshot(++i), pkt, MarkPoint::kEnqueue, 0));
  }
}
BENCHMARK(BM_PerQueue);

void BM_Pmsb(benchmark::State& state) {
  PmsbMarking m(18'000);
  net::Packet pkt;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.should_mark(make_snapshot(++i), pkt, MarkPoint::kEnqueue, 0));
  }
}
BENCHMARK(BM_Pmsb);

void BM_PmsbPureFunction(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    benchmark::DoNotOptimize(core::pmsb_should_mark((i * 37) % 120'000, 18'000,
                                                    (i * 17) % 60'000, 1.0, 2.0));
  }
}
BENCHMARK(BM_PmsbPureFunction);

void BM_MqEcn(benchmark::State& state) {
  MqEcnConfig cfg;
  cfg.quantum_bytes = {1500.0, 1500.0};
  MqEcnMarking m(std::move(cfg));
  // Give it a live round estimate so the dynamic path is exercised.
  for (int r = 0; r < 16; ++r) m.on_round_complete(r * 3000);
  net::Packet pkt;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.should_mark(make_snapshot(++i), pkt, MarkPoint::kEnqueue, 0));
  }
}
BENCHMARK(BM_MqEcn);

void BM_Tcn(benchmark::State& state) {
  TcnMarking m(sim::microseconds(78));
  net::Packet pkt;
  std::uint64_t i = 0;
  for (auto _ : state) {
    pkt.enqueue_time = static_cast<sim::TimeNs>(i * 11 % 1'000'000);
    ++i;
    benchmark::DoNotOptimize(m.should_mark(make_snapshot(i), pkt,
                                           MarkPoint::kDequeue,
                                           static_cast<sim::TimeNs>(i * 13)));
  }
}
BENCHMARK(BM_Tcn);

}  // namespace

BENCHMARK_MAIN();
