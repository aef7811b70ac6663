// Tests for the packet-event tracer and its Port integration.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "experiments/dumbbell.hpp"
#include "trace/tracer.hpp"

using namespace pmsb;
using namespace pmsb::trace;
using net::PacketEvent;

TEST(Tracer, RecordsAndCounts) {
  Tracer t;
  t.record({10, PacketEvent::kEnqueue, 1, 7, 0, 1500});
  t.record({20, PacketEvent::kMark, 1, 7, 0, 3000});
  t.record({30, PacketEvent::kDequeue, 1, 7, 0, 1500});
  EXPECT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.count(PacketEvent::kMark), 1u);
  EXPECT_EQ(t.count(PacketEvent::kDrop), 0u);
  EXPECT_EQ(t.count_queue(PacketEvent::kEnqueue, 0), 1u);
  EXPECT_EQ(t.count_queue(PacketEvent::kEnqueue, 1), 0u);
}

TEST(Tracer, FlowFilter) {
  Tracer t;
  t.set_flow_filter(7);
  t.record({0, PacketEvent::kEnqueue, 1, 7, 0, 0});
  t.record({0, PacketEvent::kEnqueue, 2, 8, 0, 0});
  EXPECT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].flow, 7u);
}

TEST(Tracer, CapacityBoundWithOverflowCount) {
  Tracer t(2);
  for (int i = 0; i < 5; ++i) t.record({0, PacketEvent::kEnqueue, 0, 0, 0, 0});
  EXPECT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.overflow(), 3u);
  t.clear();
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.overflow(), 0u);
}

TEST(Tracer, RingBufferKeepsTail) {
  Tracer t(3, OverflowPolicy::kRingBuffer);
  for (std::uint64_t i = 1; i <= 7; ++i) {
    // Alternate queues so the incremental per-queue counts get exercised.
    t.record({sim::TimeNs(i), i % 2 == 0 ? PacketEvent::kMark : PacketEvent::kEnqueue,
              i, 1, i % 2, i * 100});
  }
  // Records 5, 6, 7 survive; 4 were evicted.
  EXPECT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.overflow(), 4u);
  std::vector<std::uint64_t> order;
  t.for_each_chronological([&order](const Record& r) { order.push_back(r.packet); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{5, 6, 7}));
  // O(1) counts reflect only the retained tail: 5,7 enqueue on q1; 6 mark q0.
  EXPECT_EQ(t.count(PacketEvent::kEnqueue), 2u);
  EXPECT_EQ(t.count(PacketEvent::kMark), 1u);
  EXPECT_EQ(t.count_queue(PacketEvent::kEnqueue, 1), 2u);
  EXPECT_EQ(t.count_queue(PacketEvent::kMark, 0), 1u);
  EXPECT_EQ(t.count_queue(PacketEvent::kMark, 1), 0u);
}

TEST(Tracer, ZeroCapacityNeverStores) {
  Tracer t(0, OverflowPolicy::kRingBuffer);
  t.record({0, PacketEvent::kEnqueue, 1, 1, 0, 0});
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.overflow(), 1u);
  EXPECT_EQ(t.count(PacketEvent::kEnqueue), 0u);
}

TEST(Tracer, NdjsonDumpIsChronologicalAfterWrap) {
  Tracer t(2, OverflowPolicy::kRingBuffer);
  t.record({sim::microseconds(1), PacketEvent::kEnqueue, 1, 9, 0, 100});
  t.record({sim::microseconds(2), PacketEvent::kMark, 2, 9, 1, 200});
  t.record({sim::microseconds(3), PacketEvent::kDrop, 3, 9, 1, 300});  // evicts #1
  const std::string path = std::string(::testing::TempDir()) + "/trace_events.ndjson";
  t.write_ndjson(path);
  std::ifstream in(path);
  std::string line1, line2, line3;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_FALSE(std::getline(in, line3));
  EXPECT_NE(line1.find("\"t_us\":2"), std::string::npos);
  EXPECT_NE(line1.find("\"event\":\"mark\""), std::string::npos);
  EXPECT_NE(line2.find("\"t_us\":3"), std::string::npos);
  EXPECT_NE(line2.find("\"event\":\"drop\""), std::string::npos);
  EXPECT_NE(line2.find("\"queue\":1"), std::string::npos);
}

TEST(Tracer, CsvDump) {
  Tracer t;
  t.record({sim::microseconds(5), PacketEvent::kMark, 42, 9, 1, 4500});
  const std::string path = std::string(::testing::TempDir()) + "/trace_events.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("time_us,event,packet,flow,queue,port_bytes"),
            std::string::npos);
  EXPECT_NE(ss.str().find("5,mark,42,9,1,4500"), std::string::npos);
}

TEST(TracerPort, CapturesFullLifecycleInScenario) {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 2;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 8 * 1500;
  experiments::DumbbellScenario sc(cfg);
  Tracer tracer;
  sc.install_tracer(tracer);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 200'000, .start = 0});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 200'000, .start = 0});
  sc.run(sim::milliseconds(20));
  // Conservation: every enqueued packet dequeues; marks match port stats.
  EXPECT_GT(tracer.count(PacketEvent::kEnqueue), 100u);
  EXPECT_EQ(tracer.count(PacketEvent::kEnqueue), tracer.count(PacketEvent::kDequeue));
  EXPECT_EQ(tracer.count(PacketEvent::kMark),
            sc.bottleneck().stats().marked_enqueue +
                sc.bottleneck().stats().marked_dequeue);
  EXPECT_EQ(tracer.count(PacketEvent::kDrop), sc.bottleneck().stats().dropped_packets);
  // Mark events identify the queue that was over its share: both queues are
  // congested here so both should appear.
  EXPECT_GT(tracer.count_queue(PacketEvent::kMark, 0), 0u);
  EXPECT_GT(tracer.count_queue(PacketEvent::kMark, 1), 0u);
}

TEST(TracerPort, VictimForensics) {
  // The tracer answers the paper's central question directly: under
  // per-port marking, packets of the un-congested queue 0 get marked even
  // though queue 0 holds almost nothing.
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 9;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPerPort;
  cfg.marking.threshold_bytes = 16 * 1500;
  experiments::DumbbellScenario sc(cfg);
  Tracer tracer;
  sc.install_tracer(tracer);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  for (std::size_t i = 1; i <= 8; ++i) {
    sc.add_flow({.sender = i, .service = 1, .bytes = 0, .start = 0});
  }
  sc.run(sim::milliseconds(10));
  EXPECT_GT(tracer.count_queue(PacketEvent::kMark, 0), 0u)
      << "victim queue should be getting (faulty) marks under per-port marking";
}
