#include "isolated.hpp"

#include <algorithm>
#include <random>
#include <vector>

#include "ecn/factory.hpp"
#include "experiments/presets.hpp"
#include "net/link.hpp"
#include "regress/digest.hpp"
#include "sched/factory.hpp"
#include "sim/simulator.hpp"
#include "switchlib/buffer_policy.hpp"
#include "switchlib/buffer_pool.hpp"
#include "switchlib/port.hpp"
#include "telemetry/profiler.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace {

namespace sim = pmsb::sim;
using pmsb::net::Packet;

constexpr int kBatches = 9;
constexpr std::size_t kPattern = 4096;  // precomputed inputs, cycled

template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median over kBatches of (ns one batch reports) / ops, after one untimed
/// warm-up batch. `batch` runs `ops` operations and returns the ns it
/// spent on the part being measured.
template <typename F>
double median_ns_per_op(std::size_t ops, F&& batch) {
  batch(ops);
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    per_op.push_back(static_cast<double>(batch(ops)) / static_cast<double>(ops));
  }
  std::nth_element(per_op.begin(), per_op.begin() + kBatches / 2, per_op.end());
  return per_op[kBatches / 2];
}

/// Whole-batch timing for rungs where every operation is measured.
template <typename F>
double median_ns_per_op_timed(std::size_t ops, F&& body) {
  return median_ns_per_op(ops, [&body](std::size_t n) {
    const std::int64_t t0 = clock_ns();
    body(n);
    return clock_ns() - t0;
  });
}

class SinkNode final : public pmsb::net::Node {
 public:
  SinkNode() : Node("sink") {}
  void receive(Packet pkt) override { bytes_ += pkt.size_bytes; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
};

/// Queue index per arrival, drawn with probability proportional to the
/// flows on each queue.
std::vector<std::size_t> arrival_queues(const IsolatedShape& shape, std::mt19937_64& rng) {
  std::discrete_distribution<std::size_t> pick(shape.flows_per_queue.begin(),
                                               shape.flows_per_queue.end());
  std::vector<std::size_t> out(kPattern);
  for (auto& q : out) q = pick(rng);
  return out;
}

pmsb::ecn::MarkingConfig pmsb_marking(std::size_t queues) {
  pmsb::experiments::SchemeParams params;
  params.rtt = sim::microseconds_f(18.0);
  params.weights.assign(queues, 1.0);
  return pmsb::experiments::make_scheme_marking(pmsb::experiments::Scheme::kPmsb, params);
}

pmsb::sched::SchedulerConfig dwrr(std::size_t queues) {
  pmsb::sched::SchedulerConfig cfg;
  cfg.kind = pmsb::sched::SchedulerKind::kDwrr;
  cfg.num_queues = queues;
  cfg.weights.assign(queues, 1.0);
  return cfg;
}

Packet data_packet(std::uint64_t id, std::size_t queue) {
  Packet pkt;
  pkt.id = id;
  pkt.flow_id = queue + 1;
  pkt.service = static_cast<pmsb::net::ServiceId>(queue);
  pkt.size_bytes = sim::kDefaultMtuBytes;
  return pkt;
}

/// Hold model: a queue of `depth` pending events; each op schedules one
/// event a random gap ahead and pops the earliest, so depth stays fixed.
double schedule_pop_ns(const IsolatedShape& shape, std::mt19937_64& rng) {
  const std::size_t depth = std::max<std::size_t>(shape.queue_depth, 1);
  const sim::TimeNs horizon = static_cast<sim::TimeNs>(depth) * 1000;
  std::uniform_int_distribution<sim::TimeNs> gap(1, 2 * horizon);
  std::vector<sim::TimeNs> gaps(kPattern);
  for (auto& g : gaps) g = gap(rng);
  sim::Simulator simulator;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    simulator.schedule_at(gaps[i % kPattern], [&fired] { ++fired; });
  }
  std::size_t k = 0;
  const double ns = median_ns_per_op_timed(200'000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++k) {
      simulator.schedule_at(simulator.now() + gaps[k % kPattern], [&fired] { ++fired; });
      simulator.step();
    }
  });
  keep(fired);
  return ns;
}

/// DWRR with a per-queue backlog proportional to its flows; each op
/// dequeues one packet and refills the served queue (ACK clocking).
double dwrr_pair_ns(const IsolatedShape& shape) {
  const std::size_t queues = shape.flows_per_queue.size();
  auto sched = pmsb::sched::make_scheduler(dwrr(queues));
  std::uint64_t id = 0;
  for (std::size_t q = 0; q < queues; ++q) {
    const auto backlog = static_cast<std::size_t>(4 * shape.flows_per_queue[q]);
    for (std::size_t i = 0; i < backlog; ++i) sched->enqueue(q, data_packet(++id, q));
  }
  sim::TimeNs now = 0;
  std::uint64_t served = 0;
  const double ns = median_ns_per_op_timed(200'000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      now += 1200;
      auto out = sched->dequeue(now);
      served += out->pkt.size_bytes;
      sched->enqueue(out->queue, data_packet(++id, out->queue));
    }
  });
  keep(served);
  return ns;
}

double pmsb_should_mark_ns(const IsolatedShape& shape, std::mt19937_64& rng) {
  const std::size_t queues = shape.flows_per_queue.size();
  const pmsb::ecn::MarkingConfig cfg = pmsb_marking(queues);
  auto marking = pmsb::ecn::make_marking(cfg);
  const std::vector<std::size_t> arrivals = arrival_queues(shape, rng);
  std::uniform_int_distribution<std::uint64_t> port_bytes(0, 2 * cfg.threshold_bytes);
  std::vector<pmsb::ecn::PortSnapshot> snaps(kPattern);
  for (std::size_t i = 0; i < kPattern; ++i) {
    auto& s = snaps[i];
    s.port_bytes = port_bytes(rng);
    s.queue = arrivals[i];
    s.queue_bytes = s.port_bytes * static_cast<std::uint64_t>(shape.flows_per_queue[s.queue]) /
                    16;
    s.port_packets = s.port_bytes / sim::kDefaultMtuBytes;
    s.queue_packets = s.queue_bytes / sim::kDefaultMtuBytes;
    s.weight = 1.0;
    s.weight_sum = static_cast<double>(queues);
    s.num_queues = queues;
  }
  const Packet pkt = data_packet(1, 0);
  sim::TimeNs now = 0;
  std::uint64_t marks = 0;
  std::size_t k = 0;
  const double ns = median_ns_per_op_timed(500'000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++k) {
      now += 1200;
      if (k % queues == 0) marking->on_round_complete(now);
      marks += marking->should_mark(snaps[k % kPattern], pkt,
                                    pmsb::ecn::MarkPoint::kEnqueue, now);
    }
  });
  keep(marks);
  return ns;
}

/// Port::handle (classify, admit, mark, enqueue, kick transmit) into a sink
/// link, in bursts of 32 arrivals; only the handle calls are timed, the
/// drain between bursts is not.
double port_handle_ns(const IsolatedShape& shape, std::mt19937_64& rng) {
  const std::size_t queues = shape.flows_per_queue.size();
  sim::Simulator simulator;
  SinkNode sink;
  pmsb::net::Link link(simulator, sim::gbps(10), sim::microseconds(2), &sink);
  pmsb::switchlib::PortConfig cfg;
  cfg.scheduler = dwrr(queues);
  cfg.marking = pmsb_marking(queues);
  cfg.buffer_bytes = 1024ull * 1500ull;
  pmsb::switchlib::Port port(simulator, &link, cfg);
  const std::vector<std::size_t> arrivals = arrival_queues(shape, rng);
  constexpr std::size_t kBurst = 32;
  std::uint64_t id = 0;
  const double ns = median_ns_per_op(64 * kBurst * 32, [&](std::size_t n) {
    std::int64_t timed = 0;
    for (std::size_t done = 0; done < n; done += kBurst) {
      const std::int64_t t0 = clock_ns();
      for (std::size_t j = 0; j < kBurst; ++j, ++id) {
        port.handle(data_packet(id, arrivals[id % kPattern]));
      }
      timed += clock_ns() - t0;
      simulator.run();
    }
    return timed;
  });
  keep(sink.bytes());
  return ns;
}

/// Dynamic Thresholds admission against a half-full 2.4 MB shared pool.
double buffer_admit_dt_ns(std::mt19937_64& rng) {
  pmsb::switchlib::BufferPool pool(2'400'000);
  for (int slot = 0; slot < 10; ++slot) pool.charge(pool.register_slot(), 120'000);
  pmsb::switchlib::BufferPolicyConfig cfg;
  cfg.kind = pmsb::switchlib::BufferPolicyKind::kDynamicThresholds;
  cfg.dt_alpha = 1.0;
  const auto policy = pmsb::switchlib::make_buffer_policy(cfg);
  std::uniform_int_distribution<std::uint64_t> port_bytes(0, 3 * pool.free_bytes() / 2);
  std::vector<pmsb::switchlib::AdmissionRequest> reqs(kPattern);
  for (auto& r : reqs) {
    r = {.packet_bytes = sim::kDefaultMtuBytes,
         .port_bytes = port_bytes(rng),
         .port_budget = 2048ull * 1500ull,
         .pool = &pool};
  }
  std::uint64_t refused = 0;
  std::size_t k = 0;
  const double ns = median_ns_per_op_timed(1'000'000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++k) {
      refused += policy->admit(reqs[k % kPattern]).has_value();
    }
  });
  keep(refused);
  return ns;
}

/// One link hop: Link::transmit, the delivery event, and the hand-off to
/// the destination node.
double link_hop_ns() {
  sim::Simulator simulator;
  SinkNode sink;
  pmsb::net::Link link(simulator, sim::gbps(10), sim::microseconds(9), &sink);
  std::uint64_t id = 0;
  const double ns = median_ns_per_op_timed(200'000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      link.transmit(data_packet(++id, 0));
      simulator.run();
    }
  });
  keep(sink.bytes());
  return ns;
}

double invariant_check_us(pmsb::faults::InvariantChecker& checker) {
  return median_ns_per_op_timed(64, [&](std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) checker.check_now();
         }) /
         1000.0;
}

double digest_event_ns() {
  pmsb::regress::RunDigest digest;
  const pmsb::regress::EntityId entity = digest.register_entity("port/bench");
  std::uint64_t k = 0;
  const double ns = median_ns_per_op_timed(100'000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++k) {
      digest.event(entity, pmsb::regress::EventKind::kEnqueue,
                   static_cast<std::int64_t>(k * 1200), k, 1500 | (k & 7) << 48);
    }
  });
  keep(digest.total().hex());
  return ns;
}

double profiler_dispatch_ns() {
  pmsb::telemetry::Profiler profiler;
  sim::TimeNs now = 0;
  const double ns = median_ns_per_op_timed(500'000, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      now += 1200;
      profiler.begin_dispatch(now, 1200);
      profiler.end_dispatch();
    }
  });
  keep(profiler.dispatches());
  return ns;
}

}  // namespace

std::map<std::string, double> run_isolated(const IsolatedShape& shape,
                                           pmsb::faults::InvariantChecker& checker) {
  std::mt19937_64 rng(shape.seed);
  std::map<std::string, double> out;
  out["sim.schedule_pop_ns"] = schedule_pop_ns(shape, rng);
  out["sched.dwrr.enqueue_dequeue_ns"] = dwrr_pair_ns(shape);
  out["ecn.pmsb.should_mark_ns"] = pmsb_should_mark_ns(shape, rng);
  out["switchlib.port_handle_ns"] = port_handle_ns(shape, rng);
  out["switchlib.buffer_admit_dt_ns"] = buffer_admit_dt_ns(rng);
  out["net.link_hop_ns"] = link_hop_ns();
  out["faults.invariant_check_us"] = invariant_check_us(checker);
  out["regress.digest_event_ns"] = digest_event_ns();
  out["telemetry.profiler_dispatch_ns"] = profiler_dispatch_ns();
  return out;
}

}  // namespace perfbench
