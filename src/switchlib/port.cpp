#include "switchlib/port.hpp"

#include <optional>
#include <utility>

namespace pmsb::switchlib {

Port::Port(sim::Simulator& simulator, net::Link* link, const PortConfig& config)
    : sim_(simulator),
      link_(link),
      sched_(sched::make_scheduler(config.scheduler)),
      marking_(ecn::make_marking(config.marking)),
      mark_point_(ecn::effective_mark_point(config.marking)),
      buffer_bytes_(config.buffer_bytes) {
  policy_ = make_buffer_policy(config.buffer_policy);
  stats_.marked_per_queue.assign(sched_->num_queues(), 0);
  if (config.average_occupancy) {
    const sim::RateBps rate = link_->rate();
    for (std::size_t q = 0; q < sched_->num_queues(); ++q) {
      queue_ewma_.emplace_back(config.ewma_weight, rate);
    }
    port_ewma_.emplace_back(config.ewma_weight, rate);
  }
  classifier_ = [n = sched_->num_queues()](const Packet& pkt) {
    return static_cast<std::size_t>(pkt.service) % n;
  };
  // Round-based schedulers feed the marking scheme's T_round estimator.
  sched_->set_round_observer(
      [this](TimeNs now) { marking_->on_round_complete(now); });
}

void Port::update_ewma(std::size_t queue, std::uint64_t in_flight_bytes) {
  if (port_ewma_.empty()) return;
  const TimeNs now = sim_.now();
  // Classic RED idle correction: a sample of zero decays the average by the
  // packets that could have drained since the last observation.
  if (sched_->total_bytes() == 0) port_ewma_[0].observe(0, now);
  if (sched_->queue_bytes(queue) == 0) queue_ewma_[queue].observe(0, now);
  port_ewma_[0].observe(sched_->total_bytes() + in_flight_bytes, now);
  queue_ewma_[queue].observe(sched_->queue_bytes(queue) + in_flight_bytes, now);
}

ecn::PortSnapshot Port::snapshot(std::size_t queue, std::uint64_t extra_port_bytes,
                                 std::uint64_t extra_queue_bytes,
                                 std::size_t extra_packets) const {
  ecn::PortSnapshot snap;
  if (!port_ewma_.empty()) {
    // Averaged mode: the EWMA already folds the packet under judgement in
    // (update_ewma runs after enqueue / before dequeue-removal).
    snap.port_bytes = static_cast<std::uint64_t>(port_ewma_[0].average_bytes());
    snap.queue_bytes = static_cast<std::uint64_t>(queue_ewma_[queue].average_bytes());
  } else {
    snap.port_bytes = sched_->total_bytes() + extra_port_bytes;
    snap.queue_bytes = sched_->queue_bytes(queue) + extra_queue_bytes;
  }
  snap.port_packets = sched_->total_packets() + extra_packets;
  snap.queue_packets = sched_->queue_packets(queue) + extra_packets;
  if (pool_ != nullptr) {
    snap.has_pool = true;
    // The pool charge for the packet under judgement is already reserved at
    // enqueue and not yet released at dequeue, so no extra adjustment.
    snap.pool_bytes = pool_->bytes();
  }
  snap.queue = queue;
  snap.weight = sched_->weight(queue);
  snap.weight_sum = sched_->weight_sum();
  snap.num_queues = sched_->num_queues();
  return snap;
}

void Port::bind_metrics(telemetry::MetricsRegistry& registry,
                        const telemetry::Labels& labels) {
  registry.bind_counter("port.enqueued_packets", labels, &stats_.enqueued_packets,
                        "packets");
  registry.bind_counter("port.dequeued_packets", labels, &stats_.dequeued_packets,
                        "packets");
  registry.bind_counter("port.dropped_packets", labels, &stats_.dropped_packets,
                        "packets");
  registry.bind_counter("port.dropped_bytes", labels, &stats_.dropped_bytes, "bytes");
  registry.bind_counter("port.marked_enqueue", labels, &stats_.marked_enqueue,
                        "packets");
  registry.bind_counter("port.marked_dequeue", labels, &stats_.marked_dequeue,
                        "packets");
  for (std::size_t r = 0; r < kNumDropReasons; ++r) {
    telemetry::Labels l = labels;
    l.emplace_back("reason", drop_reason_name(static_cast<DropReason>(r)));
    registry.bind_counter("port.drops", l, &stats_.dropped_by_reason[r], "packets");
  }
  registry.gauge_fn(
      "port.occupancy_bytes", labels,
      [this] { return static_cast<double>(sched_->total_bytes()); }, "bytes");
  registry.gauge_fn(
      "buffer.admit_threshold_bytes", labels,
      [this] { return static_cast<double>(admission_threshold_bytes()); },
      "bytes");
  registry.gauge_fn(
      "port.occupancy_packets", labels,
      [this] { return static_cast<double>(sched_->total_packets()); }, "packets");
  for (std::size_t q = 0; q < sched_->num_queues(); ++q) {
    telemetry::Labels l = labels;
    l.emplace_back("queue", std::to_string(q));
    registry.bind_counter("port.marks", l, &stats_.marked_per_queue[q], "packets");
    registry.gauge_fn(
        "queue.backlog_bytes", l,
        [this, q] { return static_cast<double>(sched_->queue_bytes(q)); }, "bytes");
    registry.counter_fn(
        "sched.served_bytes", l, [this, q] { return sched_->served_bytes(q); },
        "bytes");
    registry.counter_fn(
        "sched.dequeued_packets", l, [this, q] { return sched_->served_packets(q); },
        "packets");
  }
  marking_->bind_metrics(registry, labels);
}

void Port::set_profiler(telemetry::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler_ == nullptr) return;
  kind_handle_ = profiler_->intern("port.handle");
  kind_transmit_ = profiler_->intern("port.transmit");
  kind_sched_enqueue_ = profiler_->intern("sched." + sched_->name() + ".enqueue");
  kind_sched_dequeue_ = profiler_->intern("sched." + sched_->name() + ".dequeue");
  kind_should_mark_ = profiler_->intern("ecn." + marking_->name() + ".should_mark");
}

void Port::drop(const Packet& pkt, std::size_t queue, DropReason reason) {
  ++stats_.dropped_packets;
  stats_.dropped_bytes += pkt.size_bytes;
  ++stats_.dropped_by_reason[static_cast<std::size_t>(reason)];
  if (observer_ != nullptr) {
    observer_->on_packet(site_, net::PacketEvent::kDrop, pkt, context(queue));
  }
}

void Port::handle(Packet pkt) {
  telemetry::ProfileScope profile(profiler_, kind_handle_);
  const std::size_t q = classifier_(pkt);
  if (const auto refusal = policy_->admit(admission_request(pkt.size_bytes))) {
    drop(pkt, q, *refusal);
    return;
  }
  if (pool_ != nullptr) pool_->charge(pool_slot_, pkt.size_bytes);
  const bool was_empty = sched_->empty();
  marking_->on_port_activity(sim_.now(), was_empty);

  pkt.enqueue_time = sim_.now();
  update_ewma(q, pkt.size_bytes);
  if (mark_point_ == ecn::MarkPoint::kEnqueue && pkt.ect && !pkt.ce) {
    // Snapshot includes the arriving packet (see marking.hpp convention).
    bool mark;
    {
      telemetry::ProfileScope ecn_scope(profiler_, kind_should_mark_);
      mark = marking_->should_mark(snapshot(q, pkt.size_bytes, pkt.size_bytes, 1),
                                   pkt, ecn::MarkPoint::kEnqueue, sim_.now());
    }
    if (mark) {
      pkt.ce = true;
      ++stats_.marked_enqueue;
      ++stats_.marked_per_queue[q];
      if (observer_ != nullptr) {
        observer_->on_packet(site_, net::PacketEvent::kMark, pkt, context(q));
      }
    }
  }
  if (observer_ != nullptr) {
    observer_->on_packet(site_, net::PacketEvent::kEnqueue, pkt, context(q));
  }
  {
    telemetry::ProfileScope sched_scope(profiler_, kind_sched_enqueue_);
    sched_->enqueue(q, std::move(pkt));
  }
  ++stats_.enqueued_packets;
  try_transmit();
}

void Port::try_transmit() {
  if (transmitting_ || sched_->empty()) return;
  telemetry::ProfileScope profile(profiler_, kind_transmit_);
  std::optional<sched::Dequeued> out;
  {
    telemetry::ProfileScope sched_scope(profiler_, kind_sched_dequeue_);
    out = sched_->dequeue(sim_.now());
  }
  if (!out) return;
  ++stats_.dequeued_packets;
  Packet pkt = std::move(out->pkt);
  update_ewma(out->queue, pkt.size_bytes);
  if (mark_point_ == ecn::MarkPoint::kDequeue && pkt.ect && !pkt.ce) {
    // Snapshot includes the departing packet (state before removal).
    bool mark;
    {
      telemetry::ProfileScope ecn_scope(profiler_, kind_should_mark_);
      mark = marking_->should_mark(
          snapshot(out->queue, pkt.size_bytes, pkt.size_bytes, 1), pkt,
          ecn::MarkPoint::kDequeue, sim_.now());
    }
    if (mark) {
      pkt.ce = true;
      ++stats_.marked_dequeue;
      ++stats_.marked_per_queue[out->queue];
      if (observer_ != nullptr) {
        observer_->on_packet(site_, net::PacketEvent::kMark, pkt, context(out->queue));
      }
    }
  }
  if (observer_ != nullptr) {
    observer_->on_packet(site_, net::PacketEvent::kDequeue, pkt, context(out->queue));
  }
  if (pool_ != nullptr) pool_->release(pool_slot_, pkt.size_bytes);
  transmitting_ = true;
  const TimeNs tx_done = link_->transmit(std::move(pkt));
  sim_.schedule_at(tx_done, [this] {
    transmitting_ = false;
    try_transmit();
  });
}

}  // namespace pmsb::switchlib
