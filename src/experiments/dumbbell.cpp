#include "experiments/dumbbell.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

DumbbellScenario::DumbbellScenario(const DumbbellConfig& config)
    : Fabric(config, Detail::kFull), cfg_(config) {
  if (cfg_.num_senders == 0) throw std::invalid_argument("dumbbell: need senders");

  // Hosts: senders are 0..N-1, the receiver is host N.
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    add_host("sender" + std::to_string(i));
  }
  net::Host& receiver = add_host("receiver");
  switch_ = &add_switch("switch");

  // ACK-return / sender-facing ports: FIFO, no marking, ample buffer.
  switchlib::PortConfig plain;
  plain.scheduler.kind = sched::SchedulerKind::kFifo;
  plain.scheduler.num_queues = 1;
  plain.marking.kind = ecn::MarkingKind::kNone;
  plain.buffer_bytes = 4096ull * 1500ull;
  plain.buffer_policy = cfg_.buffer_policy;

  // Bottleneck port: the scheduler + marking under study.
  switchlib::PortConfig bottleneck;
  bottleneck.scheduler = cfg_.scheduler;
  bottleneck.marking = cfg_.marking;
  bottleneck.buffer_bytes = cfg_.buffer_bytes;
  bottleneck.buffer_policy = cfg_.buffer_policy;

  const sim::RateBps uplink_rate =
      cfg_.sender_uplink_rate != 0 ? cfg_.sender_uplink_rate : cfg_.link_rate;
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    attach_host(host(i), *switch_, plain, uplink_rate, cfg_.link_rate, cfg_.link_delay);
  }
  bottleneck_ = &attach_host(receiver, *switch_, bottleneck, cfg_.link_rate,
                             cfg_.link_rate, cfg_.link_delay);

  share_buffer(ports_of(*switch_), {}, "buffer");

  observed_.push_back({bottleneck_, "port/bottleneck", {{"port", "bottleneck"}},
                       "bottleneck", switch_->name(), Detail::kFull});
  last_hops_.push_back(bottleneck_->link());
  trace_port_ = bottleneck_;
  bleach_nodes_ = {switch_->name()};
}

DumbbellScenario::~DumbbellScenario() = default;

std::size_t DumbbellScenario::add_flow(const DumbbellFlowSpec& spec) {
  if (spec.sender >= cfg_.num_senders) throw std::out_of_range("dumbbell: bad sender");
  transport::DctcpConfig tc = cfg_.transport;
  tc.max_rate = spec.max_rate;
  if (spec.pmsbe) {
    tc.pmsbe_enabled = true;
    tc.pmsbe_rtt_threshold = spec.pmsbe_rtt_threshold;
  }
  return Fabric::add_flow({.src = static_cast<net::HostId>(spec.sender),
                           .dst = static_cast<net::HostId>(cfg_.num_senders),
                           .service = spec.service,
                           .bytes = spec.bytes,
                           .start = spec.start},
                          tc);
}

sim::TimeNs DumbbellScenario::base_rtt() const {
  // Data: sender NIC serialize + 2 propagation hops + switch serialize;
  // ACK: the same with a 40 B packet.
  const sim::TimeNs data_ser =
      sim::serialization_delay(sim::kDefaultMtuBytes, cfg_.link_rate);
  const sim::TimeNs ack_ser = sim::serialization_delay(net::kAckBytes, cfg_.link_rate);
  return 2 * data_ser + 2 * ack_ser + 4 * cfg_.link_delay;
}

}  // namespace pmsb::experiments
