#include "experiments/multiport.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

MultiPortScenario::MultiPortScenario(const MultiPortConfig& config)
    : Fabric(config, Detail::kFull), cfg_(config) {
  if (cfg_.num_senders == 0 || cfg_.num_receivers == 0) {
    throw std::invalid_argument("multiport: need senders and receivers");
  }
  // Host ids: senders 0..S-1, receivers S..S+R-1.
  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    add_host("sender" + std::to_string(i));
  }
  for (std::size_t r = 0; r < cfg_.num_receivers; ++r) {
    add_host("receiver" + std::to_string(r));
  }
  switchlib::Switch& sw = add_switch("switch");

  switchlib::PortConfig plain;
  plain.scheduler.kind = sched::SchedulerKind::kFifo;
  plain.scheduler.num_queues = 1;
  plain.marking.kind = ecn::MarkingKind::kNone;
  plain.buffer_bytes = 4096ull * 1500ull;

  switchlib::PortConfig bottleneck;
  bottleneck.scheduler = cfg_.scheduler;
  bottleneck.marking = cfg_.marking;
  bottleneck.buffer_bytes = cfg_.buffer_bytes;
  bottleneck.buffer_policy = cfg_.buffer_policy;

  for (std::size_t i = 0; i < cfg_.num_senders; ++i) {
    attach_host(host(i), sw, plain, cfg_.link_rate, cfg_.link_rate, cfg_.link_delay);
  }
  for (std::size_t r = 0; r < cfg_.num_receivers; ++r) {
    switchlib::Port& port = attach_host(host(cfg_.num_senders + r), sw, bottleneck,
                                        cfg_.link_rate, cfg_.link_rate, cfg_.link_delay);
    receiver_ports_.push_back(&port);
    const std::string name = "receiver" + std::to_string(r);
    observed_.push_back({&port, "port/" + name, {{"port", name}}, name,
                         sw.name() + "/p" + std::to_string(cfg_.num_senders + r),
                         Detail::kFull});
    last_hops_.push_back(port.link());
  }
  share_buffer(receiver_ports_, {}, "buffer");
  trace_port_ = receiver_ports_.front();
  bleach_nodes_ = {sw.name()};
}

MultiPortScenario::~MultiPortScenario() = default;

std::size_t MultiPortScenario::add_flow(const MultiPortFlowSpec& spec) {
  if (spec.sender >= cfg_.num_senders) throw std::out_of_range("multiport: bad sender");
  if (spec.receiver >= cfg_.num_receivers) {
    throw std::out_of_range("multiport: bad receiver");
  }
  transport::DctcpConfig tc = cfg_.transport;
  tc.max_rate = spec.max_rate;
  if (spec.pmsbe) {
    tc.pmsbe_enabled = true;
    tc.pmsbe_rtt_threshold = spec.pmsbe_rtt_threshold;
  }
  return Fabric::add_flow(
      {.src = static_cast<net::HostId>(spec.sender),
       .dst = static_cast<net::HostId>(cfg_.num_senders + spec.receiver),
       .service = spec.service,
       .bytes = spec.bytes,
       .start = spec.start},
      tc);
}

}  // namespace pmsb::experiments
