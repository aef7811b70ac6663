#include "experiments/leafspine.hpp"

#include <stdexcept>
#include <string>

namespace pmsb::experiments {

LeafSpineScenario::LeafSpineScenario(const LeafSpineConfig& config)
    : Fabric(config, Detail::kSummary), cfg_(config) {
  const std::size_t n_hosts = cfg_.num_leaves * cfg_.hosts_per_leaf;
  if (n_hosts < 2) throw std::invalid_argument("leafspine: need >= 2 hosts");

  for (std::size_t h = 0; h < n_hosts; ++h) add_host("h" + std::to_string(h));
  for (std::size_t l = 0; l < cfg_.num_leaves; ++l) {
    leaves_.push_back(&add_switch("leaf" + std::to_string(l), /*ecmp_salt=*/0x1000 + l));
  }
  for (std::size_t s = 0; s < cfg_.num_spines; ++s) {
    spines_.push_back(&add_switch("spine" + std::to_string(s), /*ecmp_salt=*/0x2000 + s));
  }

  switchlib::PortConfig port_cfg;
  port_cfg.scheduler = cfg_.scheduler;
  port_cfg.marking = cfg_.marking;
  port_cfg.buffer_bytes = cfg_.buffer_bytes;
  port_cfg.buffer_policy = cfg_.buffer_policy;

  auto leaf_of = [this](std::size_t h) { return h / cfg_.hosts_per_leaf; };
  for (std::size_t h = 0; h < n_hosts; ++h) {
    const switchlib::Port& down = attach_host(host(h), *leaves_[leaf_of(h)], port_cfg,
                                              cfg_.link_rate, cfg_.link_rate,
                                              cfg_.link_delay);
    last_hops_.push_back(down.link());
  }

  // Leaf <-> spine wiring and routing.
  const sim::RateBps core_rate = cfg_.core_rate != 0 ? cfg_.core_rate : cfg_.link_rate;
  for (std::size_t l = 0; l < cfg_.num_leaves; ++l) {
    switchlib::Switch& leaf = *leaves_[l];
    for (switchlib::Switch* spine : spines_) {
      const std::size_t up = leaf.add_port(
          &add_link(leaf, *spine, core_rate, cfg_.link_delay), port_cfg);
      const std::size_t down = spine->add_port(
          &add_link(*spine, leaf, core_rate, cfg_.link_delay), port_cfg);
      for (std::size_t h = 0; h < n_hosts; ++h) {
        if (leaf_of(h) != l) {
          // Remote hosts reachable from leaf l via any spine (ECMP set).
          leaf.routing().add_route(static_cast<net::HostId>(h), up);
        } else {
          // Hosts under leaf l reachable from this spine via this downlink.
          spine->routing().add_route(static_cast<net::HostId>(h), down);
        }
      }
    }
  }

  // One shared pool per switch (the shared-memory-chip model), so ports of
  // the same chip compete for buffer while chips stay independent. The
  // planes observe every port.
  std::vector<switchlib::Switch*> switches = leaves_;
  switches.insert(switches.end(), spines_.begin(), spines_.end());
  for (switchlib::Switch* sw : switches) {
    share_buffer(ports_of(*sw), {{"switch", sw->name()}}, sw->name());
    for (std::size_t p = 0; p < sw->num_ports(); ++p) {
      const std::string idx = std::to_string(p);
      observed_.push_back({&sw->port(p), "port/" + sw->name() + "/" + idx,
                           {{"switch", sw->name()}, {"port", idx}},
                           sw->name() + ".p" + idx, sw->name() + "/p" + idx,
                           Detail::kSummary});
    }
  }
  // The first spine's first downlink: a core port every leaf's traffic crosses.
  if (!spines_.empty()) trace_port_ = &spines_.front()->port(0);
  // The classic "broken middlebox in the core" failure the headline bleach
  // experiment studies.
  for (const switchlib::Switch* spine : spines_) bleach_nodes_.push_back(spine->name());
}

LeafSpineScenario::~LeafSpineScenario() = default;

sim::TimeNs LeafSpineScenario::base_rtt_interrack() const {
  // Four links each way (host-leaf-spine-leaf-host); store-and-forward
  // serialization of the data packet at each of the four transmitters, ACK
  // serialization on the way back.
  const sim::TimeNs data_ser =
      sim::serialization_delay(sim::kDefaultMtuBytes, cfg_.link_rate);
  const sim::TimeNs ack_ser = sim::serialization_delay(net::kAckBytes, cfg_.link_rate);
  return 4 * data_ser + 4 * ack_ser + 8 * cfg_.link_delay;
}

}  // namespace pmsb::experiments
