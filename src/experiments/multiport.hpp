// Multi-bottleneck scenario: N senders and M receivers around one switch,
// so several egress ports are simultaneously under study. Used to probe
// cross-port effects: the shared service pool (per-pool marking couples
// ports) and independent-port baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/fabric.hpp"

namespace pmsb::experiments {

/// The receiver ports are under study and share one pool (per-service-pool
/// marking couples them); the sender-facing ports keep static budgets.
struct MultiPortConfig : FabricConfig {
  std::size_t num_senders = 2;
  std::size_t num_receivers = 2;
};

struct MultiPortFlowSpec {
  std::size_t sender = 0;
  std::size_t receiver = 0;
  net::ServiceId service = 0;
  std::uint64_t bytes = 0;  ///< 0 = long-lived
  sim::TimeNs start = 0;
  sim::RateBps max_rate = 0;
  bool pmsbe = false;
  sim::TimeNs pmsbe_rtt_threshold = 0;
};

/// The planes observe every receiver port (kFull) and every flow one by one;
/// spans time the switch -> receiver links.
class MultiPortScenario : public Fabric {
 public:
  explicit MultiPortScenario(const MultiPortConfig& config);
  ~MultiPortScenario();

  std::size_t add_flow(const MultiPortFlowSpec& spec);

  [[nodiscard]] switchlib::Port& receiver_port(std::size_t r) {
    return *receiver_ports_.at(r);
  }

  /// Bytes served from queue q of receiver r's port (monotone).
  [[nodiscard]] std::uint64_t served_bytes(std::size_t r, std::size_t q) const {
    return receiver_ports_.at(r)->scheduler().served_bytes(q);
  }

 private:
  MultiPortConfig cfg_;
  std::vector<switchlib::Port*> receiver_ports_;
};

}  // namespace pmsb::experiments
