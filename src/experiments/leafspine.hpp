// Leaf-spine fabric scenario for the large-scale FCT evaluation (§VI.B).
//
// Default shape matches the paper: 4 leaf and 4 spine switches, 12 hosts per
// leaf (48 hosts), all links 10 Gbps, non-blocking, per-flow ECMP across the
// spines. Every switch port runs the scheduler + marking scheme under test
// with 8 service queues of equal weight.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/fabric.hpp"

namespace pmsb::experiments {

/// Every switch port is under study; each leaf and spine gets its own pool
/// spanning all its ports, the shared-memory-chip model.
struct LeafSpineConfig : FabricConfig {
  std::size_t num_leaves = 4;
  std::size_t num_spines = 4;
  std::size_t hosts_per_leaf = 12;
  /// Leaf<->spine link rate; 0 = same as link_rate (non-blocking, the
  /// paper's fabric). Lower it for an oversubscribed core.
  sim::RateBps core_rate = 0;
};

/// Every switch port is observed (kSummary), flows are metered in aggregate,
/// spans time the leaf -> host last hops, and `bleach=` defaults to every
/// spine.
class LeafSpineScenario : public Fabric {
 public:
  explicit LeafSpineScenario(const LeafSpineConfig& config);
  ~LeafSpineScenario();

  [[nodiscard]] switchlib::Switch& leaf(std::size_t idx) { return *leaves_.at(idx); }
  [[nodiscard]] switchlib::Switch& spine(std::size_t idx) { return *spines_.at(idx); }
  [[nodiscard]] std::size_t total_flows() const { return num_flows(); }

  /// The un-loaded RTT between two hosts under different leaves.
  [[nodiscard]] sim::TimeNs base_rtt_interrack() const;

 private:
  LeafSpineConfig cfg_;
  std::vector<switchlib::Switch*> leaves_;
  std::vector<switchlib::Switch*> spines_;
};

}  // namespace pmsb::experiments
