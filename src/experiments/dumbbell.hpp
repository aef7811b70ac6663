// Dumbbell scenario: N sender hosts and one receiver host around a single
// switch; the switch->receiver port is the bottleneck under study.
//
// This is the topology of every static-flow experiment in the paper
// (Figs. 1-15): senders are classified into the bottleneck port's queues by
// their flow's service tag, and the port runs the scheduler + marking scheme
// being evaluated. All other ports (ACK return paths) are plain FIFO with
// marking disabled.
#pragma once

#include <cstdint>

#include "experiments/fabric.hpp"

namespace pmsb::experiments {

/// The ports under study are the bottleneck's; every switch port shares the
/// pool, so the reverse (ACK) paths feel the same buffer pressure.
struct DumbbellConfig : FabricConfig {
  std::size_t num_senders = 2;
  /// Rate of the sender->switch links; 0 means same as link_rate. Raising
  /// it makes the switch egress the unambiguous bottleneck even for a
  /// single flow (needed for the paper's Fig. 2 single-flow experiment).
  sim::RateBps sender_uplink_rate = 0;
};

struct DumbbellFlowSpec {
  std::size_t sender = 0;            ///< sender host index [0, num_senders)
  net::ServiceId service = 0;        ///< classifies into a bottleneck queue
  std::uint64_t bytes = 0;           ///< 0 = long-lived
  sim::TimeNs start = 0;
  sim::RateBps max_rate = 0;         ///< 0 = unlimited
  bool pmsbe = false;                ///< enable Algorithm 2 at this sender
  sim::TimeNs pmsbe_rtt_threshold = 0;
};

/// The planes observe the bottleneck port (kFull) and every flow one by one;
/// spans time the switch -> receiver link, and `bleach=` defaults to the
/// switch.
class DumbbellScenario : public Fabric {
 public:
  explicit DumbbellScenario(const DumbbellConfig& config);
  ~DumbbellScenario();

  /// Creates a DCTCP flow per the spec; returns its index.
  std::size_t add_flow(const DumbbellFlowSpec& spec);

  // --- Access for measurements ---
  [[nodiscard]] switchlib::Port& bottleneck() { return *bottleneck_; }
  /// The dumbbell's one switch.
  [[nodiscard]] switchlib::Switch& fabric() { return *switch_; }
  [[nodiscard]] net::Host& sender(std::size_t idx) { return host(idx); }
  [[nodiscard]] net::Host& receiver() { return host(cfg_.num_senders); }

  /// Monotone count of bytes the bottleneck has served from queue q.
  /// `run(until)` can be called repeatedly, so a rate over [t1, t2] is
  /// measured as: run(t1); s1 = served_bytes(q); run(t2); rate = delta/dt.
  [[nodiscard]] std::uint64_t served_bytes(std::size_t q) const {
    return bottleneck_->scheduler().served_bytes(q);
  }

  /// The un-loaded round-trip time sender -> receiver -> sender.
  [[nodiscard]] sim::TimeNs base_rtt() const;

  [[nodiscard]] const DumbbellConfig& config() const { return cfg_; }

 private:
  DumbbellConfig cfg_;
  switchlib::Switch* switch_ = nullptr;
  switchlib::Port* bottleneck_ = nullptr;
};

}  // namespace pmsb::experiments
