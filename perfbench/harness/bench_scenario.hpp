// A benchmark-owned copy of one sweep::run_scenario run.
//
// run_scenario builds, runs and reports a scenario in one call, so the
// benchmark cannot time its phases or attach interposers through it. This
// class makes the same public calls in the same order: scenario
// constructor, workload generator, add_workload, digest, invariant checker,
// profiler, stability sampler; then the same event loop and the same final
// invariant pass. Each phase is a separate call so the caller can time it.
// The traced run checks that its outcome equals run_scenario's record
// exactly, which is what keeps this copy honest.
//
// The settings every workload shares (PMSB marking, DWRR, 8 queues, the
// default event queue, link delays and tick periods) are constants here, as
// run_scenario's defaults give them. check_keys() rejects any other option
// key, so a workload cannot silently diverge from run_scenario.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiments/options.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// What the ladder needs to know about one finished run.
struct Outcome {
  /// Results under the names run_scenario's record uses, for the keys both
  /// compute (events, marks, drops, FCT summaries, throughput, RTT, ...).
  std::map<std::string, double> results;
  std::string digest;  ///< run digest hex; empty when the digest is off
  std::uint64_t digest_events = 0;
  /// Switch-port totals over every port of the fabric.
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t marked = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  /// Flows whose FCT is below size/line-rate + unloaded path RTT (must be 0).
  std::uint64_t fct_below_bound = 0;
  std::uint64_t fct_checked = 0;
};

class BenchScenario {
 public:
  /// Setup phases, in the order run_scenario performs them. build() runs
  /// the constructor; generate() the workload generator; add_workload()
  /// hands the flows to the fabric; attach() installs digest, invariants,
  /// profiler and sampler. After attach() the scenario is ready for its
  /// first event.
  static std::unique_ptr<BenchScenario> create(const pmsb::experiments::Options& opts);
  virtual ~BenchScenario() = default;

  virtual void build() = 0;
  virtual void generate() = 0;
  virtual void add_workload() = 0;
  virtual void attach() = 0;

  /// The event loop exactly as run_scenario drives it.
  virtual void run() = 0;
  /// Final invariant pass and results; call once, after run().
  [[nodiscard]] virtual Outcome finish() = 0;

  /// The generated workload's size: each flow's payload bytes times the
  /// links its path crosses, summed. 0 for long-lived flows.
  [[nodiscard]] virtual std::uint64_t offered_link_bytes() const = 0;
  [[nodiscard]] virtual pmsb::sim::Simulator& simulator() = 0;
  [[nodiscard]] virtual const std::vector<pmsb::faults::LinkRef>& link_refs() const = 0;
  /// The invariant checker attach() installed.
  [[nodiscard]] virtual pmsb::faults::InvariantChecker& checker() = 0;
  /// True for switch nodes, false for hosts (link destinations only).
  [[nodiscard]] virtual bool is_switch(const pmsb::net::Node* node) const = 0;
};

/// Throws std::invalid_argument on an unknown topology or an option key the
/// copy does not read on that topology. create() calls it too.
void check_keys(const pmsb::experiments::Options& opts);

}  // namespace perfbench
