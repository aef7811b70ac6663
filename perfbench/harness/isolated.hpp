// The isolated rung of the ladder: public functions of one layer timed in
// tight loops, with inputs shaped like a workload. Each rung reports the
// median ns per operation over several timed batches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "faults/invariants.hpp"

namespace perfbench {

struct IsolatedShape {
  std::uint64_t seed = 1;
  /// Event-queue depth the kernel rung holds (the traced run's max depth).
  std::size_t queue_depth = 1024;
  /// Arrival mix over the 8 scheduler queues, as flows per queue.
  std::vector<double> flows_per_queue = {1, 1, 1, 1, 1, 1, 1, 1};
};

/// Runs every rung; keys are the per-layer metric names (ns per op, except
/// faults.invariant_check_us). `checker` is the invariant checker installed
/// on a freshly built fabric of the workload.
[[nodiscard]] std::map<std::string, double> run_isolated(
    const IsolatedShape& shape, pmsb::faults::InvariantChecker& checker);

}  // namespace perfbench
