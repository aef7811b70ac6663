// Per-event-kind kernel profiler with scoped component timers.
//
// A Profiler answers the question the regress plane's bench numbers cannot:
// WHERE do the events/second go? It plugs into the kernel as a
// sim::DispatchHook (dispatch count, sim-time-delta histogram,
// schedule/cancel churn, dispatch wall time) and into components as named
// RAII scopes (ProfileScope) whose self-time excludes nested scopes, so
// "port.handle" and the "sched.*.dequeue" it calls are attributed separately.
//
// Cost contract (same as net::PacketObserver): everything is OFF
// by default and costs exactly one null check per instrumented call site.
// A component holds a `Profiler*` (nullptr when off) plus KindIds interned
// once at set_profiler() time — the hot path never touches a string.
//
// Sampling. Counts are exact: every dispatch, scheduled/cancelled event,
// sim-time delta and scope is counted. Wall time is sampled: about one
// dispatch in kSamplePeriod is timed, picked by a hash of its ordinal (so a
// periodic event pattern cannot alias with the sample; the first dispatch is
// always timed). Scopes inside a timed dispatch are timed with self/total
// attribution; scopes inside an untimed one only bump their count (inline,
// no clock read); scopes outside any dispatch are always timed. The wall
// fields are estimates: sampled sums scaled by dispatches/sampled_dispatches,
// with what the profiler itself adds to a timed interval (its clock reads
// and frame bookkeeping, calibrated once on first report by timing empty
// scopes) subtracted from it.
//
// Output is a `pmsb.profile/1` JSON document (to_json), spliced verbatim
// into run manifests (`RunManifest::set_profile_json`) and written
// standalone by `profile_json=` / PMSB_PROFILE_JSON. Keys are emitted in
// sorted order at every nesting level, so the document byte-stably
// round-trips through telemetry::json — the property the regression tests
// pin down.
//
// Schema (`pmsb.profile/1`):
//   {
//     "kernel": {
//       "clock_read_ns": C, "dispatch_wall_ns": W, "dispatches": N,
//       "events_cancelled": N, "events_scheduled": N,
//       "max_heap_depth": N, "overhead_ns_est": O, "packet_ids_allocated": N,
//       "queue_backend": "heap"|"calendar", "queue_compactions": N,
//       "sample_period": 64, "sampled_dispatches": n,
//       "sim_delta_ns": {"buckets": [{"count": N, "le": bound|"inf"}, ...],
//                        "count": N, "sum": S}
//     },
//     "schema": "pmsb.profile/1",
//     "scopes": [ {"count": N, "name": "...", "self_wall_ns": S,
//                  "total_wall_ns": T}, ... ]   // sorted by name
//   }
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace pmsb::telemetry {

class Profiler final : public sim::DispatchHook {
 public:
  /// Handle for an interned scope kind; hot paths pass these, never strings.
  using KindId = std::uint32_t;

  /// About one dispatch in this many is timed.
  static constexpr std::uint64_t kSamplePeriod = 64;

  Profiler();
  ~Profiler() override;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Returns the id for `name`, creating it on first use. Call once per
  /// component at wiring time (set_profiler), not on the packet path.
  [[nodiscard]] KindId intern(const std::string& name);

  /// Installs this profiler as `simulator`'s dispatch hook and remembers the
  /// kernel for the heap-depth / packet-id snapshot in to_json(). Detaches
  /// automatically on destruction (the simulator must still be alive then —
  /// declare the profiler after the scenario that owns the kernel).
  void attach(sim::Simulator& simulator);
  void detach();

  // --- Scope timing (driven by ProfileScope) ---
  // Inside an untimed dispatch a scope is a count and a depth: no clock
  // read, no stack frame.
  void scope_begin(KindId kind) {
    ++kinds_[kind].count;
    if (untimed_) {
      ++untimed_depth_;
      return;
    }
    begin_timed_scope(kind);
  }
  void scope_end() {
    if (untimed_depth_ != 0) {
      --untimed_depth_;
      return;
    }
    end_timed_scope();
  }

  // --- sim::DispatchHook ---
  void begin_dispatch(sim::TimeNs now, sim::TimeNs delta) override;
  void end_dispatch() override;
  void on_schedule() override { ++events_scheduled_; }
  void on_cancel() override { ++events_cancelled_; }

  // --- Introspection (tests / report glue) ---
  // Counts are exact; *_wall_ns are estimates (see the header comment).
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }
  [[nodiscard]] std::uint64_t sampled_dispatches() const { return sampled_dispatches_; }
  [[nodiscard]] std::uint64_t dispatch_wall_ns() const;
  [[nodiscard]] std::uint64_t events_scheduled() const { return events_scheduled_; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return events_cancelled_; }
  [[nodiscard]] const Histogram& sim_delta_ns() const { return sim_delta_ns_; }
  [[nodiscard]] std::size_t num_kinds() const { return kinds_.size(); }
  [[nodiscard]] std::uint64_t count(KindId kind) const { return kinds_.at(kind).count; }
  [[nodiscard]] std::uint64_t self_wall_ns(KindId kind) const;
  [[nodiscard]] std::uint64_t total_wall_ns(KindId kind) const;
  [[nodiscard]] const std::string& kind_name(KindId kind) const {
    return kinds_.at(kind).name;
  }
  /// Cost of one clock read on the timed path (an empty scope's own
  /// interval), measured on first use and then fixed.
  [[nodiscard]] std::uint64_t clock_read_ns() const { return overhead().own; }
  /// Clock reads made so far; times clock_read_ns() is the wall time the
  /// profiler itself added to the run.
  [[nodiscard]] std::uint64_t clock_reads() const { return clock_reads_; }

  /// Serializes the `pmsb.profile/1` document (see header comment).
  [[nodiscard]] std::string to_json() const;

 private:
  /// Raw sums over timed intervals, with what timing added to them: each
  /// interval holds its own share of its two clock reads, and each scope
  /// nested in it adds its enter/exit cost.
  struct Timed {
    std::uint64_t wall_ns = 0;
    std::uint64_t intervals = 0;
    std::uint64_t nested = 0;
  };
  /// What timing adds, in ns: `own` to the interval it measures, `scope` per
  /// empty scope to the interval around it (clock reads and frame
  /// bookkeeping). A self time loses `scope - own` per child, because the
  /// child's own interval is already subtracted from it.
  struct Overhead {
    std::uint64_t own = 0;
    std::uint64_t scope = 0;
  };
  struct KindStats {
    std::string name;
    std::uint64_t count = 0;
    // self: elapsed minus nested scopes; total: elapsed including them.
    // Scopes in a timed dispatch are scaled up; scopes outside any dispatch
    // are reported as measured.
    Timed sampled_self, sampled_total;
    Timed direct_self, direct_total;
  };
  struct ScopeFrame {
    KindId kind = 0;
    std::int64_t start_ns = 0;
    std::uint64_t child_ns = 0;     ///< wall-ns consumed by nested scopes
    std::uint64_t children = 0;     ///< directly nested timed scopes
    std::uint64_t descendants = 0;  ///< all nested timed scopes
  };

  // Out of line everywhere, so the calibration times the path real scopes take.
  [[gnu::noinline]] void begin_timed_scope(KindId kind);
  [[gnu::noinline]] void end_timed_scope();
  [[nodiscard]] std::int64_t read_clock();
  /// Times empty scopes in a timed dispatch of a private profiler.
  [[nodiscard]] static Overhead measure_overhead();
  [[nodiscard]] const Overhead& overhead() const;
  /// `part` less its own overhead and `per_nested` per nested scope, scaled
  /// by `scale`.
  [[nodiscard]] double corrected(const Timed& part, std::uint64_t per_nested,
                                 double scale) const;
  [[nodiscard]] double sample_scale() const;

  sim::Simulator* sim_ = nullptr;
  std::vector<KindStats> kinds_;
  std::map<std::string, KindId> kind_index_;
  std::vector<ScopeFrame> stack_;
  bool untimed_ = false;            ///< inside a dispatch that is not timed
  bool timing_dispatch_ = false;    ///< inside a dispatch that is timed
  std::uint32_t untimed_depth_ = 0;  ///< scopes open in the untimed dispatch
  std::uint64_t dispatches_ = 0;
  std::uint64_t sampled_dispatches_ = 0;
  Timed dispatch_wall_;
  std::int64_t dispatch_start_ns_ = 0;
  std::uint64_t dispatch_start_reads_ = 0;
  std::uint64_t clock_reads_ = 0;
  mutable std::optional<Overhead> overhead_;  ///< empty until calibrated
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t events_cancelled_ = 0;
  Histogram sim_delta_ns_;
};

/// RAII scope timer. No-op (a single branch) when `profiler` is null, so
/// instrumented hot paths keep the zero-cost-when-off contract.
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, Profiler::KindId kind) : profiler_(profiler) {
    if (profiler_ != nullptr) profiler_->scope_begin(kind);
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) profiler_->scope_end();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
};

/// When the PMSB_PROFILE_JSON environment variable names a path, writes
/// profiler.to_json() there and returns true (the bench counterpart of
/// regress::maybe_write_bench_json). Returns false when unset or empty.
bool maybe_write_profile_json(const Profiler& profiler);

}  // namespace pmsb::telemetry
