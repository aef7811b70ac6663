#include "telemetry/profiler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "telemetry/run_report.hpp"

namespace pmsb::telemetry {

namespace {

[[nodiscard]] std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64's finalizer: consecutive ordinals map to unrelated words, so
// the timed sample cannot lock onto a periodic event pattern.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Median cost of one clock read over a few batches of back-to-back reads:
// about a millisecond, paid once per profiler when it first reports.
[[nodiscard]] std::int64_t measure_clock_read_ns() {
  constexpr int kBatches = 9;
  constexpr int kReads = 2048;
  std::array<double, kBatches> per_read{};
  for (double& ns : per_read) {
    const std::int64_t t0 = wall_now_ns();
    std::int64_t last = t0;
    for (int i = 0; i < kReads; ++i) last = wall_now_ns();
    ns = static_cast<double>(last - t0) / kReads;
  }
  std::nth_element(per_read.begin(), per_read.begin() + kBatches / 2, per_read.end());
  return std::llround(per_read[kBatches / 2]);
}

// Sim-time deltas between consecutive dispatches span same-timestamp ties
// (0 ns) up to second-scale timers; decade buckets cover that whole range.
[[nodiscard]] std::vector<double> delta_bounds() {
  return {0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
}

}  // namespace

Profiler::Profiler() : sim_delta_ns_(delta_bounds()) {}

Profiler::~Profiler() { detach(); }

Profiler::KindId Profiler::intern(const std::string& name) {
  const auto it = kind_index_.find(name);
  if (it != kind_index_.end()) return it->second;
  const auto id = static_cast<KindId>(kinds_.size());
  kinds_.emplace_back().name = name;
  kind_index_.emplace(name, id);
  return id;
}

void Profiler::attach(sim::Simulator& simulator) {
  detach();
  sim_ = &simulator;
  sim_->set_dispatch_hook(this);
}

void Profiler::detach() {
  if (sim_ != nullptr && sim_->dispatch_hook() == this) {
    sim_->set_dispatch_hook(nullptr);
  }
  sim_ = nullptr;
}

// The clock is read last on the way in and first on the way out, so the
// frame bookkeeping stays outside the timed interval.
void Profiler::begin_timed_scope(KindId kind) {
  ScopeFrame& frame = stack_.emplace_back();
  frame.kind = kind;
  frame.start_ns = read_clock();
}

void Profiler::end_timed_scope() {
  if (stack_.empty()) {
    throw std::logic_error("Profiler::scope_end without matching scope_begin");
  }
  const std::int64_t end_ns = read_clock();
  const ScopeFrame frame = stack_.back();
  stack_.pop_back();
  const auto elapsed = static_cast<std::uint64_t>(end_ns - frame.start_ns);
  KindStats& k = kinds_[frame.kind];
  Timed& self = timing_dispatch_ ? k.sampled_self : k.direct_self;
  Timed& total = timing_dispatch_ ? k.sampled_total : k.direct_total;
  // Self-time excludes whatever nested scopes already claimed; clamp against
  // clock granularity making children appear longer than the parent.
  self.wall_ns += elapsed >= frame.child_ns ? elapsed - frame.child_ns : 0;
  total.wall_ns += elapsed;
  // Each interval holds one read's worth of its own two reads, and both
  // reads of every scope nested in it. The other half of a child's reads
  // lies outside the child but inside the parent, so it comes off the
  // parent's self time.
  self.reads += 1 + frame.children;
  total.reads += 1 + 2 * frame.descendants;
  if (!stack_.empty()) {
    ScopeFrame& parent = stack_.back();
    parent.child_ns += elapsed;
    ++parent.children;
    parent.descendants += 1 + frame.descendants;
  }
}

std::int64_t Profiler::read_clock() {
  ++clock_reads_;
  return wall_now_ns();
}

void Profiler::begin_dispatch(sim::TimeNs /*now*/, sim::TimeNs delta) {
  const std::uint64_t ordinal = dispatches_++;
  sim_delta_ns_.observe(static_cast<double>(delta));
  if (ordinal != 0 && splitmix64(ordinal) % kSamplePeriod != 0) {
    untimed_ = true;
    return;
  }
  ++sampled_dispatches_;
  timing_dispatch_ = true;
  dispatch_start_ns_ = read_clock();
  dispatch_start_reads_ = clock_reads_;
}

void Profiler::end_dispatch() {
  if (timing_dispatch_) {
    const std::int64_t end_ns = read_clock();
    dispatch_wall_.wall_ns += static_cast<std::uint64_t>(end_ns - dispatch_start_ns_);
    // Reads made by the scopes inside, plus one of the dispatch's own two.
    dispatch_wall_.reads += clock_reads_ - dispatch_start_reads_;
  }
  untimed_ = false;
  timing_dispatch_ = false;
  untimed_depth_ = 0;
}

std::uint64_t Profiler::clock_read_ns() const {
  if (clock_read_ns_ < 0) clock_read_ns_ = measure_clock_read_ns();
  return static_cast<std::uint64_t>(clock_read_ns_);
}

double Profiler::sample_scale() const {
  return sampled_dispatches_ == 0 ? 1.0
                                  : static_cast<double>(dispatches_) /
                                        static_cast<double>(sampled_dispatches_);
}

double Profiler::corrected(const Timed& part, double scale) const {
  const std::uint64_t cost = part.reads * clock_read_ns();
  return part.wall_ns > cost ? static_cast<double>(part.wall_ns - cost) * scale : 0.0;
}

std::uint64_t Profiler::dispatch_wall_ns() const {
  return static_cast<std::uint64_t>(std::llround(corrected(dispatch_wall_, sample_scale())));
}

std::uint64_t Profiler::total_wall_ns(KindId kind) const {
  const KindStats& k = kinds_.at(kind);
  return static_cast<std::uint64_t>(std::llround(
      corrected(k.direct_total, 1.0) + corrected(k.sampled_total, sample_scale())));
}

std::uint64_t Profiler::self_wall_ns(KindId kind) const {
  const KindStats& k = kinds_.at(kind);
  const auto self = static_cast<std::uint64_t>(std::llround(
      corrected(k.direct_self, 1.0) + corrected(k.sampled_self, sample_scale())));
  // An overestimated clock cost must not push self past total.
  return std::min(self, total_wall_ns(kind));
}

std::string Profiler::to_json() const {
  // Keys are emitted sorted at every level so the document is a fixed point
  // of telemetry::json round-tripping (json::Value stores objects in a
  // sorted map). Adding a field? Keep it in alphabetical order.
  JsonWriter w;
  w.begin_object();
  w.key("kernel").begin_object();
  w.key("clock_read_ns").value(clock_read_ns());
  w.key("dispatch_wall_ns").value(dispatch_wall_ns());
  w.key("dispatches").value(dispatches_);
  w.key("events_cancelled").value(events_cancelled_);
  w.key("events_scheduled").value(events_scheduled_);
  w.key("max_heap_depth")
      .value(static_cast<std::uint64_t>(sim_ != nullptr ? sim_->max_heap_depth() : 0));
  w.key("overhead_ns_est").value(clock_reads_ * clock_read_ns());
  w.key("packet_ids_allocated")
      .value(sim_ != nullptr ? sim_->packet_ids_allocated() : 0);
  w.key("queue_backend")
      .value(sim_ != nullptr ? sim::queue_backend_name(sim_->queue_backend())
                             : "heap");
  w.key("queue_compactions")
      .value(sim_ != nullptr ? sim_->queue_compactions() : 0);
  w.key("sample_period").value(kSamplePeriod);
  w.key("sampled_dispatches").value(sampled_dispatches_);
  w.key("sim_delta_ns").begin_object();
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < sim_delta_ns_.num_buckets(); ++i) {
    w.begin_object();
    w.key("count").value(sim_delta_ns_.bucket_count(i));
    const double le = sim_delta_ns_.upper_bound(i);
    if (std::isinf(le)) {
      w.key("le").value("inf");
    } else {
      w.key("le").value(static_cast<std::uint64_t>(le));
    }
    w.end_object();
  }
  w.end_array();
  w.key("count").value(sim_delta_ns_.count());
  w.key("sum").value(static_cast<std::uint64_t>(sim_delta_ns_.sum()));
  w.end_object();  // sim_delta_ns
  w.end_object();  // kernel
  w.key("schema").value("pmsb.profile/1");
  w.key("scopes").begin_array();
  // kind_index_ is already sorted by name.
  for (const auto& [name, id] : kind_index_) {
    w.begin_object();
    w.key("count").value(kinds_[id].count);
    w.key("name").value(name);
    w.key("self_wall_ns").value(self_wall_ns(id));
    w.key("total_wall_ns").value(total_wall_ns(id));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool maybe_write_profile_json(const Profiler& profiler) {
  const char* path = std::getenv("PMSB_PROFILE_JSON");
  if (path == nullptr || path[0] == '\0') return false;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error(std::string("cannot write profile JSON: ") + path);
  }
  out << profiler.to_json() << "\n";
  return true;
}

}  // namespace pmsb::telemetry
