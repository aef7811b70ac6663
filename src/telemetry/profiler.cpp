#include "telemetry/profiler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
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
  ++self.intervals;
  ++total.intervals;
  self.nested += frame.children;
  total.nested += frame.descendants;
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
    ++dispatch_wall_.intervals;
    // Every scope inside read the clock twice; the dispatch's end read once.
    dispatch_wall_.nested += (clock_reads_ - dispatch_start_reads_ - 1) / 2;
  }
  untimed_ = false;
  timing_dispatch_ = false;
  untimed_depth_ = 0;
}

// Medians over batches of a private simulator's event chain, each event
// opening an outer scope around one empty scope. As in a run, about one
// dispatch in kSamplePeriod is timed and the kernel runs in between, so the
// timed path is measured with the branch history and caches a run gives
// it: the empty scope's own interval is `own`, and the outer interval less
// its own is `scope`.
Profiler::Overhead Profiler::measure_overhead() {
  constexpr int kBatches = 9;
  constexpr int kDispatches = 128 * static_cast<int>(kSamplePeriod);
  std::array<double, kBatches> own{};
  std::array<double, kBatches> scope{};
  for (int b = 0; b < kBatches; ++b) {
    sim::Simulator simulator;
    Profiler p;
    p.attach(simulator);
    const KindId outer = p.intern("outer");
    const KindId inner = p.intern("inner");
    int left = kDispatches;
    std::function<void()> event = [&] {
      {
        ProfileScope o(&p, outer);
        ProfileScope empty(&p, inner);
      }
      if (--left > 0) simulator.schedule_in(1, event);
    };
    simulator.schedule_at(0, event);
    simulator.run();
    p.detach();
    const Timed& in = p.kinds_[inner].sampled_total;
    const Timed& out = p.kinds_[outer].sampled_total;
    own[b] = static_cast<double>(in.wall_ns) / static_cast<double>(in.intervals);
    scope[b] =
        static_cast<double>(out.wall_ns) / static_cast<double>(out.intervals) - own[b];
  }
  std::nth_element(own.begin(), own.begin() + kBatches / 2, own.end());
  std::nth_element(scope.begin(), scope.begin() + kBatches / 2, scope.end());
  const auto own_ns = static_cast<std::uint64_t>(std::llround(own[kBatches / 2]));
  const auto scope_ns = static_cast<std::uint64_t>(std::llround(scope[kBatches / 2]));
  return {.own = own_ns, .scope = std::max(scope_ns, own_ns)};
}

const Profiler::Overhead& Profiler::overhead() const {
  if (!overhead_) overhead_ = measure_overhead();
  return *overhead_;
}

double Profiler::sample_scale() const {
  return sampled_dispatches_ == 0 ? 1.0
                                  : static_cast<double>(dispatches_) /
                                        static_cast<double>(sampled_dispatches_);
}

double Profiler::corrected(const Timed& part, std::uint64_t per_nested,
                           double scale) const {
  const std::uint64_t cost = part.intervals * overhead().own + part.nested * per_nested;
  return part.wall_ns > cost ? static_cast<double>(part.wall_ns - cost) * scale : 0.0;
}

std::uint64_t Profiler::dispatch_wall_ns() const {
  return static_cast<std::uint64_t>(
      std::llround(corrected(dispatch_wall_, overhead().scope, sample_scale())));
}

std::uint64_t Profiler::total_wall_ns(KindId kind) const {
  const KindStats& k = kinds_.at(kind);
  const std::uint64_t per_nested = overhead().scope;
  return static_cast<std::uint64_t>(
      std::llround(corrected(k.direct_total, per_nested, 1.0) +
                   corrected(k.sampled_total, per_nested, sample_scale())));
}

std::uint64_t Profiler::self_wall_ns(KindId kind) const {
  const KindStats& k = kinds_.at(kind);
  const std::uint64_t per_child = overhead().scope - overhead().own;
  const auto self = static_cast<std::uint64_t>(
      std::llround(corrected(k.direct_self, per_child, 1.0) +
                   corrected(k.sampled_self, per_child, sample_scale())));
  // An overestimated overhead must not push self past total.
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
