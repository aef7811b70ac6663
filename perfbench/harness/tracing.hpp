// Span recording for the traced benchmark run.
//
// Spans are taken from outside the simulator, around calls into its public
// seams: a sim::DispatchHook around every event callback (the kernel
// boundary) and a timing net::Node put in front of every link's destination
// (the switch and host boundaries). Each boundary keeps an in-memory
// aggregate (count, total, self time) plus a bounded raw sample of spans,
// written out when the benchmark ends. Nothing here changes what the
// simulator computes: the interposers forward synchronously and the hook
// forwards to whatever hook was attached before it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median cost of one steady_clock read, in ns, measured at start-up. Span
/// durations include about one read each; the ladder subtracts it.
[[nodiscard]] double calibrate_clock_read_ns();

enum class SpanKind : std::uint8_t {
  kSetupBuild,
  kSetupGenerate,
  kSetupAddWorkload,
  kSetupAttach,
  kDispatch,
  kSwitchReceive,
  kHostReceive,
};
inline constexpr std::size_t kNumSpanKinds = 7;
[[nodiscard]] const char* span_kind_name(SpanKind kind);

struct SpanAggregate {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  ///< total minus time covered by child spans
};

/// One sampled span. `seq` is the span's ordinal among spans of its kind;
/// `parent` is the ordinal of the enclosing dispatch span (receive spans
/// only), -1 when there is none.
struct RawSpan {
  SpanKind kind = SpanKind::kDispatch;
  std::uint64_t seq = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t parent = -1;
};

class SpanRecorder {
 public:
  /// The raw sample keeps every kSampleEvery-th span of each kind, at most
  /// kMaxRaw in total, so memory stays bounded on long runs.
  static constexpr std::uint64_t kSampleEvery = 1024;
  static constexpr std::size_t kMaxRaw = 16384;

  /// Records a span whose interval [start_ns, end_ns) contains `child_ns`
  /// of child spans.
  void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t child_ns, std::int64_t parent);

  [[nodiscard]] const SpanAggregate& aggregate(SpanKind kind) const {
    return agg_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const std::vector<RawSpan>& raw() const { return raw_; }

  /// Writes aggregates and the raw sample as one JSON document.
  void write_json(const std::string& path, std::int64_t origin_ns) const;

 private:
  SpanAggregate agg_[kNumSpanKinds];
  std::vector<RawSpan> raw_;
};

/// Times every event callback. Chains to the hook that was attached before
/// (the profiler on workloads that run one) and restores it on destruction.
/// The previous hook runs inside the timed interval, so observer cost counts
/// as dispatch work, not kernel work.
class TimingHook final : public pmsb::sim::DispatchHook {
 public:
  TimingHook(pmsb::sim::Simulator& simulator, SpanRecorder& recorder);
  ~TimingHook() override;
  TimingHook(const TimingHook&) = delete;
  TimingHook& operator=(const TimingHook&) = delete;

  void begin_dispatch(pmsb::sim::TimeNs now, pmsb::sim::TimeNs delta) override;
  void end_dispatch() override;
  void on_schedule() override;
  void on_cancel() override;

  /// Called by TimingNode: time inside the current dispatch that a child
  /// span already covers.
  void add_child(std::int64_t ns) { child_ns_ += ns; }
  /// Ordinal of the dispatch in progress (parent of any child span).
  [[nodiscard]] std::int64_t current_dispatch() const {
    return static_cast<std::int64_t>(recorder_.aggregate(SpanKind::kDispatch).count);
  }

 private:
  pmsb::sim::Simulator& sim_;
  pmsb::sim::DispatchHook* inner_;
  SpanRecorder& recorder_;
  std::int64_t start_ns_ = 0;
  std::int64_t child_ns_ = 0;
};

/// Interposed between a link and its real destination: times receive().
class TimingNode final : public pmsb::net::Node {
 public:
  TimingNode(pmsb::net::Node& target, SpanKind kind, SpanRecorder& recorder,
             TimingHook& hook)
      : Node(target.name()), target_(target), kind_(kind), recorder_(recorder),
        hook_(hook) {}

  void receive(pmsb::net::Packet pkt) override {
    const std::int64_t t0 = clock_ns();
    target_.receive(std::move(pkt));
    const std::int64_t t1 = clock_ns();
    recorder_.record(kind_, t0, t1, 0, hook_.current_dispatch());
    hook_.add_child(t1 - t0);
  }

 private:
  pmsb::net::Node& target_;
  SpanKind kind_;
  SpanRecorder& recorder_;
  TimingHook& hook_;
};

}  // namespace perfbench
