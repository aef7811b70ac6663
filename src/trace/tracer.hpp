// Structured per-packet event tracing for switch ports.
//
// A Tracer captures one port's enqueue / dequeue / mark / drop events with
// timestamps and buffer state (Fabric::install_tracer attaches it to the
// fabric's trace port). Intended for debugging marking
// behaviour and for fine-grained analysis (e.g. "which queue's packets were
// marked while the port was over threshold" — the victim question at the
// heart of the paper). Bounded capacity so a forgotten tracer cannot eat
// the heap; on overflow the tracer either drops new records (kDropNewest,
// the default) or overwrites the oldest (kRingBuffer — post-mortems want
// the tail, not the head). Either way `overflow()` counts what was lost.
//
// Event counts are maintained incrementally on record, so `count()` /
// `count_queue()` are O(1) regardless of capture size.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_observer.hpp"
#include "sim/time.hpp"

namespace pmsb::trace {

struct Record {
  sim::TimeNs time = 0;
  net::PacketEvent kind = net::PacketEvent::kEnqueue;
  std::uint64_t packet = 0;
  net::FlowId flow = 0;
  std::size_t queue = 0;
  std::uint64_t port_bytes = 0;  ///< port occupancy at the event

  friend bool operator==(const Record&, const Record&) = default;
};

/// What to do with a new record once `capacity` is reached.
enum class OverflowPolicy : std::uint8_t {
  kDropNewest,  ///< keep the first N records, count the rest as overflow
  kRingBuffer,  ///< keep the LAST N records, overwriting the oldest
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1'000'000,
                  OverflowPolicy policy = OverflowPolicy::kDropNewest)
      : capacity_(capacity), policy_(policy) {}

  /// Restrict capture to one flow (0 = capture everything).
  void set_flow_filter(net::FlowId flow) { flow_filter_ = flow; }

  void record(const Record& rec) {
    if (flow_filter_ != 0 && rec.flow != flow_filter_) return;
    if (records_.size() < capacity_) {
      records_.push_back(rec);
      bump(rec, +1);
      return;
    }
    if (policy_ == OverflowPolicy::kDropNewest || capacity_ == 0) {
      ++overflow_;
      return;
    }
    // Ring mode: evict the oldest record in place.
    bump(records_[write_], -1);
    ++overflow_;
    records_[write_] = rec;
    bump(rec, +1);
    write_ = (write_ + 1) % capacity_;
  }

  /// Raw storage. In ring mode after wrap-around this is NOT chronological;
  /// use for_each_chronological() or the exporters for ordered access.
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  /// Records lost (kDropNewest) or evicted (kRingBuffer).
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }

  /// Visits the retained records oldest-first.
  void for_each_chronological(const std::function<void(const Record&)>& fn) const {
    for (std::size_t i = write_; i < records_.size(); ++i) fn(records_[i]);
    for (std::size_t i = 0; i < write_; ++i) fn(records_[i]);
  }

  /// O(1): retained events of `kind` (maintained incrementally).
  [[nodiscard]] std::size_t count(net::PacketEvent kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

  /// O(1): retained events of `kind` charged to queue `q`.
  [[nodiscard]] std::size_t count_queue(net::PacketEvent kind, std::size_t q) const {
    if (q >= queue_counts_.size()) return 0;
    return queue_counts_[q][static_cast<std::size_t>(kind)];
  }

  void clear() {
    records_.clear();
    overflow_ = 0;
    write_ = 0;
    counts_.fill(0);
    queue_counts_.clear();
  }

  /// CSV dump (chronological): time_us, event, packet, flow, queue, port_bytes.
  void write_csv(const std::string& path) const;

  /// NDJSON dump (chronological): one JSON object per line with keys
  /// t_us, event, packet, flow, queue, port_bytes.
  void write_ndjson(const std::string& path) const;

 private:
  void bump(const Record& rec, int delta) {
    const auto k = static_cast<std::size_t>(rec.kind);
    counts_[k] += static_cast<std::size_t>(delta);
    if (rec.queue >= queue_counts_.size()) queue_counts_.resize(rec.queue + 1);
    queue_counts_[rec.queue][k] += static_cast<std::size_t>(delta);
  }

  std::size_t capacity_;
  OverflowPolicy policy_;
  net::FlowId flow_filter_ = 0;
  std::vector<Record> records_;
  std::size_t write_ = 0;  ///< ring mode: index of the oldest record
  std::uint64_t overflow_ = 0;
  std::array<std::size_t, net::kNumPacketEvents> counts_{};
  std::vector<std::array<std::size_t, net::kNumPacketEvents>> queue_counts_;
};

}  // namespace pmsb::trace
