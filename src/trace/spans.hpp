// Causal packet-lifecycle spans for sampled flows.
//
// The port Tracer answers "what happened at this port"; a SpanTracer
// answers "what happened to THIS packet" across components: the sender
// stamps kSend, the switch port stamps kEnqueue/kMark/kDrop/kDequeue, the
// link stamps kLinkTx (serialization done) and kRx (delivery), and the
// sender's ack path stamps kAck (the net::PacketEvent vocabulary). Ordering
// the spans of one flow by time and charging each gap to the phase that
// OPENED it decomposes the flow's FCT exactly into sender/queueing/
// serialization/propagation/receiver/loss-recovery time — the per-packet
// evidence trail behind the paper's marking-decision claims (see
// trace/analysis.hpp for the arithmetic).
//
// Capture is opt-in per flow (`trace_flows=` in pmsbsim → watch_flow()).
// Components do not know this class: they report net::PacketEvents to
// their observer, and experiments::PacketPlanes turns the events of watched
// flows into SpanRecords. Node names are interned once at wiring time; the
// hot path records integer ids only.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_observer.hpp"
#include "sim/time.hpp"

namespace pmsb::trace {

/// Interned node-name handle (SpanTracer::intern_node).
using NodeId = std::uint32_t;

inline constexpr NodeId kNoNode = 0xffffffff;

struct SpanRecord {
  sim::TimeNs time = 0;
  net::PacketEvent phase = net::PacketEvent::kSend;
  std::uint64_t packet = 0;
  net::FlowId flow = 0;
  NodeId node = kNoNode;      ///< where it happened (kNoNode = n/a)
  std::size_t queue = 0;      ///< service queue (ports only)
  std::uint64_t seq = 0;      ///< transport sequence / ack number
  std::uint32_t size_bytes = 0;
  bool marked = false;        ///< CE on the wire / ECE on the ack
  bool retransmit = false;    ///< kSend only: this is a retransmission

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// Bounded collector of SpanRecords with the Tracer's overflow semantics:
/// kDropNewest keeps the head and counts the rest, kRingBuffer keeps the
/// tail. Default capacity is generous because spans are per-sampled-flow,
/// not per-port.
class SpanTracer {
 public:
  /// What to do with a new span once `capacity` is reached.
  enum class OverflowPolicy : std::uint8_t { kDropNewest, kRingBuffer };

  explicit SpanTracer(std::size_t capacity = 1'000'000,
                      OverflowPolicy policy = OverflowPolicy::kDropNewest)
      : capacity_(capacity), policy_(policy) {}

  /// Adds `flow` to the sampled set. Only watched flows are recorded.
  void watch_flow(net::FlowId flow) { watched_.insert(flow); }
  /// Captures every flow (tests / tiny runs).
  void watch_all() { watch_all_ = true; }
  /// One hash lookup; instrumented components call this before building a
  /// record so unwatched flows pay nothing beyond the null check.
  [[nodiscard]] bool wants(net::FlowId flow) const {
    return watch_all_ || watched_.count(flow) != 0;
  }

  /// Interns `name` (wiring time, not packet path) and returns its id.
  [[nodiscard]] NodeId intern_node(const std::string& name);

  void record(const SpanRecord& span) {
    if (!wants(span.flow)) return;
    if (records_.size() < capacity_) {
      records_.push_back(span);
      return;
    }
    if (policy_ == OverflowPolicy::kDropNewest || capacity_ == 0) {
      ++overflow_;
      return;
    }
    ++overflow_;
    records_[write_] = span;
    write_ = (write_ + 1) % capacity_;
  }

  /// Raw storage; NOT chronological after a ring wrap. Use
  /// for_each_chronological() or write_ndjson() for ordered access.
  [[nodiscard]] const std::vector<SpanRecord>& records() const { return records_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  void for_each_chronological(
      const std::function<void(const SpanRecord&)>& fn) const {
    for (std::size_t i = write_; i < records_.size(); ++i) fn(records_[i]);
    for (std::size_t i = 0; i < write_; ++i) fn(records_[i]);
  }

  /// NDJSON dump (chronological), one object per span with keys
  /// t_ns, phase, packet, flow, node (escaped name or ""), queue, seq,
  /// size_bytes, marked, retransmit. Read back by
  /// trace::read_spans_ndjson().
  void write_ndjson(const std::string& path) const;

 private:
  std::size_t capacity_;
  OverflowPolicy policy_;
  bool watch_all_ = false;
  std::unordered_set<net::FlowId> watched_;
  std::vector<std::string> nodes_;
  std::vector<SpanRecord> records_;
  std::size_t write_ = 0;  ///< ring mode: index of the oldest span
  std::uint64_t overflow_ = 0;
};

}  // namespace pmsb::trace
