// Offline analysis over the trace plane's artifacts: span NDJSON
// (SpanTracer::write_ndjson), port-event NDJSON (Tracer::write_ndjson) and
// pmsb.profile/1 JSON (telemetry::Profiler::to_json). tools/pmsbtrace is a
// thin CLI over these functions; tests drive them directly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/spans.hpp"

namespace pmsb::trace {

/// A span read back from NDJSON — SpanRecord with the node name resolved.
struct Span {
  sim::TimeNs time = 0;
  net::PacketEvent phase = net::PacketEvent::kSend;
  std::uint64_t packet = 0;
  net::FlowId flow = 0;
  std::string node;
  std::size_t queue = 0;
  std::uint64_t seq = 0;
  std::uint32_t size_bytes = 0;
  bool marked = false;
  bool retransmit = false;
};

/// Parses a SpanTracer NDJSON file. Throws std::runtime_error on I/O or
/// malformed lines (blank lines are skipped).
[[nodiscard]] std::vector<Span> read_spans_ndjson(const std::string& path);
/// Same, over an in-memory NDJSON text (tests).
[[nodiscard]] std::vector<Span> parse_spans_ndjson(const std::string& text,
                                                   const std::string& origin);

/// Maps a phase to the FCT component the interval it OPENS is charged to:
/// kSend/kAck -> "sender", kEnqueue/kMark -> "queueing",
/// kDequeue -> "serialization", kLinkTx -> "propagation", kRx -> "receiver",
/// kDrop -> "loss_recovery".
[[nodiscard]] const char* span_phase_component(net::PacketEvent phase);

/// One flow's FCT decomposed over its span timeline. Spans are sorted by
/// (time, file order); the gap between consecutive spans is charged to the
/// component of the EARLIER span (a telescoping sum), so
///   sum(by_component) == end_ns - start_ns
/// exactly — when the first span is the flow's initial kSend and the last
/// is its final kAck, that difference IS the flow completion time.
struct FlowBreakdown {
  net::FlowId flow = 0;
  std::size_t num_spans = 0;
  sim::TimeNs start_ns = 0;
  sim::TimeNs end_ns = 0;
  std::map<std::string, sim::TimeNs> by_component;
  std::size_t packets = 0;      ///< distinct packet ids seen
  std::size_t marks = 0;        ///< kMark spans
  std::size_t drops = 0;        ///< kDrop spans
  std::size_t retransmits = 0;  ///< kSend spans flagged retransmit
  std::vector<Span> timeline;   ///< the flow's spans, sorted
};

/// Decomposes `flow`'s spans (throws if the file holds none for it).
[[nodiscard]] FlowBreakdown analyze_flow(const std::vector<Span>& spans,
                                         net::FlowId flow);
/// Flow ids present in `spans`, ascending.
[[nodiscard]] std::vector<net::FlowId> flows_in(const std::vector<Span>& spans);

/// A port event read back from Tracer NDJSON (t_us, event, packet, flow,
/// queue, port_bytes).
struct PortEvent {
  double t_us = 0.0;
  std::string event;  ///< enqueue | dequeue | mark | drop
  std::uint64_t packet = 0;
  net::FlowId flow = 0;
  std::size_t queue = 0;
  std::uint64_t port_bytes = 0;
};

[[nodiscard]] std::vector<PortEvent> read_trace_ndjson(const std::string& path);
[[nodiscard]] std::vector<PortEvent> parse_trace_ndjson(const std::string& text,
                                                        const std::string& origin);

/// Port-level aggregates over a Tracer capture.
struct PortReport {
  double duration_us = 0.0;  ///< first event to last event
  std::map<std::string, std::size_t> event_counts;
  /// Time-weighted port occupancy (bytes): each event's port_bytes held
  /// until the next event.
  double occupancy_p50 = 0.0;
  double occupancy_p90 = 0.0;
  double occupancy_p99 = 0.0;
  std::uint64_t occupancy_max = 0;
  /// Mark latency (us): enqueue -> mark of the same packet id. Zero for
  /// enqueue-marked packets; the queueing delay for dequeue marking.
  std::size_t marked_packets = 0;
  double mark_latency_p50_us = 0.0;
  double mark_latency_p99_us = 0.0;
  double mark_latency_max_us = 0.0;
};

[[nodiscard]] PortReport analyze_port(const std::vector<PortEvent>& events);

/// Occupancy heatmap: one row per time bucket of `bucket_us`, one column
/// per queue, cell = enqueued bytes-events count in that bucket (enqueue
/// events charged to their queue). CSV header: time_us,q0,q1,...
[[nodiscard]] std::string port_heatmap_csv(const std::vector<PortEvent>& events,
                                           double bucket_us);

/// One scope row of a pmsb.profile/1 document.
struct ProfileScopeEntry {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t self_wall_ns = 0;
  std::uint64_t total_wall_ns = 0;
};

struct ProfileDoc {
  std::uint64_t dispatches = 0;
  std::uint64_t dispatch_wall_ns = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t max_heap_depth = 0;
  std::uint64_t packet_ids_allocated = 0;
  /// Event-queue backend the run used ("heap" when absent — documents
  /// written before the backend knob existed predate the field).
  std::string queue_backend = "heap";
  std::uint64_t queue_compactions = 0;  ///< 0 when absent (older documents)
  // Sampling and clock calibration; all 0 when absent (documents written
  // before the profiler sampled timed every dispatch and reported no clock
  // cost).
  std::uint64_t sample_period = 0;  ///< about 1 in this many dispatches timed
  std::uint64_t sampled_dispatches = 0;
  std::uint64_t clock_read_ns = 0;
  std::uint64_t overhead_ns_est = 0;  ///< clock reads made x clock_read_ns
  std::vector<ProfileScopeEntry> scopes;  ///< file order (sorted by name)

  /// True when the wall fields are estimates scaled up from a timed sample.
  [[nodiscard]] bool sampled() const { return sample_period > 1; }
};

/// Parses a pmsb.profile/1 document. Accepts either a standalone profile
/// or a pmsb.run_manifest/1 with an embedded "profile" section.
[[nodiscard]] ProfileDoc read_profile(const std::string& path);
[[nodiscard]] ProfileDoc parse_profile(const std::string& text,
                                       const std::string& origin);

/// Scopes sorted by self_wall_ns descending, truncated to `n`.
[[nodiscard]] std::vector<ProfileScopeEntry> top_hotspots(const ProfileDoc& doc,
                                                          std::size_t n);

/// Per-scope before/after comparison (union of scope names, sorted by
/// |self_b - self_a| descending). A scope absent on one side reads as zero.
struct ProfileScopeDiff {
  std::string name;
  std::uint64_t count_a = 0, count_b = 0;
  std::uint64_t self_a = 0, self_b = 0;
};

[[nodiscard]] std::vector<ProfileScopeDiff> diff_profiles(const ProfileDoc& a,
                                                          const ProfileDoc& b);

}  // namespace pmsb::trace
