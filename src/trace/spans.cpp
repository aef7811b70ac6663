#include "trace/spans.hpp"

#include <fstream>
#include <stdexcept>

#include "trace/json_escape.hpp"

namespace pmsb::trace {

NodeId SpanTracer::intern_node(const std::string& name) {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == name) return i;
  }
  nodes_.push_back(name);
  return static_cast<NodeId>(nodes_.size() - 1);
}

void SpanTracer::write_ndjson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SpanTracer::write_ndjson: cannot open " + path);
  for_each_chronological([&](const SpanRecord& s) {
    out << "{\"t_ns\":" << s.time << ",\"phase\":\"" << net::packet_event_name(s.phase)
        << "\",\"packet\":" << s.packet << ",\"flow\":" << s.flow
        << ",\"node\":\""
        << (s.node == kNoNode ? std::string() : json_escape(nodes_.at(s.node)))
        << "\",\"queue\":" << s.queue << ",\"seq\":" << s.seq
        << ",\"size_bytes\":" << s.size_bytes << ",\"marked\":"
        << (s.marked ? "true" : "false") << ",\"retransmit\":"
        << (s.retransmit ? "true" : "false") << "}\n";
  });
}

}  // namespace pmsb::trace
