#include "trace/tracer.hpp"

#include <fstream>
#include <stdexcept>

namespace pmsb::trace {

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tracer::write_csv: cannot open " + path);
  out << "time_us,event,packet,flow,queue,port_bytes\n";
  for_each_chronological([&out](const Record& r) {
    out << sim::to_microseconds(r.time) << ',' << net::packet_event_name(r.kind) << ','
        << r.packet << ',' << r.flow << ',' << r.queue << ',' << r.port_bytes << '\n';
  });
}

void Tracer::write_ndjson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tracer::write_ndjson: cannot open " + path);
  for_each_chronological([&out](const Record& r) {
    out << "{\"t_us\":" << sim::to_microseconds(r.time) << ",\"event\":\""
        << net::packet_event_name(r.kind) << "\",\"packet\":" << r.packet
        << ",\"flow\":" << r.flow << ",\"queue\":" << r.queue
        << ",\"port_bytes\":" << r.port_bytes << "}\n";
  });
}

}  // namespace pmsb::trace
