// One vocabulary and one interface for per-packet evidence.
//
// A switch port, a link and a DCTCP sender each hold one PacketObserver*
// (null when nothing observes them) plus the site id the observer gave them,
// and report a PacketEvent at the points where a packet's fate is decided.
// What is recorded about the packet (digest words, span records, port-trace
// records) is the observer's business, not the component's: the component
// pays one null check per emission point when unobserved and one virtual
// call when observed. experiments::PacketPlanes is the observer every
// topology uses.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"

namespace pmsb::net {

/// What happened to a packet. The order is the span phase order that trace
/// files and their readers share; append, never renumber.
enum class PacketEvent : std::uint8_t {
  kSend,     ///< a sender handed the segment to its host, or a link started it
  kEnqueue,  ///< switch port accepted the packet into a queue
  kDequeue,  ///< scheduler picked the packet; serialization starts
  kLinkTx,   ///< last bit left the link (serialization done)
  kRx,       ///< packet delivered to the link's far end
  kAck,      ///< sender processed the ack covering this packet
  kMark,     ///< ECN mark decision on the packet
  kDrop,     ///< packet dropped (buffer or fault)
};

inline constexpr std::size_t kNumPacketEvents = 8;

[[nodiscard]] inline const char* packet_event_name(PacketEvent event) {
  switch (event) {
    case PacketEvent::kSend: return "send";
    case PacketEvent::kEnqueue: return "enqueue";
    case PacketEvent::kDequeue: return "dequeue";
    case PacketEvent::kLinkTx: return "link_tx";
    case PacketEvent::kRx: return "rx";
    case PacketEvent::kAck: return "ack";
    case PacketEvent::kMark: return "mark";
    case PacketEvent::kDrop: return "drop";
  }
  return "?";
}

/// Index of an observed component inside its observer's site table.
using SiteId = std::uint32_t;

/// Emitter state the packet itself does not carry.
struct PacketContext {
  std::size_t queue = 0;            ///< port events: the packet's queue
  std::uint64_t port_bytes = 0;     ///< port events: occupancy at the event
  bool retransmit = false;          ///< sender kSend: bytes already sent once
  bool ignored = false;             ///< sender kAck: PMSB(e) ignored the ECE
};

class PacketObserver {
 public:
  virtual ~PacketObserver() = default;
  virtual void on_packet(SiteId site, PacketEvent event, const Packet& pkt,
                         const PacketContext& ctx) = 0;
};

}  // namespace pmsb::net
