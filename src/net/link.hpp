// Unidirectional point-to-point link.
//
// The link models serialization (rate) and propagation (delay). The owning
// device drives transmission: it calls `transmit` only when the link is
// idle, and is told when serialization completes so it can dequeue the next
// packet. Store-and-forward: the destination sees the packet only after the
// last bit has been serialized and propagated.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_observer.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace pmsb::net {

class Link {
 public:
  Link(sim::Simulator& simulator, sim::RateBps rate, TimeNs propagation_delay,
       Node* destination)
      : sim_(simulator), rate_(rate), delay_(propagation_delay), dst_(destination) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Starts serializing `pkt` now. Precondition: !busy(). Returns the time at
  /// which serialization completes (when the device may transmit again).
  TimeNs transmit(Packet pkt);

  /// Re-points the link at a different receiving node. The fault plane uses
  /// this to interpose an owned FaultInjector between the wire and the real
  /// device. Packets already in flight are delivered to the NEW destination
  /// (delivery resolves dst_ at arrival time).
  void set_destination(Node* destination) { dst_ = destination; }

  /// Reports kSend when serialization starts and kRx at delivery to
  /// `observer` as `site` (nullptr to detach). The observer must outlive
  /// the link.
  void set_observer(PacketObserver* observer, SiteId site) {
    observer_ = observer;
    site_ = site;
  }
  [[nodiscard]] PacketObserver* observer() const { return observer_; }
  [[nodiscard]] SiteId site() const { return site_; }

  [[nodiscard]] bool busy() const { return sim_.now() < busy_until_; }
  [[nodiscard]] sim::RateBps rate() const { return rate_; }
  [[nodiscard]] TimeNs propagation_delay() const { return delay_; }
  [[nodiscard]] Node* destination() const { return dst_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return packets_delivered_; }
  /// Packets serialized or serializing but not yet handed to the
  /// destination — the link's contribution to conservation invariants.
  [[nodiscard]] std::uint64_t packets_in_flight() const {
    return packets_sent_ - packets_delivered_;
  }

 private:
  void deliver(Packet pkt);

  sim::Simulator& sim_;
  sim::RateBps rate_;
  TimeNs delay_;
  Node* dst_;
  PacketObserver* observer_ = nullptr;
  SiteId site_ = 0;
  TimeNs busy_until_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_delivered_ = 0;
};

}  // namespace pmsb::net
