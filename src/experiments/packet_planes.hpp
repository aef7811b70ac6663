// PacketPlanes: the fabric's one packet observer, and the one place that
// decides what each plane records about a packet.
//
// Ports, links and DCTCP senders report net::PacketEvents under the site id
// this observer gave them. Per site it knows what each attached plane wants
// from that component: the run digest's entity, the span tracer's node and
// whether the port tracer watches it. One event becomes the digest's words
// (with regress::EventKind, the digest's hashed kind code, mapped here and
// nowhere else), span records for watched flows and port-trace records.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet_observer.hpp"
#include "regress/digest.hpp"
#include "sim/simulator.hpp"
#include "switchlib/port.hpp"
#include "trace/spans.hpp"
#include "trace/tracer.hpp"
#include "transport/dctcp.hpp"

namespace pmsb::experiments {

class PacketPlanes final : public net::PacketObserver {
 public:
  explicit PacketPlanes(const sim::Simulator& simulator) : sim_(simulator) {}
  PacketPlanes(const PacketPlanes&) = delete;
  PacketPlanes& operator=(const PacketPlanes&) = delete;

  /// Folds the events of `component` (a Port, Link or DctcpSender) into
  /// `digest` as `entity`. The digest must outlive the component's last
  /// event.
  template <typename Component>
  void digest(Component& component, regress::RunDigest& digest,
              regress::EntityId entity) {
    digest_ = &digest;
    site(component).entity = entity;
  }

  /// Records the events of watched flows at `component` in `spans` as node
  /// `node`; a link records kLinkTx and kRx at delivery.
  template <typename Component>
  void spans(Component& component, trace::SpanTracer& spans, const std::string& node) {
    spans_ = &spans;
    site(component).span_node = spans.intern_node(node);
  }

  /// Records every event at `port` in `tracer`.
  void trace(switchlib::Port& port, trace::Tracer& tracer) {
    tracer_ = &tracer;
    site(port).traced = true;
  }

  void on_packet(net::SiteId id, net::PacketEvent event, const net::Packet& pkt,
                 const net::PacketContext& ctx) override;

 private:
  enum class Kind : std::uint8_t { kPort, kLink, kSender };
  static constexpr regress::EntityId kNoEntity =
      std::numeric_limits<regress::EntityId>::max();

  struct Site {
    Kind kind = Kind::kPort;
    sim::TimeNs link_delay = 0;  ///< links: delivery minus this is kLinkTx
    regress::EntityId entity = kNoEntity;
    trace::NodeId span_node = trace::kNoNode;
    bool traced = false;
  };

  Site& site(switchlib::Port& port) { return attach(port, Kind::kPort, 0); }
  Site& site(net::Link& link) {
    return attach(link, Kind::kLink, link.propagation_delay());
  }
  Site& site(transport::DctcpSender& sender) { return attach(sender, Kind::kSender, 0); }

  /// The site of `component`, created and attached to this observer on
  /// first use.
  template <typename Component>
  Site& attach(Component& component, Kind kind, sim::TimeNs link_delay) {
    if (component.observer() != this) {
      component.set_observer(this, static_cast<net::SiteId>(sites_.size()));
      sites_.push_back({.kind = kind, .link_delay = link_delay});
    }
    return sites_[component.site()];
  }

  void fold_digest(const Site& site, net::PacketEvent event, const net::Packet& pkt,
                   const net::PacketContext& ctx, sim::TimeNs now);
  void record_spans(const Site& site, net::PacketEvent event, const net::Packet& pkt,
                    const net::PacketContext& ctx, sim::TimeNs now);

  const sim::Simulator& sim_;
  regress::RunDigest* digest_ = nullptr;
  trace::SpanTracer* spans_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  std::vector<Site> sites_;
};

}  // namespace pmsb::experiments
