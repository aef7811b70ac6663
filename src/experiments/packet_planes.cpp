#include "experiments/packet_planes.hpp"

namespace pmsb::experiments {

void PacketPlanes::on_packet(net::SiteId id, net::PacketEvent event,
                             const net::Packet& pkt, const net::PacketContext& ctx) {
  const Site& site = sites_[id];
  const sim::TimeNs now = sim_.now();
  if (site.entity != kNoEntity) fold_digest(site, event, pkt, ctx, now);
  if (site.traced) {
    tracer_->record({now, event, pkt.id, pkt.flow_id, ctx.queue, ctx.port_bytes});
  }
  if (site.span_node != trace::kNoNode && spans_->wants(pkt.flow_id)) {
    record_spans(site, event, pkt, ctx, now);
  }
}

// The words each site folds per event are part of the digest definition:
// a port folds (packet, queue << 48 | port bytes), a link at serialization
// start (packet, size | ce << 32 | ect << 33), a sender (packet, seq) per
// segment and (ack number, ece | accepted mark << 1) per ACK.
void PacketPlanes::fold_digest(const Site& site, net::PacketEvent event,
                               const net::Packet& pkt, const net::PacketContext& ctx,
                               sim::TimeNs now) {
  const auto fold = [&](regress::EventKind kind, std::uint64_t a, std::uint64_t b) {
    digest_->event(site.entity, kind, static_cast<std::int64_t>(now), a, b);
  };
  const std::uint64_t port_word =
      (static_cast<std::uint64_t>(ctx.queue) << 48) | ctx.port_bytes;
  switch (event) {
    case net::PacketEvent::kEnqueue:
      return fold(regress::EventKind::kEnqueue, pkt.id, port_word);
    case net::PacketEvent::kDequeue:
      return fold(regress::EventKind::kDequeue, pkt.id, port_word);
    case net::PacketEvent::kMark:
      return fold(regress::EventKind::kMark, pkt.id, port_word);
    case net::PacketEvent::kDrop:
      return fold(regress::EventKind::kDrop, pkt.id, port_word);
    case net::PacketEvent::kSend:
      return fold(regress::EventKind::kSend, pkt.id,
                  site.kind == Kind::kLink
                      ? pkt.size_bytes | (static_cast<std::uint64_t>(pkt.ce) << 32) |
                            (static_cast<std::uint64_t>(pkt.ect) << 33)
                      : pkt.seq);
    case net::PacketEvent::kAck:
      return fold(regress::EventKind::kAck, pkt.ack,
                  (pkt.ece ? 1u : 0u) | (pkt.ece && !ctx.ignored ? 2u : 0u));
    case net::PacketEvent::kLinkTx:
    case net::PacketEvent::kRx: return;  // delivery is not digested
  }
}

void PacketPlanes::record_spans(const Site& site, net::PacketEvent event,
                                const net::Packet& pkt, const net::PacketContext& ctx,
                                sim::TimeNs now) {
  trace::SpanRecord span;
  span.time = now;
  span.phase = event;
  span.packet = pkt.id;
  span.flow = pkt.flow_id;
  span.node = site.span_node;
  span.queue = ctx.queue;
  span.seq = event == net::PacketEvent::kAck ? pkt.ack : pkt.seq;
  span.size_bytes = pkt.size_bytes;
  span.marked = event == net::PacketEvent::kAck ? pkt.ece : pkt.ce;
  span.retransmit = ctx.retransmit;
  if (site.kind == Kind::kLink) {
    // A link's spans bracket the wire: the last bit left one link delay
    // before delivery. Its kSend belongs to the digest alone.
    if (event != net::PacketEvent::kRx) return;
    span.time = now - site.link_delay;
    span.phase = net::PacketEvent::kLinkTx;
    spans_->record(span);
    span.time = now;
    span.phase = net::PacketEvent::kRx;
  }
  spans_->record(span);
}

}  // namespace pmsb::experiments
