#include "net/link.hpp"

#include <cassert>
#include <utility>

namespace pmsb::net {

TimeNs Link::transmit(Packet pkt) {
  assert(!busy() && "Link::transmit called while a packet is serializing");
  const TimeNs tx_done = sim_.now() + sim::serialization_delay(pkt.size_bytes, rate_);
  busy_until_ = tx_done;
  bytes_sent_ += pkt.size_bytes;
  ++packets_sent_;
  if (observer_ != nullptr) observer_->on_packet(site_, PacketEvent::kSend, pkt, {});
  sim_.schedule_at(tx_done + delay_,
                   [this, p = std::move(pkt)]() mutable { deliver(std::move(p)); });
  return tx_done;
}

void Link::deliver(Packet pkt) {
  ++packets_delivered_;
  if (observer_ != nullptr) observer_->on_packet(site_, PacketEvent::kRx, pkt, {});
  dst_->receive(std::move(pkt));
}

}  // namespace pmsb::net
