#include "transport/dctcp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/pmsb_algorithm.hpp"

namespace pmsb::transport {

// ---------------------------------------------------------------------------
// DctcpSender
// ---------------------------------------------------------------------------

DctcpSender::DctcpSender(sim::Simulator& simulator, Host& local, HostId remote,
                         FlowId flow, ServiceId service, std::uint64_t flow_bytes,
                         DctcpConfig config)
    : sim_(simulator),
      local_(local),
      remote_(remote),
      flow_(flow),
      service_(service),
      flow_bytes_(flow_bytes),
      cfg_(config),
      rtt_(config.min_rto, config.initial_rto) {
  cwnd_ = static_cast<double>(cfg_.init_cwnd_segments) * cfg_.mss;
  alpha_ = cfg_.alpha_init;
}

DctcpSender::~DctcpSender() {
  // Pending simulator events may still reference this sender; marking the
  // flow complete makes their callbacks no-ops. Scenario code must keep
  // flows alive until the simulator drains (Flow enforces host handler
  // deregistration).
  completed_ = true;
}

void DctcpSender::bind_metrics(telemetry::MetricsRegistry& registry,
                               const telemetry::Labels& labels) {
  registry.bind_counter("transport.segments_sent", labels, &stats_.segments_sent,
                        "segments");
  registry.bind_counter("transport.retransmits", labels, &stats_.retransmits,
                        "segments");
  registry.bind_counter("transport.timeouts", labels, &stats_.timeouts, "timeouts");
  registry.bind_counter("transport.acks_received", labels, &stats_.acks_received,
                        "acks");
  registry.bind_counter("transport.ece_acks", labels, &stats_.ece_acks, "acks");
  registry.bind_counter("transport.ece_ignored", labels, &stats_.ece_ignored, "acks");
  registry.bind_counter("transport.window_cuts", labels, &stats_.window_cuts, "cuts");
  registry.gauge_fn("transport.cwnd_bytes", labels, [this] { return cwnd_; }, "bytes");
  registry.gauge_fn("transport.alpha", labels, [this] { return alpha_; }, "fraction");
}

void DctcpSender::set_profiler(telemetry::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler_ == nullptr) return;
  kind_send_ = profiler_->intern("transport.send");
  kind_ack_ = profiler_->intern("transport.ack");
}

void DctcpSender::start(TimeNs at) {
  if (started_) return;
  started_ = true;
  sim_.schedule_at(at, [this] {
    start_time_ = sim_.now();
    window_end_seq_ = 0;
    send_available();
  });
}

std::uint64_t DctcpSender::remaining_at(std::uint64_t seq) const {
  return infinite() ? cfg_.mss : flow_bytes_ - std::min(flow_bytes_, seq);
}

void DctcpSender::send_segment(std::uint64_t seq, bool is_retransmit) {
  telemetry::ProfileScope profile(profiler_, kind_send_);
  const std::uint32_t payload =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(cfg_.mss, remaining_at(seq)));
  assert(payload > 0);
  Packet pkt;
  pkt.id = sim_.allocate_packet_id();
  pkt.flow_id = flow_;
  pkt.src = local_.id();
  pkt.dst = remote_;
  pkt.service = service_;
  pkt.type = net::PacketType::kData;
  pkt.size_bytes = payload + sim::kHeaderBytes;
  pkt.seq = seq;
  pkt.fin = !infinite() && seq + payload >= flow_bytes_;
  pkt.ect = cfg_.ecn_enabled;
  if (observer_ != nullptr) {
    observer_->on_packet(site_, net::PacketEvent::kSend, pkt,
                         {.retransmit = is_retransmit || seq < snd_max_});
  }
  local_.send(std::move(pkt));
  ++stats_.segments_sent;
  // Go-back-N resends after an RTO arrive here through the normal send path
  // with is_retransmit=false; anything starting below snd_max_ has been on
  // the wire before, so count it too.
  if (is_retransmit || seq < snd_max_) ++stats_.retransmits;
  if (seq + payload > snd_max_) snd_max_ = seq + payload;
  last_progress_ = sim_.now();
}

void DctcpSender::send_available() {
  if (completed_) return;
  while (true) {
    if (!infinite() && snd_nxt_ >= flow_bytes_) break;
    if (in_recovery_) break;  // conservative: no new data during recovery
    const std::uint64_t payload = std::min<std::uint64_t>(cfg_.mss, remaining_at(snd_nxt_));
    if (static_cast<double>(inflight() + payload) > cwnd_) break;
    if (cfg_.max_rate > 0) {
      const TimeNs now = sim_.now();
      if (now < next_send_allowed_) {
        if (pacing_event_ == sim::kInvalidEventId) {
          pacing_event_ = sim_.schedule_at(next_send_allowed_, [this] {
            pacing_event_ = sim::kInvalidEventId;
            send_available();
          });
        }
        break;
      }
      next_send_allowed_ = std::max(next_send_allowed_, now) +
                           sim::serialization_delay(payload + sim::kHeaderBytes,
                                                    cfg_.max_rate);
    }
    send_segment(snd_nxt_, false);
    snd_nxt_ += payload;
  }
  if (inflight() > 0) arm_rto();
}

void DctcpSender::enter_window_boundary() {
  // Alpha updates once per window of data (DCTCP's estimation loop); the
  // multiplicative cut itself happens in on_ack at the FIRST marked ACK of
  // a window so congestion feedback acts immediately.
  if (window_acked_bytes_ > 0) {
    const double f = static_cast<double>(window_marked_bytes_) /
                     static_cast<double>(window_acked_bytes_);
    alpha_ = (1.0 - cfg_.g) * alpha_ + cfg_.g * f;
  }
  window_acked_bytes_ = 0;
  window_marked_bytes_ = 0;
  window_end_seq_ = snd_nxt_;
}

double DctcpSender::cut_exponent() const {
  if (!cfg_.d2tcp_enabled || deadline_ == 0 || infinite()) return 1.0;
  const TimeNs remaining_time = deadline_ - sim_.now();
  if (remaining_time <= 0) return 1.0;  // deadline missed: plain DCTCP
  const std::uint64_t remaining_bytes = flow_bytes_ - std::min(flow_bytes_, snd_una_);
  const TimeNs rtt = rtt_.valid() ? rtt_.srtt() : sim::microseconds(100);
  // Tc: time to finish at the current rate cwnd/RTT (3/4 factor per the
  // D2TCP paper's sawtooth average); d = Tc / D clamped to [0.5, 2].
  const double rate = cwnd_ * 0.75 / static_cast<double>(rtt);  // bytes per ns
  const double tc = static_cast<double>(remaining_bytes) / rate;
  return std::clamp(tc / static_cast<double>(remaining_time), 0.5, 2.0);
}

void DctcpSender::maybe_cut_on_mark() {
  if (snd_una_ < cut_end_seq_) return;  // already cut in this window
  double penalty = 1.0;  // classic ECN: full halving
  if (cfg_.reaction == EcnReaction::kDctcp) {
    const double d = cut_exponent();
    last_cut_exponent_ = d;
    penalty = d == 1.0 ? alpha_ : std::pow(alpha_, d);
  }
  cwnd_ = std::max(cwnd_ * (1.0 - penalty / 2.0), static_cast<double>(cfg_.mss));
  ssthresh_ = std::max(cwnd_, 2.0 * cfg_.mss);  // marks end slow start
  cut_end_seq_ = snd_nxt_;
  ++stats_.window_cuts;
}

void DctcpSender::on_ack(const Packet& ack) {
  if (completed_) return;
  telemetry::ProfileScope profile(profiler_, kind_ack_);
  ++stats_.acks_received;
  {
    // Receivers echo the data packet's send timestamp in every ACK.
    const TimeNs sample = sim_.now() - ack.echo_time;
    rtt_.add_sample(sample);
    if (rtt_observer_) rtt_observer_(sample);
  }

  bool marked = ack.ece;
  if (marked) ++stats_.ece_acks;
  if (marked && cfg_.pmsbe_enabled &&
      core::pmsbe_ignore_mark(true, rtt_.last_sample(), cfg_.pmsbe_rtt_threshold)) {
    // Algorithm 2: the RTT proves our own queue is short, so the mark came
    // from other queues sharing the port — stay blind to it.
    marked = false;
    ++stats_.ece_ignored;
  }
  if (observer_ != nullptr) {
    observer_->on_packet(site_, net::PacketEvent::kAck, ack,
                         {.ignored = ack.ece && !marked});
  }

  if (ack.ack > snd_una_) {
    const std::uint64_t delta = ack.ack - snd_una_;
    snd_una_ = ack.ack;
    dup_acks_ = 0;
    rto_backoff_ = 1;
    last_progress_ = sim_.now();
    window_acked_bytes_ += delta;
    if (marked) window_marked_bytes_ += delta;
    if (in_recovery_ && snd_una_ >= recover_seq_) in_recovery_ = false;
    if (!in_recovery_) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(delta);  // slow start
      } else {
        cwnd_ += static_cast<double>(cfg_.mss) * static_cast<double>(delta) / cwnd_;
      }
      if (cfg_.max_cwnd_bytes > 0) {
        cwnd_ = std::min(cwnd_, static_cast<double>(cfg_.max_cwnd_bytes));
      }
    }
    if (snd_una_ >= window_end_seq_) enter_window_boundary();
    if (marked) maybe_cut_on_mark();
    if (!infinite() && snd_una_ >= flow_bytes_) {
      finish();
      return;
    }
    send_available();
  } else {
    ++dup_acks_;
    if (dup_acks_ == 3 && !in_recovery_) {
      in_recovery_ = true;
      recover_seq_ = snd_nxt_;
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * cfg_.mss);
      cwnd_ = ssthresh_;
      send_segment(snd_una_, /*is_retransmit=*/true);
      arm_rto();
    }
  }
}

void DctcpSender::arm_rto() {
  if (rto_armed_ || completed_) return;
  rto_armed_ = true;
  const TimeNs deadline = last_progress_ + rtt_.rto() * rto_backoff_;
  sim_.schedule_at(std::max(deadline, sim_.now()), [this] { on_rto(); });
}

void DctcpSender::on_rto() {
  rto_armed_ = false;
  if (completed_ || inflight() == 0) return;
  const TimeNs deadline = last_progress_ + rtt_.rto() * rto_backoff_;
  if (sim_.now() < deadline) {
    // Progress happened since this timer was armed; re-arm for the rest.
    arm_rto();
    return;
  }
  ++stats_.timeouts;
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * cfg_.mss);
  cwnd_ = cfg_.mss;
  snd_nxt_ = snd_una_;  // go-back-N
  in_recovery_ = false;
  dup_acks_ = 0;
  rto_backoff_ = std::min<std::int64_t>(rto_backoff_ * 2, 64);
  window_acked_bytes_ = 0;
  window_marked_bytes_ = 0;
  window_end_seq_ = snd_una_;
  last_progress_ = sim_.now();
  send_available();
}

void DctcpSender::finish() {
  completed_ = true;
  completion_time_ = sim_.now();
  if (on_complete_) on_complete_(completion_time_ - start_time_);
}

// ---------------------------------------------------------------------------
// DctcpReceiver
// ---------------------------------------------------------------------------

DctcpReceiver::DctcpReceiver(sim::Simulator& simulator, Host& local, HostId remote,
                             FlowId flow, ServiceId service, const DctcpConfig& config)
    : sim_(simulator),
      local_(local),
      remote_(remote),
      flow_(flow),
      service_(service),
      delack_count_(std::max<std::uint32_t>(1, config.delayed_ack_count)),
      delack_timeout_(config.delayed_ack_timeout) {}

void DctcpReceiver::send_ack(bool ece, TimeNs echo_time) {
  Packet ack;
  ack.id = sim_.allocate_packet_id();
  ack.flow_id = flow_;
  ack.src = local_.id();
  ack.dst = remote_;
  ack.service = service_;
  ack.type = net::PacketType::kAck;
  ack.size_bytes = net::kAckBytes;
  ack.ack = rcv_nxt_;
  ack.ect = false;  // pure ACKs are not ECN-capable (RFC 3168)
  ack.ece = ece;
  ack.echo_time = echo_time;
  local_.send(std::move(ack));
  ++acks_sent_;
  pending_ = 0;
  ++delack_generation_;
}

void DctcpReceiver::flush_pending() {
  if (pending_ > 0) send_ack(run_ce_, pending_echo_time_);
}

void DctcpReceiver::arm_delack_timer() {
  const std::uint64_t gen = delack_generation_;
  sim_.schedule_in(delack_timeout_, [this, gen] {
    if (gen == delack_generation_) flush_pending();
  });
}

void DctcpReceiver::on_data(const Packet& pkt) {
  ++data_packets_;
  if (pkt.ce) ++ce_packets_;
  const std::uint64_t seg_end = pkt.seq + pkt.payload_bytes();
  const bool in_order = pkt.seq <= rcv_nxt_;
  if (in_order) {
    rcv_nxt_ = std::max(rcv_nxt_, seg_end);
    // Drain any buffered segments now contiguous.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && it->first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, it->second);
      it = out_of_order_.erase(it);
    }
  } else {
    auto [it, inserted] = out_of_order_.try_emplace(pkt.seq, seg_end);
    if (!inserted) it->second = std::max(it->second, seg_end);
  }

  if (delack_count_ == 1) {
    // Per-packet ACK with exact echo.
    send_ack(pkt.ce, pkt.sent_time);
    return;
  }
  // DCTCP delayed-ACK ECE machine: close the previous run on a CE flip so
  // the echoed bit always describes every packet the ACK covers.
  if (pending_ > 0 && pkt.ce != run_ce_) flush_pending();
  run_ce_ = pkt.ce;
  pending_echo_time_ = pkt.sent_time;
  ++pending_;
  // Out-of-order and FIN segments demand immediate feedback (dup-ACKs for
  // fast retransmit; no dangling final ACK).
  if (pending_ >= delack_count_ || !in_order || pkt.fin) {
    send_ack(run_ce_, pending_echo_time_);
  } else if (pending_ == 1) {
    arm_delack_timer();
  }
}

// ---------------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------------

Flow::Flow(sim::Simulator& simulator, Host& src, Host& dst, FlowId flow,
           ServiceId service, std::uint64_t flow_bytes, DctcpConfig config)
    : src_(src), dst_(dst), flow_(flow) {
  sender_ = std::make_unique<DctcpSender>(simulator, src, dst.id(), flow, service,
                                          flow_bytes, config);
  receiver_ = std::make_unique<DctcpReceiver>(simulator, dst, src.id(), flow, service,
                                              config);
  src_.register_flow(flow_, [s = sender_.get()](Packet pkt) {
    if (pkt.is_ack()) s->on_ack(pkt);
  });
  dst_.register_flow(flow_, [r = receiver_.get()](Packet pkt) {
    if (pkt.is_data()) r->on_data(pkt);
  });
}

Flow::~Flow() {
  src_.unregister_flow(flow_);
  dst_.unregister_flow(flow_);
}

}  // namespace pmsb::transport
