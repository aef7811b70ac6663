// DCQCN (Zhu et al., SIGCOMM 2015) — the rate-based congestion control for
// RDMA deployments, cited by the paper as the other major ECN consumer in
// datacenters.
//
// Simplified but structurally faithful model:
//  - the sender paces packets at a current rate Rc (no window, no ACK clock)
//  - the receiver (notification point) sends at most one CNP per
//    `cnp_interval` while marked packets keep arriving
//  - on CNP (reaction point): Rt <- Rc, Rc <- Rc*(1 - alpha/2),
//    alpha <- (1-g)*alpha + g
//  - alpha decays by (1-g) every `alpha_timer` without CNPs
//  - rate increase every `increase_timer`: fast recovery (Rc toward Rt) for
//    the first `fast_recovery_rounds`, then additive (Rt += Rai), then
//    hyper-additive (Rt += Rhai)
//
// Delivery is RDMA-like: no retransmission. Run it on marking-enabled
// fabrics where ECN keeps buffers shallow; the receiver tracks delivered
// bytes and fires completion when the message is fully received.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/metrics.hpp"

namespace pmsb::transport {

struct DcqcnConfig {
  std::uint32_t mtu_payload = sim::kDefaultMssBytes;
  sim::RateBps line_rate = sim::gbps(10);   ///< initial and maximum rate
  sim::RateBps min_rate = sim::mbps(10);
  double g = 1.0 / 256.0;                   ///< alpha gain
  sim::TimeNs cnp_interval = sim::microseconds(50);
  sim::TimeNs alpha_timer = sim::microseconds(55);
  sim::TimeNs increase_timer = sim::microseconds(55);
  std::uint32_t fast_recovery_rounds = 5;
  sim::RateBps additive_increase = sim::mbps(40);
  sim::RateBps hyper_increase = sim::mbps(400);
};

struct DcqcnSenderStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t cnps_received = 0;
  std::uint64_t rate_cuts = 0;
  std::uint64_t increase_rounds = 0;
};

class DcqcnSender {
 public:
  DcqcnSender(sim::Simulator& simulator, net::Host& local, net::HostId remote,
              net::FlowId flow, net::ServiceId service, std::uint64_t message_bytes,
              DcqcnConfig config);

  /// Starts pacing packets at `at`; a message of 0 bytes runs forever.
  void start(sim::TimeNs at);

  /// Reaction-point input: a CNP arrived from the receiver.
  void on_cnp();

  [[nodiscard]] double current_rate_bps() const { return rc_; }
  [[nodiscard]] double target_rate_bps() const { return rt_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] bool done_sending() const {
    return message_bytes_ > 0 && bytes_sent_ >= message_bytes_;
  }
  [[nodiscard]] const DcqcnSenderStats& stats() const { return stats_; }
  [[nodiscard]] net::FlowId flow_id() const { return flow_; }

  /// Registers this reaction point's instruments under `labels`: the
  /// DcqcnSenderStats cells as bound counters plus live Rc / Rt / alpha
  /// probe gauges.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    const telemetry::Labels& labels) {
    registry.bind_counter("dcqcn.packets_sent", labels, &stats_.packets_sent,
                          "packets");
    registry.bind_counter("dcqcn.cnps_received", labels, &stats_.cnps_received,
                          "cnps");
    registry.bind_counter("dcqcn.rate_cuts", labels, &stats_.rate_cuts, "cuts");
    registry.bind_counter("dcqcn.increase_rounds", labels, &stats_.increase_rounds,
                          "rounds");
    registry.gauge_fn("dcqcn.rate_bps", labels, [this] { return rc_; }, "bps");
    registry.gauge_fn("dcqcn.target_rate_bps", labels, [this] { return rt_; }, "bps");
    registry.gauge_fn("dcqcn.alpha", labels, [this] { return alpha_; }, "fraction");
  }

 private:
  void send_next();
  void schedule_alpha_timer();
  void schedule_increase_timer();
  void increase_round();

  sim::Simulator& sim_;
  net::Host& local_;
  net::HostId remote_;
  net::FlowId flow_;
  net::ServiceId service_;
  std::uint64_t message_bytes_;
  DcqcnConfig cfg_;

  double rc_;       ///< current rate (bps)
  double rt_;       ///< target rate (bps)
  double alpha_ = 1.0;
  bool cnp_since_alpha_timer_ = false;
  std::uint32_t rounds_since_cut_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t seq_ = 0;
  bool started_ = false;
  bool send_loop_active_ = false;
  DcqcnSenderStats stats_;
};

class DcqcnReceiver {
 public:
  using CompletionCallback = std::function<void(sim::TimeNs now)>;

  DcqcnReceiver(sim::Simulator& simulator, net::Host& local, net::HostId remote,
                net::FlowId flow, net::ServiceId service, std::uint64_t message_bytes,
                DcqcnConfig config);

  void on_data(const net::Packet& pkt);
  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }

  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::uint64_t marked_packets() const { return marked_packets_; }
  [[nodiscard]] std::uint64_t cnps_sent() const { return cnps_sent_; }
  [[nodiscard]] bool complete() const { return completed_; }

 private:
  sim::Simulator& sim_;
  net::Host& local_;
  net::HostId remote_;
  net::FlowId flow_;
  net::ServiceId service_;
  std::uint64_t message_bytes_;
  DcqcnConfig cfg_;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t marked_packets_ = 0;
  std::uint64_t cnps_sent_ = 0;
  sim::TimeNs last_cnp_ = -1;
  bool completed_ = false;
  CompletionCallback on_complete_;
};

/// A unidirectional DCQCN flow wiring both endpoints to their hosts.
class DcqcnFlow {
 public:
  DcqcnFlow(sim::Simulator& simulator, net::Host& src, net::Host& dst,
            net::FlowId flow, net::ServiceId service, std::uint64_t message_bytes,
            DcqcnConfig config);
  ~DcqcnFlow();
  DcqcnFlow(const DcqcnFlow&) = delete;
  DcqcnFlow& operator=(const DcqcnFlow&) = delete;

  void start(sim::TimeNs at) { sender_->start(at); }

  [[nodiscard]] DcqcnSender& sender() { return *sender_; }
  [[nodiscard]] DcqcnReceiver& receiver() { return *receiver_; }

 private:
  net::Host& src_;
  net::Host& dst_;
  net::FlowId flow_;
  std::unique_ptr<DcqcnSender> sender_;
  std::unique_ptr<DcqcnReceiver> receiver_;
};

}  // namespace pmsb::transport
