#include "bench_scenario.hpp"

#include <stdexcept>

#include "experiments/dumbbell.hpp"
#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "regress/digest.hpp"
#include "sim/rng.hpp"
#include "stats/summary.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/sampler.hpp"
#include "workload/coflow.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace perfbench {

namespace {

using pmsb::experiments::Options;
using pmsb::experiments::Scheme;
namespace sim = pmsb::sim;
namespace experiments = pmsb::experiments;

// The settings every workload shares, as run_scenario's defaults give them:
// PMSB marking on DWRR with 8 equal-weight queues, the heap event queue,
// invariant ticks every 100 us and sampler ticks every 100 us.
constexpr Scheme kScheme = Scheme::kPmsb;
constexpr std::size_t kQueues = 8;
constexpr double kInvariantPeriodUs = 100.0;
constexpr double kSamplePeriodUs = 100.0;

pmsb::sched::SchedulerConfig dwrr_scheduler() {
  pmsb::sched::SchedulerConfig sc;
  sc.kind = pmsb::sched::SchedulerKind::kDwrr;
  sc.num_queues = kQueues;
  sc.weights.assign(kQueues, 1.0);
  return sc;
}

void add_port_totals(const pmsb::switchlib::Switch& sw, Outcome& out) {
  for (std::size_t p = 0; p < sw.num_ports(); ++p) {
    const pmsb::switchlib::PortStats& st = sw.port(p).stats();
    out.enqueued += st.enqueued_packets;
    out.dropped += st.dropped_packets;
    out.marked += st.marked_enqueue + st.marked_dequeue;
  }
}

void add_summary(const std::string& name, const pmsb::stats::Summary& s, Outcome& out) {
  out.results["fct_us." + name + ".mean"] = s.mean();
  out.results["fct_us." + name + ".p95"] = s.percentile(95);
  out.results["fct_us." + name + ".p99"] = s.percentile(99);
}

/// Observers run_scenario attaches from options, in its order: digest,
/// invariant checker (always on), profiler, stability sampler. Owners declare
/// this after the scenario so it is destroyed first: every member holds the
/// scenario's simulator by reference.
struct Observers {
  std::unique_ptr<pmsb::faults::InvariantChecker> checker;
  std::unique_ptr<pmsb::telemetry::Profiler> profiler;
  std::unique_ptr<pmsb::telemetry::TimeSeriesSampler> sampler;

  template <typename Scenario>
  void attach(Scenario& sc, const Options& opts, pmsb::regress::RunDigest* digest) {
    if (digest != nullptr) sc.install_digest(*digest);
    checker = std::make_unique<pmsb::faults::InvariantChecker>(sc.simulator());
    sc.install_invariants(*checker);
    checker->start_periodic(sim::microseconds_f(kInvariantPeriodUs));
    if (opts.get_bool("profile", false)) {
      profiler = std::make_unique<pmsb::telemetry::Profiler>();
      sc.install_profiler(*profiler);
    }
    if (opts.get_bool("stability", false)) {
      sampler = std::make_unique<pmsb::telemetry::TimeSeriesSampler>(
          sc.simulator(), sim::microseconds_f(kSamplePeriodUs));
      sc.add_sampler_columns(*sampler);
      sampler->start();
    }
  }

  void finish(Outcome& out) const {
    checker->check_now();
    out.results["invariants.evaluations"] = static_cast<double>(checker->evaluations());
    out.results["invariants.violations"] =
        static_cast<double>(checker->total_violations());
    if (profiler) {
      out.results["profile.dispatches"] = static_cast<double>(profiler->dispatches());
    }
  }
};

void finish_digest(pmsb::regress::RunDigest* digest, Outcome& out) {
  if (digest == nullptr) return;
  out.digest = digest->total().hex();
  out.digest_events = digest->count();
  out.results["digest.events"] = static_cast<double>(digest->count());
}

class LeafSpineBench final : public BenchScenario {
 public:
  explicit LeafSpineBench(const Options& opts) : opts_(opts) {
    cfg_.link_delay = sim::microseconds(9);
    cfg_.scheduler = dwrr_scheduler();
    cfg_.buffer_bytes = 2048ull * 1500ull;
    cfg_.buffer_policy.kind =
        pmsb::switchlib::parse_buffer_policy_kind(opts.get("buffer_policy", "static"));
    cfg_.shared_pool_bytes = static_cast<std::uint64_t>(opts.get_int("buffer_bytes", 0));
    experiments::SchemeParams params;
    params.capacity = cfg_.link_rate;
    params.rtt = sim::microseconds_f(85.2);
    params.weights = cfg_.scheduler.weights;
    cfg_.marking = experiments::make_scheme_marking(kScheme, params);
    cfg_.transport.init_cwnd_segments = 16;
    cfg_.transport.d2tcp_enabled = opts.get_bool("d2tcp", false);
    const sim::TimeNs base_rtt =
        4 * sim::serialization_delay(sim::kDefaultMtuBytes, cfg_.link_rate) +
        4 * sim::serialization_delay(pmsb::net::kAckBytes, cfg_.link_rate) +
        8 * cfg_.link_delay;
    experiments::apply_scheme_transport(kScheme, params, base_rtt, cfg_.transport);
    if (opts.get_bool("digest", false)) {
      digest_ = std::make_unique<pmsb::regress::RunDigest>();
    }
  }

  void build() override { sc_ = std::make_unique<experiments::LeafSpineScenario>(cfg_); }

  void generate() override {
    sim::Rng rng(static_cast<std::uint64_t>(opts_.get_int("seed", 1)));
    const std::string pattern = opts_.get("pattern", "poisson");
    if (pattern == "poisson") {
      pmsb::workload::TrafficConfig tc;
      tc.num_hosts = sc_->num_hosts();
      tc.load = opts_.get_double("load", 0.5);
      tc.num_flows = static_cast<std::size_t>(opts_.get_int("flows", 300));
      tc.num_services = static_cast<std::uint8_t>(kQueues);
      const auto dist = pmsb::workload::FlowSizeDistribution::by_name("paper-mix");
      wl_.flows = pmsb::workload::generate_poisson_traffic(tc, dist, rng);
    } else if (pattern == "rpc") {
      pmsb::workload::RpcConfig rc;
      rc.num_hosts = sc_->num_hosts();
      rc.num_rpcs = static_cast<std::size_t>(opts_.get_int("rpcs", 50));
      rc.fanout = static_cast<std::size_t>(opts_.get_int("fanout", 8));
      rc.response_bytes = static_cast<std::uint64_t>(opts_.get_int("rpc_bytes", 20'000));
      rc.deadline = sim::microseconds_f(opts_.get_double("rpc_deadline_us", 2000.0));
      rc.mean_interarrival_us = opts_.get_double("rpc_gap_us", 500.0);
      rc.num_services = static_cast<std::uint8_t>(kQueues);
      wl_ = pmsb::workload::generate_rpc_fanout(rc, rng);
    } else {
      throw std::invalid_argument("pmsbbench: unsupported pattern '" + pattern + "'");
    }
  }

  void add_workload() override { sc_->add_workload(wl_); }

  void attach() override { obs_.attach(*sc_, opts_, digest_.get()); }

  void run() override {
    sc_->run_until_complete(sim::seconds(60));
  }

  Outcome finish() override {
    Outcome out;
    out.results["flows_completed"] = static_cast<double>(sc_->completed_flows());
    out.results["flows_total"] = static_cast<double>(sc_->total_flows());
    out.results["drops"] = static_cast<double>(sc_->total_drops());
    out.results["marks"] = static_cast<double>(sc_->total_marks());
    const pmsb::stats::FctCollector& fct = sc_->fct();
    add_summary("small", fct.fct_us(pmsb::stats::SizeBin::kSmall), out);
    add_summary("medium", fct.fct_us(pmsb::stats::SizeBin::kMedium), out);
    add_summary("large", fct.fct_us(pmsb::stats::SizeBin::kLarge), out);
    add_summary("overall", fct.overall_fct_us(), out);
    const pmsb::stats::DeadlineStats deadlines = fct.deadline_stats();
    if (deadlines.total > 0) {
      out.results["deadline.total"] = static_cast<double>(deadlines.total);
      out.results["deadline.misses"] = static_cast<double>(deadlines.missed);
      out.results["deadline.miss_fraction"] = deadlines.miss_fraction();
    }
    out.results["sim.events_executed"] =
        static_cast<double>(sc_->simulator().executed_events());
    obs_.finish(out);
    sc_->finalize_digest();
    finish_digest(digest_.get(), out);

    for (std::size_t i = 0; i < cfg_.num_leaves; ++i) add_port_totals(sc_->leaf(i), out);
    for (std::size_t i = 0; i < cfg_.num_spines; ++i) add_port_totals(sc_->spine(i), out);
    // Registration only reads counters; binding after the run keeps the
    // run itself identical to run_scenario's.
    pmsb::telemetry::MetricsRegistry registry;
    sc_->bind_metrics(registry);
    for (const auto& snap : registry.collect()) {
      const auto v = static_cast<std::uint64_t>(snap.value);
      if (snap.name == "transport.segments_sent") out.segments_sent = v;
      if (snap.name == "transport.retransmits") out.retransmits = v;
      if (snap.name == "transport.timeouts") out.timeouts = v;
    }
    check_fct_bounds(out);
    return out;
  }

  std::uint64_t offered_link_bytes() const override {
    std::uint64_t total = 0;
    for (const pmsb::workload::FlowSpec& spec : wl_.flows) total += spec.bytes * links(spec);
    return total;
  }
  sim::Simulator& simulator() override { return sc_->simulator(); }
  const std::vector<pmsb::faults::LinkRef>& link_refs() const override {
    return sc_->link_refs();
  }
  pmsb::faults::InvariantChecker& checker() override { return *obs_.checker; }
  bool is_switch(const pmsb::net::Node* node) const override {
    for (std::size_t i = 0; i < cfg_.num_leaves; ++i) {
      if (node == &sc_->leaf(i)) return true;
    }
    for (std::size_t i = 0; i < cfg_.num_spines; ++i) {
      if (node == &sc_->spine(i)) return true;
    }
    return false;
  }

 private:
  /// Links a flow's path crosses each way: 2 within a leaf, 4 across.
  [[nodiscard]] std::uint64_t links(const pmsb::workload::FlowSpec& spec) const {
    return spec.src / cfg_.hosts_per_leaf == spec.dst / cfg_.hosts_per_leaf ? 2 : 4;
  }

  /// FCT >= size/line-rate + unloaded path RTT: serializing the payload once
  /// at line rate, propagation over every hop both ways, and the ACK's
  /// serialization on each return hop. Flow ids are assigned 1.. in
  /// workload order.
  void check_fct_bounds(Outcome& out) const {
    const sim::TimeNs ack_ser =
        sim::serialization_delay(pmsb::net::kAckBytes, cfg_.link_rate);
    for (const pmsb::stats::FctRecord& r : sc_->fct().records()) {
      ++out.fct_checked;
      const pmsb::workload::FlowSpec& spec = wl_.flows.at(r.flow - 1);
      const auto hops = static_cast<sim::TimeNs>(links(spec));
      const sim::TimeNs bound = sim::serialization_delay(spec.bytes, cfg_.link_rate) +
                                2 * hops * cfg_.link_delay + hops * ack_ser;
      if (spec.bytes != r.bytes || r.fct < bound) ++out.fct_below_bound;
    }
  }

  Options opts_;
  experiments::LeafSpineConfig cfg_;
  pmsb::workload::Workload wl_;
  std::unique_ptr<pmsb::regress::RunDigest> digest_;  // outlives the scenario
  std::unique_ptr<experiments::LeafSpineScenario> sc_;
  Observers obs_;
};

class DumbbellBench final : public BenchScenario {
 public:
  explicit DumbbellBench(const Options& opts) : opts_(opts) {
    if (opts.get_int("queues", 2) != static_cast<std::int64_t>(kQueues)) {
      throw std::invalid_argument("pmsbbench runs the dumbbell with queues=8");
    }
    cfg_.scheduler = dwrr_scheduler();
    flows_per_queue_ = opts.get_double_list("flows_per_queue");
    if (flows_per_queue_.size() != kQueues) {
      throw std::invalid_argument("flows_per_queue must have one entry per queue");
    }
    std::size_t total_flows = 0;
    for (double f : flows_per_queue_) total_flows += static_cast<std::size_t>(f);
    cfg_.num_senders = total_flows;
    params_.capacity = cfg_.link_rate;
    params_.rtt = sim::microseconds_f(18.0);
    params_.weights = cfg_.scheduler.weights;
    cfg_.marking = experiments::make_scheme_marking(kScheme, params_);
  }

  void build() override {
    sc_ = std::make_unique<experiments::DumbbellScenario>(cfg_);
    experiments::apply_scheme_transport(kScheme, params_, sc_->base_rtt(), cfg_.transport);
  }

  void generate() override {
    std::size_t sender = 0;
    for (std::size_t q = 0; q < kQueues; ++q) {
      for (std::size_t f = 0; f < static_cast<std::size_t>(flows_per_queue_[q]); ++f) {
        specs_.push_back({.sender = sender++,
                          .service = static_cast<pmsb::net::ServiceId>(q),
                          .bytes = 0,
                          .start = 0,
                          .pmsbe = cfg_.transport.pmsbe_enabled,
                          .pmsbe_rtt_threshold = cfg_.transport.pmsbe_rtt_threshold});
      }
    }
  }

  void add_workload() override {
    for (const experiments::DumbbellFlowSpec& spec : specs_) {
      const std::size_t idx = sc_->add_flow(spec);
      sc_->flow(idx).sender().set_rtt_observer([this](sim::TimeNs t) {
        if (sc_->simulator().now() > sim::milliseconds(5)) {
          rtt_.add(sim::to_microseconds(t));
        }
      });
    }
  }

  void attach() override { obs_.attach(*sc_, opts_, nullptr); }

  void run() override {
    sc_->run(sim::milliseconds(10));
    start_.assign(kQueues, 0);
    for (std::size_t q = 0; q < kQueues; ++q) start_[q] = sc_->served_bytes(q);
    sc_->run(sim::milliseconds(10) + duration());
  }

  Outcome finish() override {
    Outcome out;
    for (std::size_t q = 0; q < kQueues; ++q) {
      out.results["throughput_gbps.q" + std::to_string(q)] =
          static_cast<double>(sc_->served_bytes(q) - start_[q]) * 8.0 /
          static_cast<double>(duration());
    }
    const pmsb::switchlib::PortStats& st = sc_->bottleneck().stats();
    out.results["rtt_us.mean"] = rtt_.mean();
    out.results["rtt_us.p99"] = rtt_.percentile(99);
    out.results["marks"] = static_cast<double>(st.marked_enqueue + st.marked_dequeue);
    out.results["drops"] = static_cast<double>(st.dropped_packets);
    out.results["sim.events_executed"] =
        static_cast<double>(sc_->simulator().executed_events());
    obs_.finish(out);

    add_port_totals(sc_->fabric(), out);
    for (std::size_t i = 0; i < sc_->num_flows(); ++i) {
      const pmsb::transport::SenderStats& s = sc_->flow(i).sender().stats();
      out.segments_sent += s.segments_sent;
      out.retransmits += s.retransmits;
      out.timeouts += s.timeouts;
    }
    return out;
  }

  std::uint64_t offered_link_bytes() const override { return 0; }
  sim::Simulator& simulator() override { return sc_->simulator(); }
  const std::vector<pmsb::faults::LinkRef>& link_refs() const override {
    return sc_->link_refs();
  }
  pmsb::faults::InvariantChecker& checker() override { return *obs_.checker; }
  bool is_switch(const pmsb::net::Node* node) const override {
    return node == &sc_->fabric();
  }

 private:
  [[nodiscard]] sim::TimeNs duration() const {
    return sim::milliseconds(opts_.get_int("duration_ms", 50));
  }

  Options opts_;
  experiments::DumbbellConfig cfg_;
  std::vector<double> flows_per_queue_;
  experiments::SchemeParams params_;
  std::vector<experiments::DumbbellFlowSpec> specs_;
  pmsb::stats::Summary rtt_;
  std::vector<std::uint64_t> start_;
  std::unique_ptr<experiments::DumbbellScenario> sc_;
  Observers obs_;
};

/// Option keys the copy reads on `topology`.
const std::vector<std::string>& supported_keys(const std::string& topology) {
  static const std::vector<std::string> leafspine = {
      "topology", "seed", "load", "flows", "pattern", "rpcs", "fanout", "rpc_bytes",
      "rpc_gap_us", "rpc_deadline_us", "d2tcp", "buffer_policy", "buffer_bytes",
      "digest", "profile", "stability"};
  static const std::vector<std::string> dumbbell = {"topology", "queues",
                                                    "flows_per_queue", "duration_ms"};
  return topology == "dumbbell" ? dumbbell : leafspine;
}

}  // namespace

void check_keys(const Options& opts) {
  const std::string topology = opts.get("topology", "dumbbell");
  if (topology != "leafspine" && topology != "dumbbell") {
    throw std::invalid_argument("unknown topology '" + topology + "'");
  }
  opts.validate_keys(supported_keys(topology));
}

std::unique_ptr<BenchScenario> BenchScenario::create(const Options& opts) {
  check_keys(opts);
  if (opts.get("topology") == "leafspine") return std::make_unique<LeafSpineBench>(opts);
  return std::make_unique<DumbbellBench>(opts);
}

}  // namespace perfbench
