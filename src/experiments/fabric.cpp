#include "experiments/fabric.hpp"

#include <stdexcept>

namespace pmsb::experiments {

Fabric::Fabric(const FabricConfig& config, Detail flow_detail)
    : config_(config), sim_(config_.queue), flow_detail_(flow_detail) {}

Fabric::~Fabric() = default;

net::Host& Fabric::add_host(const std::string& name) {
  hosts_.push_back(
      std::make_unique<net::Host>(sim_, static_cast<net::HostId>(hosts_.size()), name));
  return *hosts_.back();
}

switchlib::Switch& Fabric::add_switch(const std::string& name, std::uint64_t ecmp_salt) {
  switches_.push_back(std::make_unique<switchlib::Switch>(sim_, name, ecmp_salt));
  return *switches_.back();
}

net::Link& Fabric::add_link(const net::Node& src, net::Node& dst, sim::RateBps rate,
                            sim::TimeNs delay) {
  links_.push_back(std::make_unique<net::Link>(sim_, rate, delay, &dst));
  link_refs_.push_back({src.name(), dst.name(), links_.back().get()});
  return *links_.back();
}

switchlib::Port& Fabric::attach_host(net::Host& host, switchlib::Switch& sw,
                                     const switchlib::PortConfig& port,
                                     sim::RateBps up_rate, sim::RateBps down_rate,
                                     sim::TimeNs delay) {
  host.attach_uplink(&add_link(host, sw, up_rate, delay));
  const std::size_t idx = sw.add_port(&add_link(sw, host, down_rate, delay), port);
  sw.routing().add_route(host.id(), idx);
  return sw.port(idx);
}

void Fabric::share_buffer(const std::vector<switchlib::Port*>& ports,
                          telemetry::Labels labels, const std::string& column) {
  const std::uint64_t pool_bytes = config_.shared_pool_bytes;
  if (pool_bytes == 0 &&
      config_.buffer_policy.kind == switchlib::BufferPolicyKind::kStaticPerPort) {
    return;
  }
  const std::uint64_t bytes =
      pool_bytes > 0 ? pool_bytes
                     : config_.buffer_bytes * static_cast<std::uint64_t>(ports.size());
  pools_.push_back({std::make_unique<switchlib::BufferPool>(bytes), std::move(labels),
                    column + ".free_pool_bytes"});
  for (switchlib::Port* port : ports) port->attach_pool(pools_.back().pool.get());
}

std::vector<switchlib::Port*> Fabric::ports_of(switchlib::Switch& sw) {
  std::vector<switchlib::Port*> ports;
  for (std::size_t p = 0; p < sw.num_ports(); ++p) ports.push_back(&sw.port(p));
  return ports;
}

std::string Fabric::link_name(const net::Link* link) const {
  for (const faults::LinkRef& ref : link_refs_) {
    if (ref.link == link) return ref.src + "->" + ref.dst;
  }
  throw std::logic_error("fabric: link not created by this fabric");
}

// --- Flows -----------------------------------------------------------------

std::size_t Fabric::add_flow(const workload::FlowSpec& spec,
                             const transport::DctcpConfig& tc, bool deferred) {
  const std::size_t idx = flows_.size();
  auto flow = std::make_unique<transport::Flow>(sim_, *hosts_.at(spec.src),
                                                *hosts_.at(spec.dst), next_flow_id_++,
                                                spec.service, spec.bytes, tc);
  transport::DctcpSender& sender = flow->sender();
  if (spec.deadline > 0) sender.set_deadline(spec.deadline);
  sender.set_completion_callback(
      [this, idx](sim::TimeNs fct) { on_flow_complete(idx, fct); });
  if (!deferred) flow->start(spec.start);
  realized_start_.push_back(deferred ? sim::kTimeNever : spec.start);
  flows_.push_back(std::move(flow));
  specs_.push_back(spec);
  return idx;
}

void Fabric::on_flow_complete(std::size_t idx, sim::TimeNs fct) {
  const transport::DctcpSender& s = flows_[idx]->sender();
  const workload::FlowSpec& done = specs_[idx];
  fct_.record({s.flow_id(), done.bytes, s.start_time(), fct, done.service, done.pattern,
               done.deadline, done.deadline == 0 || sim_.now() <= done.deadline,
               done.group, done.stage});
  ++completed_;
  if (tracker_ != nullptr && idx < tracked_flows_) {
    for (const std::size_t released : tracker_->on_flow_complete(idx, sim_.now())) {
      realized_start_[released] = sim_.now();
      flows_[released]->start(sim_.now());
    }
  }
  if (stop_when_complete_ && completed_ == flows_.size()) sim_.stop();
}

void Fabric::add_workload(const std::vector<workload::FlowSpec>& specs) {
  workload::Workload wl;
  wl.flows = specs;
  add_workload(wl);
}

void Fabric::add_workload(const workload::Workload& wl) {
  if (!wl.groups.empty()) {
    if (!flows_.empty() || tracker_ != nullptr) {
      throw std::invalid_argument(
          "fabric: a grouped workload must be the only workload added");
    }
    tracker_ = std::make_unique<workload::GroupTracker>(wl);
    tracked_flows_ = wl.flows.size();
  }
  for (const workload::FlowSpec& spec : wl.flows) {
    const std::size_t idx = flows_.size();
    add_flow(spec, config_.transport,
             tracker_ != nullptr && idx < tracked_flows_ && tracker_->deferred(idx));
  }
}

std::vector<workload::FlowSpec> Fabric::realized_workload() const {
  std::vector<workload::FlowSpec> out;
  out.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (realized_start_[i] == sim::kTimeNever) continue;  // never released
    workload::FlowSpec spec = specs_[i];
    spec.start = realized_start_[i];
    out.push_back(spec);
  }
  return out;
}

bool Fabric::run_until_complete(sim::TimeNs max_time) {
  stop_when_complete_ = true;
  sim_.run(max_time);
  return all_complete();
}

bool Fabric::all_complete() const {
  for (const auto& f : flows_) {
    if (!f->sender().complete()) return false;
  }
  return true;
}

std::uint64_t Fabric::total_bytes_acked() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f->sender().bytes_acked();
  return total;
}

// --- Totals ----------------------------------------------------------------

std::uint64_t Fabric::total_marks() const {
  std::uint64_t marks = 0;
  for (const ObservedPort& op : observed_) {
    marks += op.port->stats().marked_enqueue + op.port->stats().marked_dequeue;
  }
  return marks;
}

std::uint64_t Fabric::total_drops() const {
  std::uint64_t drops = 0;
  for (const ObservedPort& op : observed_) drops += op.port->stats().dropped_packets;
  return drops;
}

std::array<std::uint64_t, switchlib::kNumDropReasons> Fabric::total_drops_by_reason()
    const {
  std::array<std::uint64_t, switchlib::kNumDropReasons> drops{};
  for (const ObservedPort& op : observed_) {
    const auto& by_reason = op.port->stats().dropped_by_reason;
    for (std::size_t r = 0; r < drops.size(); ++r) drops[r] += by_reason[r];
  }
  return drops;
}

// --- Metrics -----------------------------------------------------------------

void Fabric::bind_metrics(telemetry::MetricsRegistry& registry) {
  for (const ObservedPort& op : observed_) op.port->bind_metrics(registry, op.labels);
  for (const SharedPool& sp : pools_) sp.pool->bind_metrics(registry, sp.labels);
  if (flow_detail_ == Detail::kFull) {
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      flows_[i]->sender().bind_metrics(registry, {{"flow", std::to_string(i)}});
    }
    return;
  }
  // Fabric-wide transport aggregates, summed over flows at collect time so
  // the instrument count stays independent of workload size.
  auto sum = [this](std::uint64_t transport::SenderStats::* cell) {
    return [this, cell]() -> std::uint64_t {
      std::uint64_t total = 0;
      for (const auto& f : flows_) total += f->sender().stats().*cell;
      return total;
    };
  };
  registry.counter_fn("transport.segments_sent", {},
                      sum(&transport::SenderStats::segments_sent), "segments");
  registry.counter_fn("transport.retransmits", {},
                      sum(&transport::SenderStats::retransmits), "segments");
  registry.counter_fn("transport.timeouts", {},
                      sum(&transport::SenderStats::timeouts), "events");
  registry.counter_fn("transport.ece_acks", {},
                      sum(&transport::SenderStats::ece_acks), "acks");
  registry.counter_fn("transport.ece_ignored", {},
                      sum(&transport::SenderStats::ece_ignored), "acks");
  registry.counter_fn("transport.window_cuts", {},
                      sum(&transport::SenderStats::window_cuts), "cuts");
  registry.counter_fn(
      "flows.completed", {},
      [this]() -> std::uint64_t { return completed_; }, "flows");
  registry.counter_fn(
      "flows.total", {},
      [this]() -> std::uint64_t { return flows_.size(); }, "flows");
}

void Fabric::add_sampler_columns(telemetry::TimeSeriesSampler& sampler) {
  for (const ObservedPort& op : observed_) {
    switchlib::Port& port = *op.port;
    sampler.add_probe(op.column + ".occupancy_bytes", [&port] {
      return static_cast<double>(port.buffered_bytes());
    });
    if (op.detail == Detail::kFull) {
      for (std::size_t q = 0; q < port.scheduler().num_queues(); ++q) {
        sampler.add_probe(op.column + ".q" + std::to_string(q) + ".backlog_bytes",
                          [&port, q] { return static_cast<double>(port.queue_bytes(q)); });
      }
    }
    sampler.add_rate(op.column + ".mark_rate_pps", [&port]() -> std::uint64_t {
      return port.stats().marked_enqueue + port.stats().marked_dequeue;
    });
  }
  for (const SharedPool& sp : pools_) {
    sampler.add_probe(sp.column, [pool = sp.pool.get()] {
      return static_cast<double>(pool->free_bytes());
    });
  }
  for (const ObservedPort& op : observed_) {
    if (op.detail != Detail::kFull || op.port->pool() == nullptr) continue;
    sampler.add_probe(op.column + ".admit_threshold_bytes", [&port = *op.port] {
      return static_cast<double>(port.admission_threshold_bytes());
    });
  }
}

// --- Robustness plane --------------------------------------------------------

void Fabric::install_faults(faults::FaultPlan& plan, std::uint64_t seed) {
  plan.install(sim_, link_refs_, seed);
  plan_ = &plan;
}

std::shared_ptr<const faults::FlowLiveness> Fabric::install_invariants(
    faults::InvariantChecker& checker) {
  for (auto& sw : switches_) faults::add_switch_checks(checker, *sw);
  for (const auto& h : hosts_) ledger_.add_host(h.get());
  for (const auto& sw : switches_) ledger_.add_switch(sw.get());
  for (const auto& link : links_) ledger_.add_link(link.get());
  ledger_.set_fault_plan(plan_);
  ledger_.register_check(checker);
  return faults::add_flow_liveness_check(checker, flows_);
}

// --- Regression plane --------------------------------------------------------

void Fabric::install_digest(regress::RunDigest& digest) {
  digest_ = &digest;
  digest_ports_.clear();
  for (const ObservedPort& op : observed_) {
    const regress::EntityId port_id = digest.register_entity(op.digest_entity);
    planes_.digest(*op.port, digest, port_id);
    regress::EntityId link_id = 0;
    if (op.detail == Detail::kFull) {
      link_id = digest.register_entity("link/" + link_name(op.port->link()));
      planes_.digest(*op.port->link(), digest, link_id);
    }
    digest_ports_.emplace_back(port_id, link_id);
  }
  digest_flows_.clear();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const regress::EntityId id = digest.register_entity("flow/" + std::to_string(i));
    digest_flows_.push_back(id);
    planes_.digest(flows_[i]->sender(), digest, id);
  }
}

void Fabric::finalize_digest() {
  if (digest_ == nullptr) return;
  regress::RunDigest& d = *digest_;
  for (std::size_t i = 0; i < observed_.size(); ++i) {
    const bool full = observed_[i].detail == Detail::kFull;
    const switchlib::PortStats& ps = observed_[i].port->stats();
    const auto [id, link_id] = digest_ports_.at(i);
    d.stat(id, "enqueued_packets", ps.enqueued_packets);
    d.stat(id, "dequeued_packets", ps.dequeued_packets);
    d.stat(id, "dropped_packets", ps.dropped_packets);
    if (full) d.stat(id, "dropped_bytes", ps.dropped_bytes);
    d.stat(id, "marked_enqueue", ps.marked_enqueue);
    d.stat(id, "marked_dequeue", ps.marked_dequeue);
    if (!full) continue;
    for (std::size_t q = 0; q < ps.marked_per_queue.size(); ++q) {
      d.stat(id, "marked.q" + std::to_string(q), ps.marked_per_queue[q]);
    }
    const net::Link* link = observed_[i].port->link();
    d.stat(link_id, "bytes_sent", link->bytes_sent());
    d.stat(link_id, "packets_sent", link->packets_sent());
    d.stat(link_id, "packets_delivered", link->packets_delivered());
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const transport::DctcpSender& s = flows_[i]->sender();
    const regress::EntityId id = digest_flows_.at(i);
    const transport::SenderStats& st = s.stats();
    d.stat(id, "segments_sent", st.segments_sent);
    d.stat(id, "retransmits", st.retransmits);
    d.stat(id, "timeouts", st.timeouts);
    d.stat(id, "acks_received", st.acks_received);
    d.stat(id, "ece_acks", st.ece_acks);
    d.stat(id, "ece_ignored", st.ece_ignored);
    if (flow_detail_ == Detail::kFull) d.stat(id, "window_cuts", st.window_cuts);
    d.stat(id, "bytes_acked", s.bytes_acked());
    d.stat(id, "complete", s.complete() ? 1 : 0);
    d.stat(id, "completion_time",
           static_cast<std::uint64_t>(s.complete() ? s.completion_time() : 0));
  }
}

// --- Observability plane -----------------------------------------------------

void Fabric::install_profiler(telemetry::Profiler& profiler) {
  profiler.attach(sim_);
  for (const ObservedPort& op : observed_) op.port->set_profiler(&profiler);
  for (auto& flow : flows_) flow->sender().set_profiler(&profiler);
}

void Fabric::install_span_tracer(trace::SpanTracer& spans) {
  for (const ObservedPort& op : observed_) planes_.spans(*op.port, spans, op.span_node);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    // Watched flows only record; unwatched ones pay a hash lookup at most.
    planes_.spans(flows_[i]->sender(), spans, hosts_.at(specs_[i].src)->name());
  }
  for (net::Link* link : last_hops_) planes_.spans(*link, spans, link_name(link));
}

void Fabric::install_tracer(trace::Tracer& tracer) {
  planes_.trace(*trace_port_, tracer);
}

}  // namespace pmsb::experiments
