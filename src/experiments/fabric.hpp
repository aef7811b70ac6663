// Fabric: the simulator, hosts, switches, links, buffer pools and flows of
// one topology, and the one place every plane is wired to them — faults,
// invariants, digest, profiler, spans, port tracer, metrics and the sampler.
// The per-packet planes (digest, spans, port tracer) share one observer,
// PacketPlanes, that every observed component reports to.
//
// A topology is a thin builder that derives from Fabric. Its constructor
// emits the graph with add_host / add_switch / add_link / attach_host /
// share_buffer and then states, as data, what differs per topology: the
// ports the planes observe (with their name in each plane and how much of
// them is recorded), the last-hop links spans time, the trace port and the
// default bleach nodes. Everything else works the same on every topology.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ecn/factory.hpp"
#include "experiments/packet_planes.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "faults/standard_checks.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "regress/digest.hpp"
#include "sched/factory.hpp"
#include "sim/simulator.hpp"
#include "stats/fct.hpp"
#include "switchlib/switch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/sampler.hpp"
#include "trace/spans.hpp"
#include "trace/tracer.hpp"
#include "transport/dctcp.hpp"
#include "workload/coflow.hpp"
#include "workload/traffic_gen.hpp"

namespace pmsb::experiments {

/// Settings every topology shares. Which ports are "under study" and where
/// the shared pools sit is each topology's choice.
struct FabricConfig {
  sim::RateBps link_rate = sim::gbps(10);
  sim::TimeNs link_delay = sim::microseconds(2);  ///< one-way, per link
  sched::SchedulerConfig scheduler;               ///< ports under study
  ecn::MarkingConfig marking;                     ///< ports under study
  std::uint64_t buffer_bytes = 1024ull * 1500ull; ///< per port under study
  /// Shared-buffer admission policy (`buffer_policy=` at the CLI). The
  /// default static policy with no pool is digest-identical to the
  /// historical per-port drop-tail.
  switchlib::BufferPolicyConfig buffer_policy;
  /// Size of each shared buffer pool in bytes (`buffer_bytes=` at the CLI).
  /// 0 with a static policy means no pool; 0 with equal/dt defaults to
  /// buffer_bytes per pooled port, the static budgets the pool replaces.
  std::uint64_t shared_pool_bytes = 0;
  transport::DctcpConfig transport;  ///< default per-flow config
  /// Event-queue backend for the kernel (`sched_queue=` at the CLI). Either
  /// choice produces bit-identical runs; calendar is faster at scale.
  sim::QueueBackend queue = sim::QueueBackend::kHeap;
};

/// How much of an entity the planes record. kFull is for the few ports and
/// flows under study: per-queue backlog and admission-threshold columns,
/// dropped bytes, per-queue marks and the port's link in the digest,
/// per-flow metrics and window cuts. kSummary is for fabrics of many ports
/// and thousands of flows: flows are then metered in aggregate.
enum class Detail { kSummary, kFull };

/// A switch port the planes observe, with its name in each of them.
struct ObservedPort {
  switchlib::Port* port = nullptr;
  std::string digest_entity;  ///< digest entity, "port/..."
  telemetry::Labels labels;   ///< metric labels
  std::string column;         ///< sampler column prefix
  std::string span_node;      ///< span node name
  Detail detail = Detail::kSummary;
};

class Fabric {
 public:
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  void run(sim::TimeNs until) { sim_.run(until); }
  /// Runs until every flow completes, or `max_time` if sooner; from then on
  /// the last completion stops the kernel. Returns true if all completed.
  bool run_until_complete(sim::TimeNs max_time);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Host& host(std::size_t idx) { return *hosts_.at(idx); }
  [[nodiscard]] std::size_t num_hosts() const { return hosts_.size(); }
  /// The first shared buffer pool, or nullptr when the fabric is pool-less.
  [[nodiscard]] switchlib::BufferPool* pool() {
    return pools_.empty() ? nullptr : pools_.front().pool.get();
  }

  // --- Flows ---
  /// Instantiates one DCTCP flow per spec with the fabric's transport
  /// config; completions land in fct().
  void add_workload(const std::vector<workload::FlowSpec>& specs);
  /// Like the vector overload, but when the workload carries groups a
  /// GroupTracker enforces the coflow stage barriers (stage > 0 flows are
  /// created up front with their start deferred to the barrier crossing)
  /// and per-spec deadlines land on the senders for the D2TCP path. A
  /// grouped workload must be the first and only workload added.
  void add_workload(const workload::Workload& wl);
  /// Barrier bookkeeping for a grouped workload; nullptr for plain lists.
  [[nodiscard]] const workload::GroupTracker* group_tracker() const {
    return tracker_.get();
  }
  /// The workload as it actually ran: every started flow's spec with its
  /// *realized* start time (barrier-released flows start at the barrier, not
  /// their nominal group start). Flows still waiting behind an uncrossed
  /// barrier are omitted. This is what `trace_export=` serializes.
  [[nodiscard]] std::vector<workload::FlowSpec> realized_workload() const;

  [[nodiscard]] transport::Flow& flow(std::size_t idx) { return *flows_.at(idx); }
  [[nodiscard]] std::size_t num_flows() const { return flows_.size(); }
  [[nodiscard]] std::size_t completed_flows() const { return completed_; }
  [[nodiscard]] stats::FctCollector& fct() { return fct_; }
  /// True when every flow has completed. A long-lived flow never completes,
  /// so with one present this stays false — flat progress then counts as a
  /// stall, which is what the watchdog wants for a duration-based run.
  [[nodiscard]] bool all_complete() const;
  /// Total bytes cumulatively acked — the watchdog's progress measure.
  [[nodiscard]] std::uint64_t total_bytes_acked() const;

  // --- Totals over the observed ports ---
  [[nodiscard]] std::uint64_t total_marks() const;
  [[nodiscard]] std::uint64_t total_drops() const;
  /// Drops split by admission refusal reason (indexed by DropReason).
  [[nodiscard]] std::array<std::uint64_t, switchlib::kNumDropReasons>
  total_drops_by_reason() const;

  // --- Metrics ---
  /// Registers every observed port's instruments under its labels, each
  /// pool's, and the flows': per flow (label `flow=<idx>`) under kFull flow
  /// detail, otherwise fabric-wide transport sums read at collect time.
  /// Per-flow instruments cover flows added so far — bind after the flows.
  void bind_metrics(telemetry::MetricsRegistry& registry);
  /// Adds occupancy and mark-rate columns per observed port (plus per-queue
  /// backlog for kFull ports), a free-bytes column per pool, then an
  /// admission-threshold column per pooled kFull port. Call before
  /// sampler.start().
  void add_sampler_columns(telemetry::TimeSeriesSampler& sampler);

  // --- Robustness plane ---
  /// Every directed link, named by endpoints ("h3" -> "leaf0", "switch" ->
  /// "receiver", ...), for fault-plane matching.
  [[nodiscard]] const std::vector<faults::LinkRef>& link_refs() const {
    return link_refs_;
  }
  /// Interposes the plan's injectors into this fabric and remembers the plan
  /// so the conservation ledger accounts for its drops and delay stage.
  void install_faults(faults::FaultPlan& plan, std::uint64_t seed);
  /// Registers the standard invariants (port accounting on every switch,
  /// packet conservation, flow liveness) on `checker`. Call at most once,
  /// after install_faults if a plan is in play. Flows added later are still
  /// checked; the returned liveness state tells how many are left to visit.
  std::shared_ptr<const faults::FlowLiveness> install_invariants(
      faults::InvariantChecker& checker);
  /// Test hook for the deliberate-violation fixture.
  [[nodiscard]] faults::ConservationLedger& ledger() { return ledger_; }
  /// Where `bleach=` applies when `bleach_at=` is not given.
  [[nodiscard]] const std::vector<std::string>& default_bleach_nodes() const {
    return bleach_nodes_;
  }

  // --- Regression plane ---
  /// Wires every observed port (and a kFull port's link, "link/<src>-><dst>")
  /// and every flow's sender ("flow/<idx>") into `digest`. Call after the
  /// flows are added; the digest must outlive the fabric. finalize_digest()
  /// folds the final per-entity stats — call it once, after the run.
  void install_digest(regress::RunDigest& digest);
  void finalize_digest();

  // --- Observability plane ---
  /// Attaches `profiler` to the kernel, every observed port and every flow's
  /// sender. Call after the flows are added; the profiler must outlive the
  /// fabric's last event (it detaches itself from the kernel on destruction).
  void install_profiler(telemetry::Profiler& profiler);
  /// Wires span capture for watched flows: kSend/kAck at the source hosts,
  /// kEnqueue/kDequeue/kMark/kDrop at every observed port, and kLinkTx/kRx
  /// on the last-hop links only, so kRx always means arrival at the receiver
  /// and the FCT decomposition stays well-formed. Call after the flows are
  /// added; `spans` must outlive the fabric.
  void install_span_tracer(trace::SpanTracer& spans);
  /// Records every event at the trace port (the one `trace_ndjson=`
  /// exports) in `tracer`, which must outlive the fabric.
  void install_tracer(trace::Tracer& tracer);

 protected:
  /// `flow_detail` says how the planes see this fabric's flows.
  Fabric(const FabricConfig& config, Detail flow_detail);
  ~Fabric();

  // --- Graph building ---
  /// Adds a host whose id is its index.
  net::Host& add_host(const std::string& name);
  switchlib::Switch& add_switch(const std::string& name, std::uint64_t ecmp_salt = 0);
  /// A directed link into `dst`, named src -> dst for the fault plane.
  net::Link& add_link(const net::Node& src, net::Node& dst, sim::RateBps rate,
                      sim::TimeNs delay);
  /// Cables `host` to `sw`: the host's uplink at `up_rate`, and a switch port
  /// toward the host at `down_rate`, routed for the host's id. Returns that
  /// switch port.
  switchlib::Port& attach_host(net::Host& host, switchlib::Switch& sw,
                               const switchlib::PortConfig& port, sim::RateBps up_rate,
                               sim::RateBps down_rate, sim::TimeNs delay);
  /// Gives `ports` one shared buffer pool when the config asks for one or
  /// its policy needs one (equal division and DT mean nothing without a
  /// pool). Its metrics carry `labels`; its sampler column is
  /// "<column>.free_pool_bytes". Call once the ports exist.
  void share_buffer(const std::vector<switchlib::Port*>& ports,
                    telemetry::Labels labels, const std::string& column);
  [[nodiscard]] static std::vector<switchlib::Port*> ports_of(switchlib::Switch& sw);
  /// Creates one flow from `spec` with transport config `tc`; starts it at
  /// spec.start unless `deferred`. Returns its index.
  std::size_t add_flow(const workload::FlowSpec& spec, const transport::DctcpConfig& tc,
                       bool deferred = false);

  // --- What the planes see, stated by the builder ---
  std::vector<ObservedPort> observed_;
  std::vector<net::Link*> last_hops_;  ///< links whose far end is a receiver
  switchlib::Port* trace_port_ = nullptr;
  std::vector<std::string> bleach_nodes_;

 private:
  void on_flow_complete(std::size_t idx, sim::TimeNs fct);
  /// "<src>-><dst>" for a link this fabric created.
  [[nodiscard]] std::string link_name(const net::Link* link) const;

  struct SharedPool {
    std::unique_ptr<switchlib::BufferPool> pool;
    telemetry::Labels labels;
    std::string column;
  };

  FabricConfig config_;
  sim::Simulator sim_;
  /// Every observed component reports its packet events here.
  PacketPlanes planes_{sim_};
  Detail flow_detail_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<switchlib::Switch>> switches_;
  std::vector<SharedPool> pools_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<faults::LinkRef> link_refs_;
  faults::ConservationLedger ledger_;
  faults::FaultPlan* plan_ = nullptr;

  std::vector<std::unique_ptr<transport::Flow>> flows_;
  std::vector<workload::FlowSpec> specs_;  ///< flow idx -> originating spec
  /// Flow idx -> time the flow actually started; kTimeNever = not started
  /// yet (waiting behind a stage barrier).
  std::vector<sim::TimeNs> realized_start_;
  std::unique_ptr<workload::GroupTracker> tracker_;
  std::size_t tracked_flows_ = 0;  ///< flows covered by tracker_'s indexing
  stats::FctCollector fct_;
  std::size_t completed_ = 0;
  bool stop_when_complete_ = false;
  net::FlowId next_flow_id_ = 1;

  regress::RunDigest* digest_ = nullptr;
  /// Per observed port: its digest entity and, for kFull, its link's.
  std::vector<std::pair<regress::EntityId, regress::EntityId>> digest_ports_;
  std::vector<regress::EntityId> digest_flows_;
};

}  // namespace pmsb::experiments
