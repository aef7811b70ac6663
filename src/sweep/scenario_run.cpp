#include "sweep/scenario_run.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "experiments/fabric.hpp"
#include "experiments/leafspine.hpp"
#include "experiments/presets.hpp"
#include "faults/deadline.hpp"
#include "faults/fault_plan.hpp"
#include "faults/invariants.hpp"
#include "faults/watchdog.hpp"
#include "regress/digest.hpp"
#include "sim/rng.hpp"
#include "stats/csv.hpp"
#include "sweep/crash_inject.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/process_stats.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/sampler.hpp"
#include "trace/spans.hpp"
#include "trace/tracer.hpp"
#include "analysis/oscillation.hpp"
#include "workload/coflow.hpp"
#include "workload/flow_trace.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic_gen.hpp"

namespace pmsb::sweep {

namespace {

using namespace pmsb::experiments;

Scheme parse_scheme(const std::string& s) {
  if (s == "pmsb") return Scheme::kPmsb;
  if (s == "pmsbe" || s == "pmsb(e)") return Scheme::kPmsbE;
  if (s == "mq-ecn" || s == "mqecn") return Scheme::kMqEcn;
  if (s == "tcn") return Scheme::kTcn;
  if (s == "perport") return Scheme::kPerPort;
  if (s == "perqueue-std" || s == "perqueue") return Scheme::kPerQueueStd;
  if (s == "perqueue-frac") return Scheme::kPerQueueFrac;
  if (s == "none") return Scheme::kNone;
  throw std::invalid_argument("unknown scheme: " + s);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(',', start);
    if (pos == std::string::npos) {
      if (start < text.size()) out.push_back(text.substr(start));
      break;
    }
    if (pos > start) out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

/// One `trace_flows=` entry: a 1-based transport flow id in plain decimal.
net::FlowId parse_flow_id(const std::string& tok) {
  const bool digits = !tok.empty() && tok.size() <= 10 &&
                      std::all_of(tok.begin(), tok.end(),
                                  [](unsigned char c) { return std::isdigit(c) != 0; });
  const std::uint64_t id = digits ? std::stoull(tok) : 0;
  if (id == 0 || id > std::numeric_limits<net::FlowId>::max()) {
    throw std::invalid_argument(
        "trace_flows: '" + tok + "' is not a flow id (1.." +
        std::to_string(std::numeric_limits<net::FlowId>::max()) + ")");
  }
  return static_cast<net::FlowId>(id);
}

/// Optional telemetry wiring shared by every topology: a metrics registry +
/// run manifest when `metrics_json=` is given, a time-series sampler when
/// `timeseries_csv=` is given, a kernel/component profiler when `profile=1`
/// or `profile_json=` is given, and packet-lifecycle span capture when
/// `trace_flows=` is given. Constructing it starts the wall clock.
struct RunTelemetry {
  explicit RunTelemetry(const Options& opts, bool quiet_run)
      : metrics_path(opts.get("metrics_json")),
        ts_path(opts.get("timeseries_csv")),
        period(sim::microseconds_f(opts.get_double("sample_period_us", 100.0))),
        profile_path(opts.get("profile_json")),
        spans_path(opts.get("spans_ndjson")),
        trace_path(opts.get("trace_ndjson")),
        quiet(quiet_run) {
    manifest.set_config(opts.values());
    if (opts.get_bool("profile", false) || !profile_path.empty()) {
      profiler = std::make_unique<telemetry::Profiler>();
    }
    const std::string watch = opts.get("trace_flows");
    if (!watch.empty()) {
      spans = std::make_unique<trace::SpanTracer>();
      if (watch == "all") {
        spans->watch_all();
      } else {
        for (const std::string& tok : split_csv(watch)) {
          spans->watch_flow(parse_flow_id(tok));
        }
      }
    } else if (!spans_path.empty()) {
      throw std::invalid_argument(
          "spans_ndjson= needs trace_flows= (nothing would be captured)");
    }
  }

  /// Binds the fabric's instruments and starts the sampler. Call once the
  /// fabric has its flows (per-flow instruments bind at call time).
  void attach(Fabric& sc) {
    if (!metrics_path.empty()) {
      telemetry::bind_simulator_metrics(registry, sc.simulator());
      registry.gauge_fn("process.peak_rss_bytes", {}, [] {
        return static_cast<double>(telemetry::peak_rss_bytes());
      }, "bytes");
      sc.bind_metrics(registry);
    }
    if (profiler) sc.install_profiler(*profiler);
    if (spans) sc.install_span_tracer(*spans);
    if (!trace_path.empty()) {
      // Post-mortems want the tail of the event stream, so ring mode.
      tracer = std::make_unique<trace::Tracer>(1'000'000,
                                               trace::OverflowPolicy::kRingBuffer);
      sc.install_tracer(*tracer);
    }
    if (!ts_path.empty()) {
      sampler = std::make_unique<telemetry::TimeSeriesSampler>(sc.simulator(), period);
      sc.add_sampler_columns(*sampler);
      sampler->add_probe("process.peak_rss_bytes", [] {
        return static_cast<double>(telemetry::peak_rss_bytes());
      });
      // Stream rows as they are sampled so a watchdog / deadline abort
      // leaves a usable CSV behind instead of an empty file.
      sampler->stream_to(ts_path);
      sampler->start();
    }
  }

  /// Folds profiler / span / trace output into the record and manifest.
  /// Call after the run, before the record results are mirrored into the
  /// manifest. Only deterministic scalars go into rec.results — wall-clock
  /// times would make sweep reports run-to-run unstable.
  void finalize_observability(RunRecord& rec) {
    if (profiler) {
      const std::string json = profiler->to_json();
      manifest.set_profile_json(json);
      if (!profile_path.empty()) {
        std::ofstream out(profile_path);
        if (!out) {
          throw std::runtime_error("cannot open profile_json path " + profile_path);
        }
        out << json << '\n';
        if (!quiet) std::printf("wrote %s\n", profile_path.c_str());
      }
      rec.results["profile.dispatches"] = static_cast<double>(profiler->dispatches());
      rec.results["profile.events_scheduled"] =
          static_cast<double>(profiler->events_scheduled());
    }
    if (spans && !spans_path.empty()) {
      spans->write_ndjson(spans_path);
      if (!quiet) {
        std::printf("wrote %s (%zu spans, %llu overflow)\n", spans_path.c_str(),
                    spans->size(), static_cast<unsigned long long>(spans->overflow()));
      }
    }
    if (tracer) {
      tracer->write_ndjson(trace_path);
      if (!quiet) {
        std::printf("wrote %s (%zu events)\n", trace_path.c_str(),
                    tracer->records().size());
      }
    }
  }

  void finish(double sim_time_us) {
    if (sampler) {
      // Streaming mode already wrote every row (and survives aborts);
      // rewriting would only repeat the work.
      if (!sampler->streaming()) sampler->write_csv(ts_path);
      if (!quiet) {
        std::printf("wrote %s (%zu samples x %zu columns)\n", ts_path.c_str(),
                    sampler->rows(), sampler->num_columns());
      }
    }
    if (!metrics_path.empty()) {
      manifest.set_sim_time_us(sim_time_us);
      // Only completed runs reach finish(); the marker is what lets a
      // resumed sweep tell a salvageable manifest from a failed cell's stub.
      manifest.set_info("status", "ok");
      manifest.write(metrics_path, &registry);
      if (!quiet) {
        std::printf("wrote %s (%zu instruments)\n", metrics_path.c_str(),
                    registry.size());
      }
    }
  }

  std::string metrics_path;
  std::string ts_path;
  sim::TimeNs period;
  std::string profile_path;
  std::string spans_path;
  std::string trace_path;
  bool quiet;
  telemetry::MetricsRegistry registry;
  telemetry::RunManifest manifest{"pmsbsim"};
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
  std::unique_ptr<telemetry::Profiler> profiler;
  std::unique_ptr<trace::SpanTracer> spans;
  std::unique_ptr<trace::Tracer> tracer;
};

/// Robustness wiring shared by every topology: a FaultPlan built from the
/// `faults=` grammar plus the sweep-friendly `bleach=` sugar (grid values
/// cannot contain ':' or ',', so the headline bleach sweep gets its own
/// scalar key), an InvariantChecker (on by default; `invariants=0` opts
/// out), and a Watchdog when a horizon or event budget is configured.
///
/// Declare AFTER the fabric so it is destroyed first: the checker and
/// watchdog hold the fabric's simulator by reference.
struct Robustness {
  faults::FaultPlan plan;
  std::unique_ptr<faults::InvariantChecker> checker;
  std::unique_ptr<faults::Watchdog> watchdog;
  std::unique_ptr<faults::Deadline> deadline;

  void install(Fabric& sc, const Options& opts, std::function<std::string()> forensics) {
    std::string spec = opts.get("faults");
    if (opts.get_double("bleach", 0.0) > 0.0) {
      std::vector<std::string> nodes = opts.has("bleach_at")
                                           ? split_csv(opts.get("bleach_at"))
                                           : sc.default_bleach_nodes();
      for (const auto& node : nodes) {
        if (!spec.empty()) spec += ';';
        spec += "bleach:" + node + ":" + opts.get("bleach");
      }
    }
    if (!spec.empty()) {
      plan.add_spec_string(spec);
      // Decorrelate fault randomness from the workload stream.
      sc.install_faults(plan,
                        static_cast<std::uint64_t>(opts.get_int("seed", 1)) ^ 0xfa17);
    }

    if (opts.get_bool("invariants", true)) {
      checker = std::make_unique<faults::InvariantChecker>(sc.simulator());
      sc.install_invariants(*checker);
      if (opts.get("fault_test") == "break_invariant") {
        // Deliberately unbalance the conservation ledger so tests can prove
        // a violation is caught and reported, not silently absorbed.
        sc.ledger().skew_injected_for_test(1);
      }
      checker->start_periodic(
          sim::microseconds_f(opts.get_double("invariant_period_us", 100.0)));
    }

    if (opts.has("watchdog_horizon_ms") || opts.has("watchdog_events")) {
      faults::WatchdogConfig wcfg;
      wcfg.stall_horizon = sim::milliseconds(opts.get_int("watchdog_horizon_ms", 0));
      wcfg.max_events = static_cast<std::uint64_t>(opts.get_int("watchdog_events", 0));
      wcfg.period = sim::microseconds_f(opts.get_double("watchdog_period_us", 100.0));
      watchdog = std::make_unique<faults::Watchdog>(
          sc.simulator(), wcfg, [&sc] { return sc.total_bytes_acked(); },
          [&sc] { return sc.all_complete(); }, std::move(forensics));
      watchdog->start();
    }

    // Wall-clock budget: the watchdog bounds simulated time and events; the
    // deadline bounds host time. Expiry throws out of the event loop and
    // fails this cell alone.
    const double cell_timeout_s = opts.get_double("cell_timeout_s", 0.0);
    if (cell_timeout_s > 0.0) {
      deadline = std::make_unique<faults::Deadline>(
          sc.simulator(), cell_timeout_s,
          sim::microseconds_f(opts.get_double("cell_timeout_period_us", 500.0)));
      deadline->start();
    }

    if (opts.get("fault_test") == "wedge_callback") {
      // The cell_timeout_s blind spot made reproducible: the Deadline tick
      // is itself a sim event, so a callback that never returns starves the
      // event loop and the deadline can never fire (see
      // faults::Deadline::blind_spot_note()). Only the isolate=1
      // supervisor's parent-side hard kill recovers from this shape.
      sc.simulator().schedule_in(sim::milliseconds(1), [] {
        volatile std::uint64_t spin = 0;
        for (;;) spin = spin + 1;
      });
    }
  }

  void bind(telemetry::MetricsRegistry& registry) {
    plan.bind_metrics(registry);
    if (checker) checker->bind_metrics(registry);
    if (watchdog) watchdog->bind_metrics(registry);
    if (deadline) deadline->bind_metrics(registry);
  }

  /// Final validation after the run: one last invariant pass, per-cell
  /// fault/invariant counters into the record, and a throw (failing this
  /// cell in isolation) if the watchdog tripped or any invariant broke.
  void finalize(RunRecord& rec) {
    rec.results["faults.dropped"] = static_cast<double>(plan.dropped());
    rec.results["faults.bleached"] = static_cast<double>(plan.bleached());
    rec.results["faults.forwarded"] = static_cast<double>(plan.forwarded());
    if (checker) {
      checker->check_now();
      rec.results["invariants.evaluations"] = static_cast<double>(checker->evaluations());
      rec.results["invariants.violations"] =
          static_cast<double>(checker->total_violations());
    }
    if (watchdog) {
      rec.results["watchdog.tripped"] = watchdog->tripped() ? 1.0 : 0.0;
      if (watchdog->tripped()) throw std::runtime_error(watchdog->diagnostic());
    }
    if (checker && !checker->clean()) throw std::runtime_error(checker->summary());
  }
};

/// Offline stability analysis (`stability=1`): oscillation detection over
/// the run's sampled queue columns. Reuses the `timeseries_csv=` sampler
/// when one exists; otherwise runs a private in-memory sampler at
/// `sample_period_us` so the analysis needs no CSV side effect. Attach
/// before the run, finalize after — results land in `stability.*` columns.
struct StabilityPlane {
  bool enabled = false;
  telemetry::TimeSeriesSampler* sampler = nullptr;
  std::unique_ptr<telemetry::TimeSeriesSampler> own;

  void attach(Fabric& sc, RunTelemetry& telemetry, const Options& opts) {
    enabled = opts.get_bool("stability", false);
    if (!enabled) return;
    if (telemetry.sampler != nullptr) {
      sampler = telemetry.sampler.get();
      return;
    }
    own = std::make_unique<telemetry::TimeSeriesSampler>(
        sc.simulator(), sim::microseconds_f(opts.get_double("sample_period_us", 100.0)));
    sc.add_sampler_columns(*own);
    own->start();
    sampler = own.get();
  }

  void finalize(const Options& opts, RunRecord& rec) const {
    if (!enabled) return;
    analysis::OscillationConfig cfg;
    cfg.window = static_cast<std::size_t>(opts.get_int("stability_window", 64));
    cfg.hop = std::max<std::size_t>(cfg.window / 2, 1);
    cfg.min_autocorr = opts.get_double("stability_min_autocorr", 0.5);
    cfg.min_amplitude = opts.get_double("stability_min_amp_bytes", 18000.0);
    cfg.min_windows = static_cast<std::size_t>(opts.get_int("stability_min_windows", 3));
    const analysis::StabilityReport report = analysis::analyze_sampler(*sampler, cfg);
    rec.results["stability.ports_analyzed"] =
        static_cast<double>(report.ports_analyzed);
    rec.results["stability.oscillating_ports"] =
        static_cast<double>(report.oscillating_ports);
    rec.results["stability.dominant_period_us"] = report.dominant_period_us;
    rec.results["stability.amplitude_bytes"] = report.amplitude_bytes;
    rec.results["stability.max_autocorr"] = report.max_autocorr;
  }
};

/// Every plane of one run, attached to the fabric at construction in a fixed
/// order (digest, robustness, telemetry, stability), and the report tail every
/// topology shares. Declare AFTER the fabric so it is destroyed first.
class RunPlanes {
 public:
  /// `seed` is what the manifest records; `forensics` describes progress in
  /// a watchdog dump. Call once the fabric has its flows.
  RunPlanes(Fabric& fab, const Options& opts, bool quiet, regress::RunDigest* digest,
            std::uint64_t seed, std::function<std::string()> forensics)
      : fab_(fab), opts_(opts), digest_(digest), telemetry_(opts, quiet) {
    if (digest_ != nullptr) fab_.install_digest(*digest_);
    robust_.install(fab_, opts_, std::move(forensics));
    telemetry_.attach(fab_);
    stability_.attach(fab_, telemetry_, opts_);
    if (!telemetry_.metrics_path.empty()) robust_.bind(telemetry_.registry);
    telemetry_.manifest.set_seed(seed);
  }

  /// After the run and the topology's own results: the observed-port
  /// totals, final validation, digest and observability output. Mirrors
  /// every record result and info into the manifest, so a resumed sweep can
  /// rehydrate a bit-identical RunRecord from the file alone, and writes it.
  void finish(RunRecord& rec) {
    rec.results["marks"] = static_cast<double>(fab_.total_marks());
    rec.results["drops"] = static_cast<double>(fab_.total_drops());
    const auto by_reason = fab_.total_drops_by_reason();
    for (std::size_t r = 0; r < by_reason.size(); ++r) {
      rec.results[std::string("drops.") +
                  switchlib::drop_reason_name(static_cast<switchlib::DropReason>(r))] =
          static_cast<double>(by_reason[r]);
    }
    rec.results["sim.events_executed"] =
        static_cast<double>(fab_.simulator().executed_events());
    stability_.finalize(opts_, rec);
    robust_.finalize(rec);
    fab_.finalize_digest();
    if (digest_ != nullptr) {
      rec.info["digest"] = digest_->total().hex();
      rec.results["digest.events"] = static_cast<double>(digest_->count());
    }
    telemetry_.finalize_observability(rec);
    rec.sim_time_us = sim::to_microseconds(fab_.simulator().now());
    for (const auto& [k, v] : rec.results) telemetry_.manifest.set_result(k, v);
    for (const auto& [k, v] : rec.info) telemetry_.manifest.set_info(k, v);
    telemetry_.finish(rec.sim_time_us);
    rec.manifest_path = telemetry_.metrics_path;
  }

 private:
  Fabric& fab_;
  const Options& opts_;
  regress::RunDigest* digest_;
  Robustness robust_;
  RunTelemetry telemetry_;
  StabilityPlane stability_;
};

/// Parses the shared-buffer keys: `buffer_policy=` (static | equal | dt),
/// `dt_alpha=` (DT allowance factor), `buffer_bytes=` (shared pool size in
/// bytes; 0 = scenario default). Returns the policy config; the pool size
/// lands in *pool_bytes.
switchlib::BufferPolicyConfig parse_buffer_policy(const Options& opts,
                                                  std::uint64_t* pool_bytes) {
  switchlib::BufferPolicyConfig bp;
  bp.kind = switchlib::parse_buffer_policy_kind(opts.get("buffer_policy", "static"));
  bp.dt_alpha = opts.get_double("dt_alpha", 1.0);
  *pool_bytes = static_cast<std::uint64_t>(opts.get_int("buffer_bytes", 0));
  return bp;
}

void run_dumbbell(const Options& opts, bool quiet, regress::RunDigest* digest,
                  RunRecord& rec) {
  for (const char* key : {"trace_file", "trace_export", "pattern"}) {
    if (opts.has(key)) {
      throw std::invalid_argument(std::string(key) +
                                  "= requires topology=leafspine");
    }
  }
  DumbbellConfig cfg;
  cfg.queue = sim::parse_queue_backend(opts.get("sched_queue", "heap"));
  const auto queues = static_cast<std::size_t>(opts.get_int("queues", 2));
  cfg.scheduler.kind = sched::parse_scheduler_kind(opts.get("scheduler", "dwrr"));
  cfg.scheduler.num_queues = queues;
  cfg.scheduler.weights = opts.get_double_list("weights");
  if (cfg.scheduler.weights.empty()) cfg.scheduler.weights.assign(queues, 1.0);
  cfg.link_rate = sim::gbps(static_cast<std::uint64_t>(opts.get_int("link_gbps", 10)));
  cfg.link_delay = sim::microseconds_f(opts.get_double("link_delay_us", 2.0));
  cfg.buffer_policy = parse_buffer_policy(opts, &cfg.shared_pool_bytes);

  auto flows_per_queue = opts.get_double_list("flows_per_queue");
  if (flows_per_queue.empty()) flows_per_queue.assign(queues, 1.0);
  if (flows_per_queue.size() != queues) {
    throw std::invalid_argument("flows_per_queue must have one entry per queue");
  }
  std::size_t total_flows = 0;
  for (double f : flows_per_queue) {
    if (!std::isfinite(f) || f < 0.0 || f != std::floor(f)) {
      throw std::invalid_argument(
          "flows_per_queue entries must be non-negative integers");
    }
    total_flows += static_cast<std::size_t>(f);
  }
  cfg.num_senders = total_flows;

  const Scheme scheme = parse_scheme(opts.get("scheme", "pmsb"));
  SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds_f(opts.get_double("rtt_us", 18.0));
  params.weights = cfg.scheduler.weights;
  params.point = opts.get("mark_point", "enqueue") == "dequeue"
                     ? ecn::MarkPoint::kDequeue
                     : ecn::MarkPoint::kEnqueue;
  cfg.marking = make_scheme_marking(scheme, params);

  cfg.transport.d2tcp_enabled = opts.get_bool("d2tcp", false);
  DumbbellScenario sc(cfg);
  apply_scheme_transport(scheme, params, sc.base_rtt(), cfg.transport);

  stats::Summary rtt;
  std::size_t sender = 0;
  for (std::size_t q = 0; q < queues; ++q) {
    for (std::size_t f = 0; f < static_cast<std::size_t>(flows_per_queue[q]); ++f) {
      const auto idx = sc.add_flow(
          {.sender = sender++, .service = static_cast<net::ServiceId>(q),
           .bytes = 0, .start = 0,
           .pmsbe = cfg.transport.pmsbe_enabled,
           .pmsbe_rtt_threshold = cfg.transport.pmsbe_rtt_threshold});
      sc.flow(idx).sender().set_rtt_observer([&rtt, &sc](sim::TimeNs t) {
        if (sc.simulator().now() > sim::milliseconds(5)) {
          rtt.add(sim::to_microseconds(t));
        }
      });
    }
  }

  RunPlanes planes(sc, opts, quiet, digest,
                   static_cast<std::uint64_t>(opts.get_int("seed", 0)), [&sc] {
                     return "bytes_acked=" + std::to_string(sc.total_bytes_acked()) +
                            " bottleneck_backlog=" +
                            std::to_string(sc.bottleneck().buffered_bytes()) + "B";
                   });

  const auto duration = sim::milliseconds(opts.get_int("duration_ms", 50));
  sc.run(sim::milliseconds(10));
  std::vector<std::uint64_t> start(queues);
  for (std::size_t q = 0; q < queues; ++q) start[q] = sc.served_bytes(q);
  sc.run(sim::milliseconds(10) + duration);

  if (!quiet) {
    std::printf("dumbbell: %s + %s, %zu queues, %zu flows\n",
                scheme_name(scheme).c_str(),
                sc.bottleneck().scheduler().name().c_str(), queues, total_flows);
  }
  stats::Table table({"queue", "flows", "tput(Gbps)"});
  for (std::size_t q = 0; q < queues; ++q) {
    const double gbps = static_cast<double>(sc.served_bytes(q) - start[q]) * 8.0 /
                        static_cast<double>(duration);
    table.add_row({std::to_string(q), stats::Table::num(flows_per_queue[q], 0),
                   stats::Table::num(gbps)});
    rec.results["throughput_gbps.q" + std::to_string(q)] = gbps;
  }
  if (!quiet) {
    table.print();
    std::printf("rtt avg/p99: %.1f / %.1f us; marks: %llu; drops: %llu\n", rtt.mean(),
                rtt.percentile(99), static_cast<unsigned long long>(sc.total_marks()),
                static_cast<unsigned long long>(sc.total_drops()));
  }

  rec.results["rtt_us.mean"] = rtt.mean();
  rec.results["rtt_us.p99"] = rtt.percentile(99);
  if (sc.pool() != nullptr) {
    rec.results["buffer.pool_limit_bytes"] =
        static_cast<double>(sc.pool()->limit());
    rec.results["buffer.free_pool_bytes_final"] =
        static_cast<double>(sc.pool()->free_bytes());
  }
  rec.info["topology"] = "dumbbell";
  rec.info["scheme"] = scheme_name(scheme);
  rec.info["scheduler"] = sc.bottleneck().scheduler().name();
  rec.info["buffer_policy"] =
      switchlib::buffer_policy_kind_name(cfg.buffer_policy.kind);
  planes.finish(rec);
}

void run_leafspine(const Options& opts, bool quiet, regress::RunDigest* digest,
                   RunRecord& rec) {
  LeafSpineConfig cfg;
  cfg.queue = sim::parse_queue_backend(opts.get("sched_queue", "heap"));
  cfg.link_delay = sim::microseconds_f(opts.get_double("link_delay_us", 9.0));
  cfg.scheduler.kind = sched::parse_scheduler_kind(opts.get("scheduler", "dwrr"));
  const auto queues = static_cast<std::size_t>(opts.get_int("queues", 8));
  cfg.scheduler.num_queues = queues;
  cfg.scheduler.weights.assign(queues, 1.0);
  cfg.buffer_bytes = 2048ull * 1500ull;
  cfg.buffer_policy = parse_buffer_policy(opts, &cfg.shared_pool_bytes);

  const Scheme scheme = parse_scheme(opts.get("scheme", "pmsb"));
  SchemeParams params;
  params.capacity = cfg.link_rate;
  params.rtt = sim::microseconds_f(opts.get_double("rtt_us", 85.2));
  params.weights = cfg.scheduler.weights;
  cfg.marking = make_scheme_marking(scheme, params);
  cfg.transport.init_cwnd_segments = 16;
  cfg.transport.d2tcp_enabled = opts.get_bool("d2tcp", false);
  const sim::TimeNs base_rtt =
      4 * sim::serialization_delay(sim::kDefaultMtuBytes, cfg.link_rate) +
      4 * sim::serialization_delay(net::kAckBytes, cfg.link_rate) +
      8 * cfg.link_delay;
  apply_scheme_transport(scheme, params, base_rtt, cfg.transport);

  LeafSpineScenario sc(cfg);
  workload::TrafficConfig tc;
  tc.num_hosts = sc.num_hosts();
  tc.load = opts.get_double("load", 0.5);
  tc.num_flows = static_cast<std::size_t>(opts.get_int("flows", 300));
  tc.num_services = static_cast<std::uint8_t>(queues);
  const auto dist =
      workload::FlowSizeDistribution::by_name(opts.get("workload", "paper-mix"));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  sim::Rng rng(seed);
  const std::string pattern = opts.get("pattern", "poisson");
  workload::Workload wl;
  if (opts.has("trace_file")) {
    // Replay mode: the trace IS the workload; generator keys are ignored.
    workload::FlowTrace trace = workload::read_flow_trace(opts.get("trace_file"));
    if (trace.num_hosts != sc.num_hosts()) {
      throw std::invalid_argument(
          "trace_file: trace has " + std::to_string(trace.num_hosts) +
          " hosts but the fabric has " + std::to_string(sc.num_hosts()));
    }
    wl.flows = std::move(trace.flows);
  } else if (pattern == "poisson") {
    wl.flows = workload::generate_poisson_traffic(tc, dist, rng);
  } else if (pattern == "coflow") {
    workload::CoflowConfig cc;
    cc.num_hosts = sc.num_hosts();
    cc.num_coflows = static_cast<std::size_t>(opts.get_int("coflows", 20));
    cc.num_mappers = static_cast<std::size_t>(opts.get_int("mappers", 4));
    cc.num_reducers = static_cast<std::size_t>(opts.get_int("reducers", 4));
    cc.num_stages = static_cast<std::uint16_t>(opts.get_int("stages", 1));
    cc.mean_interarrival_us = opts.get_double("coflow_gap_us", 1000.0);
    cc.num_services = static_cast<std::uint8_t>(queues);
    wl = workload::generate_coflows(cc, dist, rng);
  } else if (pattern == "rpc") {
    workload::RpcConfig rc;
    rc.num_hosts = sc.num_hosts();
    rc.num_rpcs = static_cast<std::size_t>(opts.get_int("rpcs", 50));
    rc.fanout = static_cast<std::size_t>(opts.get_int("fanout", 8));
    rc.response_bytes = static_cast<std::uint64_t>(opts.get_int("rpc_bytes", 20'000));
    rc.deadline = sim::microseconds_f(opts.get_double("rpc_deadline_us", 2000.0));
    rc.mean_interarrival_us = opts.get_double("rpc_gap_us", 500.0);
    rc.num_services = static_cast<std::uint8_t>(queues);
    wl = workload::generate_rpc_fanout(rc, rng);
  } else {
    throw std::invalid_argument("unknown pattern '" + pattern + "'");
  }
  sc.add_workload(wl);

  RunPlanes planes(sc, opts, quiet, digest, seed, [&sc] {
    return "flows_completed=" + std::to_string(sc.completed_flows()) + "/" +
           std::to_string(sc.total_flows()) +
           " bytes_acked=" + std::to_string(sc.total_bytes_acked());
  });

  const bool done = sc.run_until_complete(sim::seconds(opts.get_int("max_sim_s", 60)));
  if (!quiet) {
    std::printf("leafspine: %s + %s, load %.2f, %zu/%zu flows done%s\n",
                scheme_name(scheme).c_str(),
                sched::scheduler_kind_name(cfg.scheduler.kind).c_str(), tc.load,
                sc.completed_flows(), sc.total_flows(), done ? "" : " (TIME CAP HIT)");

    stats::Table table({"bin", "count", "avg(us)", "p95(us)", "p99(us)"});
    auto add = [&](const char* name, const stats::Summary& s) {
      table.add_row({name, std::to_string(s.count()), stats::Table::num(s.mean(), 0),
                     stats::Table::num(s.percentile(95), 0),
                     stats::Table::num(s.percentile(99), 0)});
    };
    add("small", sc.fct().fct_us(stats::SizeBin::kSmall));
    add("medium", sc.fct().fct_us(stats::SizeBin::kMedium));
    add("large", sc.fct().fct_us(stats::SizeBin::kLarge));
    add("overall", sc.fct().overall_fct_us());
    table.print();
  }

  if (opts.has("fct_csv")) {
    stats::write_fct_csv(opts.get("fct_csv"), sc.fct());
    if (!quiet) std::printf("wrote %s\n", opts.get("fct_csv").c_str());
  }

  if (opts.has("trace_export")) {
    // Realized starts (post-barrier), so a replay is timing-faithful — and
    // for static workloads, bit-identical by digest.
    workload::write_flow_trace(opts.get("trace_export"), sc.num_hosts(),
                               sc.realized_workload());
    if (!quiet) std::printf("wrote %s\n", opts.get("trace_export").c_str());
  }

  rec.info["topology"] = "leafspine";
  rec.info["pattern"] = opts.has("trace_file") ? "trace" : pattern;
  rec.info["scheme"] = scheme_name(scheme);
  rec.info["scheduler"] = sched::scheduler_kind_name(cfg.scheduler.kind);
  rec.info["workload"] = opts.get("workload", "paper-mix");
  rec.info["all_flows_completed"] = done ? "true" : "false";
  rec.info["buffer_policy"] =
      switchlib::buffer_policy_kind_name(cfg.buffer_policy.kind);
  rec.results["flows_completed"] = static_cast<double>(sc.completed_flows());
  rec.results["flows_total"] = static_cast<double>(sc.total_flows());
  auto record_fct = [&](const std::string& bin, const stats::Summary& s) {
    rec.results["fct_us." + bin + ".mean"] = s.mean();
    rec.results["fct_us." + bin + ".p95"] = s.percentile(95);
    rec.results["fct_us." + bin + ".p99"] = s.percentile(99);
  };
  record_fct("small", sc.fct().fct_us(stats::SizeBin::kSmall));
  record_fct("medium", sc.fct().fct_us(stats::SizeBin::kMedium));
  record_fct("large", sc.fct().fct_us(stats::SizeBin::kLarge));
  record_fct("overall", sc.fct().overall_fct_us());
  // Grouped-workload results: coflow completion time as a first-class
  // metric next to FCT, and the deadline outcome for the RPC/D2TCP path.
  // Only emitted when the workload carries groups/deadlines so plain
  // Poisson cells keep their historical column set.
  const stats::Summary cct = sc.fct().group_ct_us();
  if (cct.count() > 0) {
    rec.results["coflow.cct_us.mean"] = cct.mean();
    rec.results["coflow.cct_us.p95"] = cct.percentile(95);
    rec.results["coflow.cct_us.p99"] = cct.percentile(99);
  }
  if (sc.group_tracker() != nullptr) {
    rec.results["coflow.groups"] =
        static_cast<double>(sc.group_tracker()->groups().size());
    rec.results["coflow.groups_completed"] =
        static_cast<double>(sc.group_tracker()->groups_completed());
  }
  const stats::DeadlineStats deadlines = sc.fct().deadline_stats();
  if (deadlines.total > 0) {
    rec.results["deadline.total"] = static_cast<double>(deadlines.total);
    rec.results["deadline.misses"] = static_cast<double>(deadlines.missed);
    rec.results["deadline.miss_fraction"] = deadlines.miss_fraction();
  }
  planes.finish(rec);
}

}  // namespace

RunRecord run_scenario(const SweepPoint& point, bool quiet) {
  return run_scenario(point, quiet, nullptr);
}

RunRecord run_scenario(const SweepPoint& point, bool quiet,
                       regress::RunDigest* digest) {
  // Test-only deterministic crash hook (no-op unless PMSB_CRASH_AT is set):
  // lets the supervisor tests fault exactly one cell of a real sweep.
  maybe_inject_crash(point.index);
  RunRecord rec;
  rec.index = point.index;
  rec.label = point.label;
  rec.config = point.opts.values();
  // `digest=1` without an external digest: compute one internally just for
  // the info["digest"] / results["digest.events"] report.
  std::unique_ptr<regress::RunDigest> owned;
  if (digest == nullptr && point.opts.get_bool("digest", false)) {
    owned = std::make_unique<regress::RunDigest>();
    digest = owned.get();
  }
  const std::string topology = point.opts.get("topology", "dumbbell");
  if (topology == "dumbbell") {
    run_dumbbell(point.opts, quiet, digest, rec);
  } else if (topology == "leafspine") {
    run_leafspine(point.opts, quiet, digest, rec);
  } else {
    throw std::invalid_argument("unknown topology '" + topology + "'");
  }
  rec.ok = true;
  return rec;
}

}  // namespace pmsb::sweep
