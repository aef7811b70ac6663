#include "tracing.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "telemetry/run_report.hpp"

namespace perfbench {

double calibrate_clock_read_ns() {
  constexpr int kReads = 1 << 16;
  std::vector<double> per_read;
  for (int batch = 0; batch < 15; ++batch) {
    const std::int64_t t0 = clock_ns();
    std::int64_t last = t0;
    for (int i = 0; i < kReads; ++i) last = clock_ns();
    per_read.push_back(static_cast<double>(last - t0) / kReads);
  }
  std::nth_element(per_read.begin(), per_read.begin() + per_read.size() / 2,
                   per_read.end());
  return per_read[per_read.size() / 2];
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetupBuild: return "setup.build";
    case SpanKind::kSetupGenerate: return "setup.generate";
    case SpanKind::kSetupAddWorkload: return "setup.add_workload";
    case SpanKind::kSetupAttach: return "setup.attach";
    case SpanKind::kDispatch: return "sim.dispatch";
    case SpanKind::kSwitchReceive: return "switchlib.receive";
    case SpanKind::kHostReceive: return "net.host_receive";
  }
  return "?";
}

void SpanRecorder::record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
                          std::int64_t child_ns, std::int64_t parent) {
  SpanAggregate& agg = agg_[static_cast<std::size_t>(kind)];
  const std::uint64_t seq = agg.count++;
  const std::int64_t dur = end_ns - start_ns;
  agg.total_ns += static_cast<std::uint64_t>(dur);
  agg.self_ns += static_cast<std::uint64_t>(std::max<std::int64_t>(dur - child_ns, 0));
  if (seq % kSampleEvery == 0 && raw_.size() < kMaxRaw) {
    raw_.push_back({kind, seq, start_ns, dur, parent});
  }
}

void SpanRecorder::write_json(const std::string& path, std::int64_t origin_ns) const {
  pmsb::telemetry::JsonWriter w;
  w.begin_object();
  w.key("schema").value("pmsbbench.spans/1");
  w.key("sample_every").value(kSampleEvery);
  w.key("aggregates").begin_object();
  for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
    w.key(span_kind_name(static_cast<SpanKind>(k))).begin_object();
    w.key("count").value(agg_[k].count);
    w.key("total_ns").value(agg_[k].total_ns);
    w.key("self_ns").value(agg_[k].self_ns);
    w.end_object();
  }
  w.end_object();
  w.key("spans").begin_array();
  for (const RawSpan& s : raw_) {
    w.begin_object();
    w.key("name").value(span_kind_name(s.kind));
    w.key("seq").value(s.seq);
    w.key("start_ns").value(static_cast<std::int64_t>(s.start_ns - origin_ns));
    w.key("dur_ns").value(static_cast<std::int64_t>(s.dur_ns));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << w.str() << '\n';
}

TimingHook::TimingHook(pmsb::sim::Simulator& simulator, SpanRecorder& recorder)
    : sim_(simulator), inner_(simulator.dispatch_hook()), recorder_(recorder) {
  sim_.set_dispatch_hook(this);
}

TimingHook::~TimingHook() {
  if (sim_.dispatch_hook() == this) sim_.set_dispatch_hook(inner_);
}

void TimingHook::begin_dispatch(pmsb::sim::TimeNs now, pmsb::sim::TimeNs delta) {
  start_ns_ = clock_ns();
  child_ns_ = 0;
  if (inner_ != nullptr) inner_->begin_dispatch(now, delta);
}

void TimingHook::end_dispatch() {
  if (inner_ != nullptr) inner_->end_dispatch();
  recorder_.record(SpanKind::kDispatch, start_ns_, clock_ns(), child_ns_, -1);
}

void TimingHook::on_schedule() {
  if (inner_ != nullptr) inner_->on_schedule();
}

void TimingHook::on_cancel() {
  if (inner_ != nullptr) inner_->on_cancel();
}

}  // namespace perfbench
