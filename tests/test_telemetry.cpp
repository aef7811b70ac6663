// Tests for the telemetry subsystem: registry semantics, histogram bucket
// edges, sampler period alignment, the run-manifest JSON (round-tripped
// through a minimal parser defined below), and the PortStats == registry
// regression on a real dumbbell run.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/dumbbell.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/manifest_reader.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/process_stats.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/sampler.hpp"

using namespace pmsb;
using namespace pmsb::telemetry;

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to round-trip a run manifest. Numbers are
// doubles; objects are ordered maps keyed by string.
namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const { return object.at(key); }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }
  bool consume_literal(const std::string& lit) {
    skip_ws();
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      v.str = parse_string();
      return v;
    }
    JsonValue v;
    if (consume_literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    v.type = JsonValue::Type::kNumber;
    std::size_t used = 0;
    v.number = std::stod(s_.substr(pos_), &used);
    if (used == 0) throw std::runtime_error("bad JSON number");
    pos_ += used;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            // Manifest strings only escape control chars; decode as a byte.
            if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u escape");
            out += static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: throw std::runtime_error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') throw std::runtime_error("expected ',' in array");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      v.object[key] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') throw std::runtime_error("expected ',' in object");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry semantics

TEST(InstrumentKey, SortsLabelsAndFormats) {
  EXPECT_EQ(instrument_key("port.marks", {}), "port.marks");
  EXPECT_EQ(instrument_key("port.marks", {{"queue", "3"}, {"port", "0"}}),
            "port.marks{port=0,queue=3}");
}

TEST(MetricsRegistry, OwnedCounterReRegistrationReturnsSameCell) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count", {}, "events");
  a.inc(3);
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_DOUBLE_EQ(reg.value("x.count"), 3.0);
}

TEST(MetricsRegistry, LabelsDistinguishInstruments) {
  MetricsRegistry reg;
  Counter& q0 = reg.counter("port.marks", {{"queue", "0"}});
  Counter& q1 = reg.counter("port.marks", {{"queue", "1"}});
  EXPECT_NE(&q0, &q1);
  q0.inc(5);
  q1.inc(7);
  EXPECT_DOUBLE_EQ(reg.value("port.marks", {{"queue", "0"}}), 5.0);
  EXPECT_DOUBLE_EQ(reg.value("port.marks", {{"queue", "1"}}), 7.0);
  // Label order must not matter for identity.
  EXPECT_TRUE(reg.has("port.marks", {{"queue", "0"}}));
  Counter& again = reg.counter("port.marks", {{"queue", "0"}});
  EXPECT_EQ(&again, &q0);
}

TEST(MetricsRegistry, KindClashThrows) {
  MetricsRegistry reg;
  reg.counter("thing");
  EXPECT_THROW(reg.gauge("thing"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("thing", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, DuplicateBindThrows) {
  MetricsRegistry reg;
  std::uint64_t cell = 42;
  reg.bind_counter("port.drops", {}, &cell);
  EXPECT_THROW(reg.bind_counter("port.drops", {}, &cell), std::invalid_argument);
  EXPECT_THROW(reg.bind_counter("null.cell", {}, nullptr), std::invalid_argument);
  cell = 99;
  EXPECT_DOUBLE_EQ(reg.value("port.drops"), 99.0);  // reads the live cell
}

TEST(MetricsRegistry, ProbeInstrumentsEvaluateAtCollect) {
  MetricsRegistry reg;
  std::uint64_t n = 0;
  double g = 0.0;
  reg.counter_fn("fn.count", {}, [&n] { return n; });
  reg.gauge_fn("fn.gauge", {}, [&g] { return g; });
  n = 12;
  g = 2.5;
  const auto snaps = reg.collect();
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_DOUBLE_EQ(snaps[0].value, 12.0);
  EXPECT_DOUBLE_EQ(snaps[1].value, 2.5);
  EXPECT_EQ(snaps[0].kind, InstrumentKind::kCounter);
  EXPECT_EQ(snaps[1].kind, InstrumentKind::kGauge);
}

TEST(MetricsRegistry, CollectSortedOrdersByInstrumentKey) {
  MetricsRegistry reg;
  // Register deliberately out of key order.
  reg.counter("zeta.total");
  reg.gauge("alpha.depth", {{"port", "b"}});
  reg.gauge("alpha.depth", {{"port", "a"}});
  reg.counter("mid.count");

  // collect() preserves registration order (samplers and tests rely on it).
  const auto raw = reg.collect();
  ASSERT_EQ(raw.size(), 4u);
  EXPECT_EQ(raw[0].name, "zeta.total");

  // collect_sorted() orders by canonical key regardless of registration.
  const auto sorted = reg.collect_sorted();
  ASSERT_EQ(sorted.size(), 4u);
  std::vector<std::string> keys;
  for (const auto& s : sorted) keys.push_back(instrument_key(s.name, s.labels));
  for (std::size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);
  EXPECT_EQ(keys.front(), "alpha.depth{port=a}");
  EXPECT_EQ(keys.back(), "zeta.total");
}

TEST(RunManifest, MetricsSectionIsSortedByInstrumentKey) {
  MetricsRegistry reg;
  reg.counter("z.last").inc(1);
  reg.counter("a.first").inc(2);
  RunManifest manifest("t");
  const JsonValue root = JsonParser(manifest.to_json(&reg)).parse();
  const auto& metrics = root.at("metrics").array;
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].at("name").str, "a.first");
  EXPECT_EQ(metrics[1].at("name").str, "z.last");
}

TEST(MetricsRegistry, ValueOnHistogramThrows) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW(static_cast<void>(reg.value("h")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(reg.value("missing")), std::out_of_range);
  EXPECT_NO_THROW(static_cast<void>(reg.histogram_at("h")));
}

// ---------------------------------------------------------------------------
// Histogram bucket edges

TEST(Histogram, InclusiveUpperEdges) {
  Histogram h({1.0, 5.0, 10.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow
  h.observe(1.0);    // lands in [.., 1]
  h.observe(1.0001); // lands in (1, 5]
  h.observe(5.0);    // lands in (1, 5]
  h.observe(10.0);   // lands in (5, 10]
  h.observe(10.5);   // overflow
  h.observe(-3.0);   // below the first bound -> first bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.0001 + 5.0 + 10.0 + 10.5 - 3.0);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(3)));
}

TEST(Histogram, NonIncreasingBoundsThrow) {
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sampler

TEST(TimeSeriesSampler, RowsAlignWithSchedulePeriod) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  double live = 0.0;
  sampler.add_probe("live", [&live] { return live; });
  // Drive the probe from simulator events between samples.
  for (int k = 0; k < 10; ++k) {
    simulator.schedule_at(sim::microseconds(100 * k + 50), [&live] { live += 1.0; });
  }
  sampler.start();
  simulator.run(sim::microseconds(1000));
  sampler.stop();

  // Samples at t = 0, 100, ..., 1000 us.
  ASSERT_EQ(sampler.rows(), 11u);
  for (std::size_t k = 0; k < sampler.rows(); ++k) {
    EXPECT_DOUBLE_EQ(sampler.times_us()[k], 100.0 * static_cast<double>(k));
    // By sample k, exactly k bump events (at 50, 150, ...) have fired.
    EXPECT_DOUBLE_EQ(sampler.column(0)[k], std::min<double>(static_cast<double>(k), 10.0));
  }
}

TEST(TimeSeriesSampler, RateColumnIsDeltaPerSecond) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  std::uint64_t count = 0;
  sampler.add_rate("rate", [&count] { return count; });
  for (int k = 0; k < 5; ++k) {
    // 3 events inside every sampling interval.
    simulator.schedule_at(sim::microseconds(100 * k + 10), [&count] { count += 3; });
  }
  sampler.start();
  simulator.run(sim::microseconds(500));
  sampler.stop();

  ASSERT_EQ(sampler.rows(), 6u);
  EXPECT_DOUBLE_EQ(sampler.column(0)[0], 0.0);  // nothing before the first tick
  for (std::size_t k = 1; k < sampler.rows(); ++k) {
    // 3 events per 100 us = 30000 events/s.
    EXPECT_DOUBLE_EQ(sampler.column(0)[k], 30000.0);
  }
}

TEST(TimeSeriesSampler, StopCancelsFutureSamples) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  sampler.add_probe("zero", [] { return 0.0; });
  sampler.start();
  simulator.run(sim::microseconds(250));
  sampler.stop();
  const std::size_t rows_at_stop = sampler.rows();
  simulator.run(sim::microseconds(1000));
  EXPECT_EQ(sampler.rows(), rows_at_stop);
  EXPECT_TRUE(simulator.empty());  // no orphaned self-rescheduling event
}

// ---------------------------------------------------------------------------
// Run manifest JSON

TEST(RunManifest, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.counter("events.total", {}, "events").inc(41);
  reg.counter("port.marks", {{"queue", "0"}, {"port", "a\"b"}}, "packets").inc(7);
  Histogram& h = reg.histogram("sojourn_us", {1.0, 10.0}, {}, "us");
  h.observe(0.5);
  h.observe(100.0);

  RunManifest manifest("test_tool");
  manifest.set_seed(1234);
  manifest.set_config_value("scheme", "pmsb");
  manifest.set_config_value("weird", "tab\there");
  manifest.set_info("topology", "none");
  manifest.set_result("fct_us.mean", 12.5);
  manifest.set_sim_time_us(777.0);

  const std::string json = manifest.to_json(&reg);
  const JsonValue root = JsonParser(json).parse();

  EXPECT_EQ(root.at("schema").str, "pmsb.run_manifest/1");
  EXPECT_EQ(root.at("tool").str, "test_tool");
  EXPECT_EQ(root.at("git").str, std::string(build_git_describe()));
  EXPECT_DOUBLE_EQ(root.at("seed").number, 1234.0);
  EXPECT_GE(root.at("wall_clock_s").number, 0.0);
  EXPECT_DOUBLE_EQ(root.at("sim_time_us").number, 777.0);
  EXPECT_EQ(root.at("config").at("scheme").str, "pmsb");
  EXPECT_EQ(root.at("config").at("weird").str, "tab\there");
  EXPECT_EQ(root.at("info").at("topology").str, "none");
  EXPECT_DOUBLE_EQ(root.at("results").at("fct_us.mean").number, 12.5);

  const auto& metrics = root.at("metrics").array;
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].at("name").str, "events.total");
  EXPECT_EQ(metrics[0].at("kind").str, "counter");
  EXPECT_EQ(metrics[0].at("unit").str, "events");
  EXPECT_DOUBLE_EQ(metrics[0].at("value").number, 41.0);

  EXPECT_EQ(metrics[1].at("labels").at("queue").str, "0");
  EXPECT_EQ(metrics[1].at("labels").at("port").str, "a\"b");  // escaping survived
  EXPECT_DOUBLE_EQ(metrics[1].at("value").number, 7.0);

  EXPECT_EQ(metrics[2].at("kind").str, "histogram");
  EXPECT_DOUBLE_EQ(metrics[2].at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(metrics[2].at("sum").number, 100.5);
  const auto& buckets = metrics[2].at("buckets").array;
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").number, 1.0);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").number, 1.0);
  EXPECT_EQ(buckets[2].at("le").str, "inf");
  EXPECT_DOUBLE_EQ(buckets[2].at("count").number, 1.0);
}

TEST(RunManifest, NullRegistryMeansEmptyMetrics) {
  RunManifest manifest("t");
  const JsonValue root = JsonParser(manifest.to_json(nullptr)).parse();
  EXPECT_TRUE(root.at("metrics").array.empty());
}

// ---------------------------------------------------------------------------
// Simulator kernel binding + dumbbell regression

TEST(BindSimulatorMetrics, ExposesKernelCounters) {
  sim::Simulator simulator;
  MetricsRegistry reg;
  bind_simulator_metrics(reg, simulator);
  const auto id = simulator.schedule_in(10, [] {});
  simulator.schedule_in(20, [] {});
  simulator.cancel(id);
  simulator.run();
  EXPECT_DOUBLE_EQ(reg.value("sim.events_executed"), 1.0);
  EXPECT_DOUBLE_EQ(reg.value("sim.events_cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(reg.value("sim.pending_events"), 0.0);
  EXPECT_GE(reg.value("sim.max_heap_depth"), 2.0);
}

TEST(DumbbellTelemetry, RegistryMatchesPortStats) {
  experiments::DumbbellConfig cfg;
  cfg.num_senders = 3;
  cfg.scheduler.kind = sched::SchedulerKind::kDwrr;
  cfg.scheduler.num_queues = 2;
  cfg.scheduler.weights = {1.0, 1.0};
  cfg.marking.kind = ecn::MarkingKind::kPmsb;
  cfg.marking.threshold_bytes = 12 * 1500;
  cfg.marking.weights = cfg.scheduler.weights;
  experiments::DumbbellScenario sc(cfg);
  sc.add_flow({.sender = 0, .service = 0, .bytes = 0, .start = 0});
  sc.add_flow({.sender = 1, .service = 1, .bytes = 0, .start = 0});
  sc.add_flow({.sender = 2, .service = 1, .bytes = 0, .start = 0});

  MetricsRegistry reg;
  bind_simulator_metrics(reg, sc.simulator());
  sc.bind_metrics(reg);
  EXPECT_GE(reg.size(), 20u);

  sc.run(sim::milliseconds(10));

  const auto& stats = sc.bottleneck().stats();
  EXPECT_GT(stats.enqueued_packets, 0u);
  const Labels port{{"port", "bottleneck"}};
  auto with_queue = [&port](std::size_t q) {
    Labels l = port;
    l.emplace_back("queue", std::to_string(q));
    return l;
  };
  EXPECT_DOUBLE_EQ(reg.value("port.enqueued_packets", port),
                   static_cast<double>(stats.enqueued_packets));
  EXPECT_DOUBLE_EQ(reg.value("port.dequeued_packets", port),
                   static_cast<double>(stats.dequeued_packets));
  EXPECT_DOUBLE_EQ(reg.value("port.dropped_packets", port),
                   static_cast<double>(stats.dropped_packets));
  EXPECT_DOUBLE_EQ(reg.value("port.marked_enqueue", port),
                   static_cast<double>(stats.marked_enqueue));
  for (std::size_t q = 0; q < 2; ++q) {
    EXPECT_DOUBLE_EQ(reg.value("port.marks", with_queue(q)),
                     static_cast<double>(stats.marked_per_queue[q]));
    EXPECT_DOUBLE_EQ(reg.value("sched.served_bytes", with_queue(q)),
                     static_cast<double>(sc.served_bytes(q)));
  }
  // Drop reasons sum to the total drop counter.
  double reason_sum = 0.0;
  for (const char* reason : {"port_budget", "dynamic_threshold", "pool_exhausted"}) {
    Labels l = port;
    l.emplace_back("reason", reason);
    reason_sum += reg.value("port.drops", l);
  }
  EXPECT_DOUBLE_EQ(reason_sum, static_cast<double>(stats.dropped_packets));
  // PMSB's scheme instruments came along via Port::bind_metrics.
  EXPECT_GT(reg.value("ecn.threshold_evals", port), 0.0);
  // Transport instruments per flow.
  EXPECT_GT(reg.value("transport.segments_sent", {{"flow", "0"}}), 0.0);
  EXPECT_GT(reg.value("transport.cwnd_bytes", {{"flow", "0"}}), 0.0);
  // Kernel counters are live.
  EXPECT_GT(reg.value("sim.events_executed"), 0.0);
}

// ---------------------------------------------------------------------------
// The real JSON reader (telemetry/json_reader.hpp) — the one salvage and the
// manifest reader run on, as opposed to the minimal test-local parser above.

TEST(JsonReader, ParsesScalarsContainersAndEscapes) {
  const auto v = pmsb::telemetry::json::parse(
      "{\"s\":\"a\\\"b\\\\c\\n\\u0041\",\"t\":true,\"f\":false,\"n\":null,"
      "\"num\":-1.5e2,\"arr\":[1,2,3],\"obj\":{\"k\":\"v\"}}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("s").string, "a\"b\\c\nA");
  EXPECT_TRUE(v.at("t").boolean);
  EXPECT_FALSE(v.at("f").boolean);
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_DOUBLE_EQ(v.at("num").number, -150.0);
  ASSERT_EQ(v.at("arr").array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("arr").array[2].number, 3.0);
  EXPECT_EQ(v.at("obj").at("k").string, "v");
}

TEST(JsonReader, PreservesRawNumberForSixtyFourBitSeeds) {
  // 2^63 + 1 is not representable as a double; the raw token must survive
  // so seeds round-trip through strtoull.
  const auto v = pmsb::telemetry::json::parse("{\"seed\":9223372036854775809}");
  EXPECT_EQ(v.at("seed").raw_number, "9223372036854775809");
  EXPECT_EQ(std::stoull(v.at("seed").raw_number), 9223372036854775809ull);
}

TEST(JsonReader, FindIsNullSafeAtThrows) {
  const auto v = pmsb::telemetry::json::parse("{\"a\":1}");
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(static_cast<void>(v.at("missing")), pmsb::telemetry::json::ParseError);
  // find on a non-object is a nullptr, not a crash.
  EXPECT_EQ(v.at("a").find("x"), nullptr);
}

TEST(JsonReader, RejectsMalformedDocuments) {
  using pmsb::telemetry::json::parse;
  using pmsb::telemetry::json::ParseError;
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("{\"a\":}"), ParseError);
  EXPECT_THROW(parse("[1,2,"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(parse("nul"), ParseError);
  EXPECT_THROW(parse("1.2.3"), ParseError);
  // Depth bomb: beyond the recursion cap must throw, not overflow the stack.
  EXPECT_THROW(parse(std::string(10000, '[')), ParseError);
}

TEST(JsonReader, DecodesSurrogatePairsAsUtf8) {
  // U+1F600 (😀) as a JSON surrogate pair must decode to 4-byte UTF-8, not
  // CESU-8 (two 3-byte sequences).
  const auto v = pmsb::telemetry::json::parse("{\"e\":\"\\ud83d\\ude00\"}");
  const std::string& s = v.at("e").string;
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(s[0]), 0xf0);
  EXPECT_EQ(static_cast<unsigned char>(s[1]), 0x9f);
  EXPECT_EQ(static_cast<unsigned char>(s[2]), 0x98);
  EXPECT_EQ(static_cast<unsigned char>(s[3]), 0x80);
  // Uppercase hex digits and BMP escapes around the pair still work.
  const auto w = pmsb::telemetry::json::parse("{\"e\":\"x\\uD83D\\uDE01y\"}");
  EXPECT_EQ(w.at("e").string.size(), 6u);  // 'x' + 4 bytes + 'y'
}

TEST(JsonReader, RejectsLoneAndMismatchedSurrogates) {
  using pmsb::telemetry::json::parse;
  using pmsb::telemetry::json::ParseError;
  // Lone high surrogate (end of string, or followed by a non-escape).
  EXPECT_THROW(parse("{\"e\":\"\\ud83d\"}"), ParseError);
  EXPECT_THROW(parse("{\"e\":\"\\ud83dx\"}"), ParseError);
  // High surrogate followed by a non-surrogate escape.
  EXPECT_THROW(parse("{\"e\":\"\\ud83d\\u0041\"}"), ParseError);
  // Lone low surrogate.
  EXPECT_THROW(parse("{\"e\":\"\\ude00\"}"), ParseError);
  // Truncated escapes still fail cleanly.
  EXPECT_THROW(parse("{\"e\":\"\\ud83d\\u"), ParseError);
  EXPECT_THROW(parse("{\"e\":\"\\uZZZZ\"}"), ParseError);
}

// ---------------------------------------------------------------------------
// Process stats: the peak-RSS probe and its manifest plumbing.

TEST(ProcessStats, PeakRssIsPositiveOnLinuxAndMonotone) {
#ifdef __linux__
  const auto rss = pmsb::telemetry::peak_rss_bytes();
  EXPECT_GT(rss, 0u);
  // VmHWM is a high-water mark: a second read can only grow.
  EXPECT_GE(pmsb::telemetry::peak_rss_bytes(), rss);
#else
  EXPECT_EQ(pmsb::telemetry::peak_rss_bytes(), 0u);
#endif
}

TEST(RunManifest, CarriesPeakRssAndReaderParsesIt) {
  RunManifest m("rss-test");
  const std::string json = m.to_json(nullptr);
  const JsonValue root = JsonParser(json).parse();
  ASSERT_TRUE(root.has("peak_rss_bytes"));
  const auto data = pmsb::telemetry::parse_run_manifest(json, "<test>");
#ifdef __linux__
  EXPECT_GT(data.peak_rss_bytes, 0.0);
#endif
  EXPECT_EQ(data.peak_rss_bytes, root.at("peak_rss_bytes").number);
  // Writers that predate the field parse with the 0 sentinel.
  const auto old = pmsb::telemetry::parse_run_manifest(
      "{\"schema\":\"pmsb.run_manifest/1\"}", "<test>");
  EXPECT_EQ(old.peak_rss_bytes, 0.0);
}

// ---------------------------------------------------------------------------
// Manifest reader: RunManifest::write -> read_run_manifest round trip.

TEST(ManifestReader, RoundTripsWhatRunManifestWrites) {
  RunManifest m("roundtrip-test");
  m.set_seed(9223372036854775809ull);  // > 2^53: exercises the raw path
  m.set_config({{"topology", "leafspine"}, {"load", "0.5"}});
  m.set_info("status", "ok");
  m.set_result("fct_us.mean", 123.456789012345678);
  m.set_result("throughput", 9.87e9);
  m.set_sim_time_us(2500.25);
  const std::string path = std::string(::testing::TempDir()) + "/manifest_rt.json";
  m.write(path, nullptr);

  const auto data = pmsb::telemetry::read_run_manifest(path);
  EXPECT_EQ(data.schema, "pmsb.run_manifest/1");
  EXPECT_EQ(data.tool, "roundtrip-test");
  EXPECT_EQ(data.seed, 9223372036854775809ull);
  EXPECT_EQ(data.config.at("topology"), "leafspine");
  EXPECT_EQ(data.config.at("load"), "0.5");
  EXPECT_EQ(data.info.at("status"), "ok");
  // %.17g output parses back bit-exact.
  EXPECT_EQ(data.results.at("fct_us.mean"), 123.456789012345678);
  EXPECT_EQ(data.results.at("throughput"), 9.87e9);
  EXPECT_EQ(data.sim_time_us, 2500.25);
  EXPECT_GE(data.wall_clock_s, 0.0);
}

TEST(ManifestReader, RejectsMissingFileAndBadShapes) {
  using pmsb::telemetry::parse_run_manifest;
  EXPECT_THROW(pmsb::telemetry::read_run_manifest("/nonexistent/manifest.json"),
               std::runtime_error);
  // Top level must be an object with a string schema.
  EXPECT_THROW(parse_run_manifest("[1,2,3]", "t"), std::runtime_error);
  EXPECT_THROW(parse_run_manifest("{\"schema\":42}", "t"), std::runtime_error);
  EXPECT_THROW(parse_run_manifest("{}", "t"), std::runtime_error);
  // Results must be numeric.
  EXPECT_THROW(
      parse_run_manifest(
          "{\"schema\":\"pmsb.run_manifest/1\",\"results\":{\"x\":\"nope\"}}", "t"),
      std::runtime_error);
  // Missing sections are tolerated — a minimal manifest parses.
  const auto minimal =
      parse_run_manifest("{\"schema\":\"pmsb.run_manifest/1\"}", "t");
  EXPECT_EQ(minimal.schema, "pmsb.run_manifest/1");
  EXPECT_TRUE(minimal.config.empty());
  EXPECT_TRUE(minimal.results.empty());
}

TEST(TimeSeriesSampler, StreamToWritesRowsIncrementally) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  double v = 1.0;
  sampler.add_probe("v", [&v] { return v++; });
  const std::string path = std::string(::testing::TempDir()) + "/stream.csv";
  sampler.stream_to(path);
  EXPECT_TRUE(sampler.streaming());
  sampler.start();
  simulator.run(sim::microseconds(250));

  // Rows land on disk as they are sampled — no stop()/write_csv() needed.
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header + samples at 0, 100, 200 us
  EXPECT_EQ(lines[0], "time_us,v");
  EXPECT_EQ(lines[1], "0,1");
  std::remove(path.c_str());
}

TEST(TimeSeriesSampler, StreamedRowsSurviveAnAbortedRun) {
  // The watchdog/deadline story: an exception unwinding out of the event
  // loop must not take the sampled series with it.
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  sampler.add_probe("v", [] { return 42.0; });
  const std::string path = std::string(::testing::TempDir()) + "/abort.csv";
  sampler.stream_to(path);
  sampler.start();
  simulator.schedule_at(sim::microseconds(250),
                        [] { throw std::runtime_error("watchdog trip"); });
  EXPECT_THROW(simulator.run(sim::milliseconds(1)), std::runtime_error);

  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 4u);  // header + samples at 0, 100, 200 us
  std::remove(path.c_str());
}

TEST(TimeSeriesSampler, StreamToAfterStartThrows) {
  sim::Simulator simulator;
  TimeSeriesSampler sampler(simulator, sim::microseconds(100));
  sampler.start();
  EXPECT_THROW(sampler.stream_to("/tmp/nope.csv"), std::logic_error);
}

TEST(JsonReader, ToJsonRoundTripsSortedDocumentsByteStably) {
  // Sorted keys, raw number tokens, escapes: the properties pmsb.profile/1
  // splicing depends on.
  const std::string doc =
      "{\"a\":[1,2.5,9223372036854775809],\"b\":{\"nested\":true,"
      "\"z\":null},\"s\":\"line\\nbreak \\\"q\\\" \\u0001\"}";
  const auto v = pmsb::telemetry::json::parse(doc);
  EXPECT_EQ(pmsb::telemetry::json::to_json(v), doc);
}
