// Tests for the regression plane: Hash128 / RunDigest semantics (exactness
// against a reference FNV-1a-128 byte fold, order sensitivity, sub-digest
// localization, checkpoint compaction, journal windows), the baseline store
// round trip, the noise-aware perf comparison, and the end-to-end guarantees
// the gate rests on — byte-identical digests for repeated runs of one
// scenario, and a localized divergence report when a run is perturbed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiments/options.hpp"
#include "regress/baseline.hpp"
#include "regress/bench_runner.hpp"
#include "regress/digest.hpp"
#include "regress/divergence.hpp"
#include "regress/matrix.hpp"
#include "sweep/scenario_run.hpp"

using namespace pmsb;
using namespace pmsb::regress;
using pmsb::experiments::Options;

// ---------------------------------------------------------------------------
// Hash128

TEST(Hash128, EmptyHashIsTheFnvOffsetBasis) {
  Hash128 h;
  EXPECT_EQ(h.hex(), "6c62272e07bb014262b821756295c58d");
  EXPECT_EQ(h.hi(), 0x6c62272e07bb0142ull);
  EXPECT_EQ(h.lo(), 0x62b821756295c58dull);
}

TEST(Hash128, SameInputSameHashDifferentInputDifferentHash) {
  Hash128 a, b, c;
  a.update_string("pmsb");
  b.update_string("pmsb");
  c.update_string("pmsc");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);
}

TEST(Hash128, IsOrderSensitive) {
  Hash128 ab, ba;
  ab.update_u64(1);
  ab.update_u64(2);
  ba.update_u64(2);
  ba.update_u64(1);
  EXPECT_NE(ab, ba);
}

TEST(Fnv1a64, MatchesKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ---------------------------------------------------------------------------
// Hash128 exactness: the word-speed fold against the textbook byte fold

namespace {

/// FNV-1a-128 folded one byte at a time on 64-bit limbs, with a portable
/// 32-bit-halves high multiply: the reference every digest must equal.
class RefHash {
 public:
  void byte(std::uint8_t b) {
    constexpr std::uint64_t kPrimeHi = 0x0000000001000000ull;
    constexpr std::uint64_t kPrimeLo = 0x000000000000013bull;
    lo_ ^= b;
    const std::uint64_t hi = hi_ * kPrimeLo + lo_ * kPrimeHi + mul_hi64(lo_, kPrimeLo);
    lo_ *= kPrimeLo;
    hi_ = hi;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t hi() const { return hi_; }
  [[nodiscard]] std::uint64_t lo() const { return lo_; }
  [[nodiscard]] std::string hex() const {
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi_),
                  static_cast<unsigned long long>(lo_));
    return buf;
  }

 private:
  static std::uint64_t mul_hi64(std::uint64_t x, std::uint64_t y) {
    const std::uint64_t a = x >> 32, b = x & 0xffffffffull;
    const std::uint64_t c = y >> 32, d = y & 0xffffffffull;
    const std::uint64_t bd = b * d;
    const std::uint64_t ad = a * d;
    const std::uint64_t bc = b * c;
    const std::uint64_t mid = (bd >> 32) + (ad & 0xffffffffull) + (bc & 0xffffffffull);
    return a * c + (ad >> 32) + (bc >> 32) + (mid >> 32);
  }

  std::uint64_t hi_ = 0x6c62272e07bb0142ull;
  std::uint64_t lo_ = 0x62b821756295c58dull;
};

::testing::AssertionResult SameState(const Hash128& h, const RefHash& ref) {
  if (h.hi() == ref.hi() && h.lo() == ref.lo()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << h.hex() << " != reference " << ref.hex();
}

}  // namespace

TEST(Hash128, MatchesPublishedFnv1a128Vectors) {
  for (const auto& [input, want] : std::vector<std::pair<std::string, std::string>>{
           {"", "6c62272e07bb014262b821756295c58d"},
           {"a", "d228cb696f1a8caf78912b704e4a8964"},
           {"foobar", "343e1662793c64bf6f0d3597ba446f18"}}) {
    Hash128 h;
    h.update_string(input);
    EXPECT_EQ(h.hex(), want) << '"' << input << '"';
  }
}

TEST(Hash128, WordFoldEqualsReferenceByteFold) {
  std::vector<std::uint64_t> words = {0, ~0ull, 1, 0xffull << 56};
  for (int i = 0; i < 8; ++i) words.push_back(1ull << (8 * i + 7));
  std::mt19937_64 rng(13);
  for (int i = 0; i < 100'000; ++i) {
    // Random widths too, so high zero runs of every length occur.
    const std::uint64_t w = rng();
    words.push_back(w >> (8 * (i % 8)));
  }
  Hash128 h;
  RefHash ref;
  for (const std::uint64_t w : words) {
    h.update_u64(w);
    ref.u64(w);
    ASSERT_TRUE(SameState(h, ref)) << "after word " << std::hex << w;
  }
}

TEST(Hash128, NarrowFieldsEqualReferenceByteFold) {
  Hash128 h;
  RefHash ref;
  for (unsigned kind = 0; kind <= 6; ++kind) {
    h.update_low_bytes(kind, sizeof(EventKind));
    ref.u64(kind);
    ASSERT_TRUE(SameState(h, ref)) << "kind " << kind;
  }
  for (const std::uint64_t id : {0ull, 1ull << 24, (1ull << 32) - 1}) {
    h.update_low_bytes(id, sizeof(EntityId));
    ref.u64(id);
    ASSERT_TRUE(SameState(h, ref)) << "entity " << id;
  }
  for (unsigned k = 0; k <= 8; ++k) {
    h.update_zeros(k);
    for (unsigned i = 0; i < k; ++i) ref.byte(0);
    ASSERT_TRUE(SameState(h, ref)) << "zero run " << k;
  }
}

// ---------------------------------------------------------------------------
// RunDigest

namespace {

/// Feeds `n` deterministic events across `entities` ids.
void feed(RunDigest& d, std::uint64_t n, std::uint32_t entities) {
  for (std::uint64_t i = 0; i < n; ++i) {
    d.event(static_cast<EntityId>(i % entities),
            static_cast<EventKind>(i % 6), static_cast<std::int64_t>(i * 10),
            i, i * 3);
  }
}

}  // namespace

TEST(RunDigest, IdenticalStreamsProduceIdenticalTotals) {
  RunDigest a, b;
  const auto ea = a.register_entity("port/x");
  const auto eb = b.register_entity("port/x");
  ASSERT_EQ(ea, eb);
  feed(a, 500, 1);
  feed(b, 500, 1);
  EXPECT_EQ(a.total().hex(), b.total().hex());
  EXPECT_EQ(a.count(), 500u);
}

TEST(RunDigest, TotalIsOrderSensitive) {
  RunDigest a, b;
  a.register_entity("e");
  b.register_entity("e");
  a.event(0, EventKind::kEnqueue, 1, 7, 8);
  a.event(0, EventKind::kDequeue, 2, 7, 8);
  b.event(0, EventKind::kDequeue, 2, 7, 8);
  b.event(0, EventKind::kEnqueue, 1, 7, 8);
  EXPECT_NE(a.total().hex(), b.total().hex());
}

TEST(RunDigest, SubDigestsLocalizeThePerturbedEntity) {
  RunDigest a, b;
  for (const char* name : {"port/p", "flow/0", "flow/1"}) {
    a.register_entity(name);
    b.register_entity(name);
  }
  feed(a, 300, 3);
  feed(b, 300, 3);
  // Perturb one extra event on flow/1 only.
  b.event(2, EventKind::kMark, 999, 1, 2);
  EXPECT_NE(a.total().hex(), b.total().hex());
  const auto sa = a.sub_digest_hex();
  const auto sb = b.sub_digest_hex();
  EXPECT_EQ(sa.at("port/p"), sb.at("port/p"));
  EXPECT_EQ(sa.at("flow/0"), sb.at("flow/0"));
  EXPECT_NE(sa.at("flow/1"), sb.at("flow/1"));
}

TEST(RunDigest, DuplicateEntityRegistrationThrows) {
  RunDigest d;
  EXPECT_EQ(d.register_entity("port/x"), 0u);
  EXPECT_EQ(d.register_entity("flow/0"), 1u);
  try {
    d.register_entity("port/x");
    FAIL() << "duplicate registration did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "RunDigest: duplicate entity 'port/x'");
  }
  // The rejected name takes no id: ids stay dense in registration order.
  EXPECT_EQ(d.register_entity("flow/1"), 2u);
  EXPECT_EQ(d.num_entities(), 3u);
  EXPECT_EQ(d.entity_name(2), "flow/1");
}

TEST(RunDigest, CheckpointCompactionIsBoundedAndDeterministic) {
  RunDigest a(1), b(1);  // checkpoint every event: forces compaction
  a.register_entity("e");
  b.register_entity("e");
  feed(a, 20000, 1);
  feed(b, 20000, 1);
  EXPECT_LE(a.checkpoints().size(), 4096u);
  EXPECT_GT(a.checkpoint_interval(), 1u);  // interval doubled at least once
  ASSERT_EQ(a.checkpoints().size(), b.checkpoints().size());
  for (std::size_t i = 0; i < a.checkpoints().size(); ++i) {
    EXPECT_EQ(a.checkpoints()[i].index, b.checkpoints()[i].index);
    EXPECT_EQ(a.checkpoints()[i].hash.hex(), b.checkpoints()[i].hash.hex());
    // Surviving indices are multiples of the (doubled) interval.
    EXPECT_EQ(a.checkpoints()[i].index % a.checkpoint_interval(), 0u);
  }
}

TEST(RunDigest, JournalCapturesExactlyTheArmedWindow) {
  RunDigest d;
  d.register_entity("e");
  d.arm_journal(5, 8);
  feed(d, 20, 1);
  ASSERT_EQ(d.journal().size(), 3u);
  EXPECT_EQ(d.journal()[0].index, 5u);
  EXPECT_EQ(d.journal()[2].index, 7u);
  EXPECT_EQ(d.journal()[1].time, 60);  // feed(): time = i * 10
}

TEST(RunDigest, StatKeysAreDistinguished) {
  RunDigest a, b;
  a.register_entity("e");
  b.register_entity("e");
  a.stat(0, "drops", 1);
  b.stat(0, "marks", 1);
  EXPECT_NE(a.total().hex(), b.total().hex());
}

namespace {

/// RunDigest's definition replayed on the reference byte fold: stream hash,
/// per-entity sub-digests, checkpoints every `interval` events, and the
/// total over the stream, the count and the sub-digests in name order.
struct RefDigest {
  explicit RefDigest(std::uint64_t interval) : interval(interval) {}

  void event(EntityId entity, EventKind kind, std::int64_t time, std::uint64_t a,
             std::uint64_t b) {
    stream.u64(entity);
    for (const std::uint64_t w : {static_cast<std::uint64_t>(kind),
                                  static_cast<std::uint64_t>(time), a, b}) {
      stream.u64(w);
      subs[entity].u64(w);
    }
    if (++count % interval == 0) checkpoints.emplace_back(count, stream.hex());
  }

  [[nodiscard]] std::string total(const std::vector<std::string>& names) const {
    RefHash t = stream;
    t.u64(count);
    std::map<std::string, std::string> by_name;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto it = subs.find(static_cast<EntityId>(i));
      by_name[names[i]] = it == subs.end() ? RefHash{}.hex() : it->second.hex();
    }
    for (const auto& [name, hex] : by_name) {
      t.str(name);
      t.str(hex);
    }
    return t.hex();
  }

  std::uint64_t interval;
  RefHash stream;
  std::map<EntityId, RefHash> subs;
  std::uint64_t count = 0;
  std::vector<std::pair<std::uint64_t, std::string>> checkpoints;
};

}  // namespace

TEST(RunDigest, EqualsReferenceDigestOnTheReferenceFold) {
  const std::vector<std::string> names = {"port/s0", "link/a", "flow/0", "flow/1",
                                          "flow/idle"};
  constexpr std::uint64_t kInterval = 64;
  RunDigest d(kInterval);
  RefDigest ref(kInterval);
  for (const auto& name : names) d.register_entity(name);
  std::mt19937_64 rng(7);
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    // Entity 4 never sees an event: its sub-digest stays the offset basis.
    const auto entity = static_cast<EntityId>(rng() % 4);
    const auto kind = static_cast<EventKind>(rng() % 7);
    const auto time = static_cast<std::int64_t>(i * 1200 + rng() % 1000);
    const std::uint64_t a = i % 3 == 0 ? ~0ull : rng() >> (rng() % 64);
    const std::uint64_t b = (rng() % 8) << 48 | (rng() % 200'000);
    d.event(entity, kind, time, a, b);
    ref.event(entity, kind, time, a, b);
  }
  EXPECT_EQ(d.stream().hex(), ref.stream.hex());
  EXPECT_EQ(d.count(), ref.count);
  const auto subs = d.sub_digest_hex();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = ref.subs.find(static_cast<EntityId>(i));
    EXPECT_EQ(subs.at(names[i]), it == ref.subs.end() ? RefHash{}.hex() : it->second.hex())
        << names[i];
  }
  ASSERT_EQ(d.checkpoints().size(), ref.checkpoints.size());
  for (std::size_t i = 0; i < ref.checkpoints.size(); ++i) {
    EXPECT_EQ(d.checkpoints()[i].index, ref.checkpoints[i].first);
    EXPECT_EQ(d.checkpoints()[i].hash.hex(), ref.checkpoints[i].second);
  }
  EXPECT_EQ(d.total().hex(), ref.total(names));
}

// ---------------------------------------------------------------------------
// Baseline store

TEST(Baseline, JsonRoundTripPreservesEveryField) {
  Baseline base;
  base.git = "abc123-dirty";
  base.warmup = 1;
  base.reps = 3;
  CellBaseline cell;
  cell.name = "cell-a";
  cell.config = {{"topology", "dumbbell"}, {"seed", "1"}};
  cell.digest = "0123456789abcdef0123456789abcdef";
  cell.event_count = 9223372036854775809ull;  // > 2^53: exercises raw_number
  cell.sub_digests = {{"flow/0", std::string(32, 'a')},
                      {"port/p", std::string(32, 'b')}};
  cell.checkpoint_interval = 2048;
  cell.checkpoints = {{2048, std::string(32, 'c')}, {4096, std::string(32, 'd')}};
  cell.perf.wall_s_median = 0.25;
  cell.perf.wall_s_mad = 0.01;
  cell.perf.events_per_s_median = 4.5e6;
  cell.perf.events_per_s_mad = 1e4;
  cell.perf.peak_rss_bytes = 123456789.0;
  cell.perf.events = 1234567;
  cell.perf.reps = 3;
  base.cells.push_back(cell);

  const auto parsed = parse_baseline(baseline_json(base), "<test>");
  EXPECT_EQ(parsed.git, "abc123-dirty");
  EXPECT_EQ(parsed.warmup, 1);
  EXPECT_EQ(parsed.reps, 3);
  ASSERT_EQ(parsed.cells.size(), 1u);
  const auto& c = parsed.cells[0];
  EXPECT_EQ(c.name, "cell-a");
  EXPECT_EQ(c.config, cell.config);
  EXPECT_EQ(c.digest, cell.digest);
  EXPECT_EQ(c.event_count, cell.event_count);
  EXPECT_EQ(c.sub_digests, cell.sub_digests);
  EXPECT_EQ(c.checkpoint_interval, 2048u);
  EXPECT_EQ(c.checkpoints, cell.checkpoints);
  EXPECT_DOUBLE_EQ(c.perf.wall_s_median, 0.25);
  EXPECT_DOUBLE_EQ(c.perf.events_per_s_median, 4.5e6);
  EXPECT_DOUBLE_EQ(c.perf.peak_rss_bytes, 123456789.0);
  EXPECT_EQ(c.perf.events, 1234567u);
  EXPECT_EQ(c.perf.reps, 3);
  EXPECT_NE(parsed.find("cell-a"), nullptr);
  EXPECT_EQ(parsed.find("missing"), nullptr);
}

TEST(Baseline, ParserRejectsWrongSchemaAndGarbage) {
  EXPECT_THROW(parse_baseline("not json", "<t>"), std::runtime_error);
  EXPECT_THROW(parse_baseline("{\"schema\":\"pmsb.run_manifest/1\"}", "<t>"),
               std::runtime_error);
  EXPECT_THROW(read_baseline("/nonexistent/baseline.json"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Bench runner statistics

TEST(BenchRunner, MedianAndMadAreRobustToOutliers) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 100.0}), 2.5);
  EXPECT_DOUBLE_EQ(mad({1.0, 2.0, 3.0}, 2.0), 1.0);
  // One wild outlier barely moves median/MAD.
  EXPECT_DOUBLE_EQ(median({5.0, 5.0, 5.0, 5.0, 500.0}), 5.0);
  EXPECT_DOUBLE_EQ(mad({5.0, 5.0, 5.0, 5.0, 500.0}, 5.0), 0.0);
}

TEST(BenchRunner, ComparePerfFlagsOnlyRegressionsBeyondNoise) {
  CellPerf base;
  base.events_per_s_median = 1e6;
  base.events_per_s_mad = 1e4;
  base.reps = 3;

  Measurement same;
  same.events_per_s_median = 0.99e6;
  same.events_per_s_mad = 1e4;
  EXPECT_TRUE(compare_perf(base, same, 0.25, 4.0).ok);

  Measurement slow;
  slow.events_per_s_median = 0.5e6;  // 50% drop >> 25% tolerance
  slow.events_per_s_mad = 1e4;
  const auto verdict = compare_perf(base, slow, 0.25, 4.0);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NEAR(verdict.ratio, 0.5, 1e-9);
  EXPECT_NE(verdict.detail.find("REGRESSION"), std::string::npos);

  // Noisy baselines widen the allowance: the same 50% drop passes when the
  // combined MAD dwarfs it.
  base.events_per_s_mad = 2e5;
  slow.events_per_s_mad = 2e5;
  EXPECT_TRUE(compare_perf(base, slow, 0.25, 4.0).ok);

  // A baseline without perf (reps == 0) always compares ok.
  CellPerf unpinned;
  EXPECT_TRUE(compare_perf(unpinned, slow, 0.25, 4.0).ok);
}

// ---------------------------------------------------------------------------
// Matrix

TEST(Matrix, DefaultMatrixHasUniqueNamesAndSelectWorks) {
  const auto all = default_matrix();
  ASSERT_GE(all.size(), 4u);
  std::set<std::string> names;
  for (const auto& cell : all) names.insert(cell.name);
  EXPECT_EQ(names.size(), all.size());

  const auto picked = select_cells(all[0].name + "," + all[1].name);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].name, all[0].name);
  EXPECT_EQ(select_cells("").size(), all.size());
  EXPECT_THROW(select_cells("no-such-cell"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: scenario runs feeding the digest

namespace {

Options small_dumbbell() {
  Options opts;
  opts.set("topology", "dumbbell");
  opts.set("scheme", "pmsb");
  opts.set("scheduler", "dwrr");
  opts.set("queues", "2");
  opts.set("flows_per_queue", "1,2");
  opts.set("duration_ms", "5");
  opts.set("seed", "7");
  return opts;
}

}  // namespace

TEST(RegressEndToEnd, BackToBackRunsProduceByteIdenticalDigests) {
  sweep::SweepPoint point;
  point.opts = small_dumbbell();
  RunDigest first, second;
  const auto r1 = sweep::run_scenario(point, true, &first);
  const auto r2 = sweep::run_scenario(point, true, &second);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(first.count(), 0u);
  EXPECT_EQ(first.count(), second.count());
  EXPECT_EQ(first.total().hex(), second.total().hex());
  EXPECT_EQ(first.sub_digest_hex(), second.sub_digest_hex());
  // The record reports the digest too.
  EXPECT_EQ(r1.info.at("digest"), first.total().hex());
  EXPECT_EQ(r1.results.at("digest.events"),
            static_cast<double>(first.count()));
}

TEST(RegressEndToEnd, QueueBackendsProduceIdenticalDigests) {
  // The tentpole guarantee at scenario scale: `sched_queue=` is a pure
  // performance knob. A full dumbbell run — packet events, timer churn,
  // cancellations, tombstone compactions — must digest identically whether
  // the kernel orders events with the heap or the calendar backend.
  sweep::SweepPoint point;
  point.opts = small_dumbbell();
  RunDigest heap, calendar;
  point.opts.set("sched_queue", "heap");
  const auto r1 = sweep::run_scenario(point, true, &heap);
  point.opts.set("sched_queue", "calendar");
  const auto r2 = sweep::run_scenario(point, true, &calendar);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(heap.count(), 0u);
  EXPECT_EQ(heap.count(), calendar.count());
  EXPECT_EQ(heap.total().hex(), calendar.total().hex());
  EXPECT_EQ(heap.sub_digest_hex(), calendar.sub_digest_hex());
}

TEST(RegressEndToEnd, DigestIsOffByDefault) {
  sweep::SweepPoint point;
  point.opts = small_dumbbell();
  const auto rec = sweep::run_scenario(point, true);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.info.count("digest"), 0u);

  // digest=1 computes one internally and reports it.
  point.opts.set("digest", "1");
  const auto with = sweep::run_scenario(point, true);
  ASSERT_TRUE(with.ok) << with.error;
  EXPECT_EQ(with.info.count("digest"), 1u);
  EXPECT_EQ(with.info.at("digest").size(), 32u);
}

TEST(RegressEndToEnd, LeafspineDigestIsDeterministicToo) {
  Options opts;
  opts.set("topology", "leafspine");
  opts.set("scheme", "pmsb");
  opts.set("flows", "40");
  opts.set("load", "0.3");
  opts.set("seed", "5");
  sweep::SweepPoint point;
  point.opts = opts;
  RunDigest first, second;
  const auto r1 = sweep::run_scenario(point, true, &first);
  const auto r2 = sweep::run_scenario(point, true, &second);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(first.total().hex(), second.total().hex());
  EXPECT_GT(first.num_entities(), 2u);
}

TEST(RegressEndToEnd, StaticBufferPolicyIsDigestIdenticalAcrossTheMatrix) {
  // The buffer-policy refactor's compatibility guarantee: routing admission
  // through BufferPolicy with the explicit `buffer_policy=static` key is
  // bit-identical to the pre-refactor inline drop-tail (the default path)
  // on EVERY cell of the regression matrix — schemes, schedulers, mark
  // points, bleach faults, and both topologies.
  for (const auto& cell : default_matrix()) {
    sweep::SweepPoint base;
    base.opts = cell.opts;
    RunDigest before;
    const auto r1 = sweep::run_scenario(base, true, &before);
    ASSERT_TRUE(r1.ok) << cell.name << ": " << r1.error;

    sweep::SweepPoint pinned;
    pinned.opts = cell.opts;
    pinned.opts.set("buffer_policy", "static");
    RunDigest after;
    const auto r2 = sweep::run_scenario(pinned, true, &after);
    ASSERT_TRUE(r2.ok) << cell.name << ": " << r2.error;

    EXPECT_GT(before.count(), 0u) << cell.name;
    EXPECT_EQ(before.count(), after.count()) << cell.name;
    EXPECT_EQ(before.total().hex(), after.total().hex()) << cell.name;
    EXPECT_EQ(before.sub_digest_hex(), after.sub_digest_hex()) << cell.name;
  }
}

TEST(RegressEndToEnd, PooledPoliciesChangeBehaviorOnlyUnderPressure) {
  // equal / dt with a generous pool admit everything the static path admits
  // in a short run, but a tiny shared pool must actually bite: the digest
  // diverges and the policy-specific drop reasons show up in the record.
  sweep::SweepPoint roomy;
  roomy.opts = small_dumbbell();
  roomy.opts.set("buffer_policy", "dt");
  roomy.opts.set("dt_alpha", "1");
  RunDigest roomy_digest;
  const auto r1 = sweep::run_scenario(roomy, true, &roomy_digest);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_EQ(r1.results.at("drops.dynamic_threshold"), 0.0);

  sweep::SweepPoint tiny = roomy;
  tiny.opts.set("buffer_bytes", std::to_string(16 * 1500));  // shared pool
  RunDigest tiny_digest;
  const auto r2 = sweep::run_scenario(tiny, true, &tiny_digest);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_GT(r2.results.at("drops.dynamic_threshold"), 0.0);
  EXPECT_NE(roomy_digest.total().hex(), tiny_digest.total().hex());
  EXPECT_EQ(r2.info.at("buffer_policy"), "dt");
}

TEST(RegressEndToEnd, PerturbationIsDetectedAndLocalized) {
  // Record the clean run as a baseline cell.
  sweep::SweepPoint clean;
  clean.opts = small_dumbbell();
  RunDigest recorded;
  ASSERT_TRUE(sweep::run_scenario(clean, true, &recorded).ok);

  CellBaseline base;
  base.name = "perturb-test";
  base.digest = recorded.total().hex();
  base.event_count = recorded.count();
  base.sub_digests = recorded.sub_digest_hex();
  base.checkpoint_interval = recorded.checkpoint_interval();
  for (const auto& cp : recorded.checkpoints()) {
    base.checkpoints.emplace_back(cp.index, cp.hash.hex());
  }

  // The "current" build bleaches half the CE marks — behaviorally divergent.
  sweep::SweepPoint perturbed = clean;
  perturbed.opts.set("bleach", "0.5");
  RunDigest current;
  ASSERT_TRUE(sweep::run_scenario(perturbed, true, &current).ok);
  EXPECT_NE(current.total().hex(), base.digest);

  const auto report = find_divergence(base, current, [&](RunDigest& replay) {
    ASSERT_TRUE(sweep::run_scenario(perturbed, true, &replay).ok);
  });
  EXPECT_TRUE(report.diverged);
  EXPECT_FALSE(report.entities.empty());
  EXPECT_TRUE(report.event_located);
  EXPECT_FALSE(report.first_entity_name.empty());
  EXPECT_NE(report.summary().find("first diverging event"), std::string::npos);
  EXPECT_LT(report.window_lo, report.window_hi);
}

TEST(RegressEndToEnd, MatchingRunYieldsNoDivergence) {
  sweep::SweepPoint point;
  point.opts = small_dumbbell();
  RunDigest recorded, again;
  ASSERT_TRUE(sweep::run_scenario(point, true, &recorded).ok);
  ASSERT_TRUE(sweep::run_scenario(point, true, &again).ok);

  CellBaseline base;
  base.name = "match-test";
  base.digest = recorded.total().hex();
  base.event_count = recorded.count();
  base.sub_digests = recorded.sub_digest_hex();
  base.checkpoint_interval = recorded.checkpoint_interval();
  for (const auto& cp : recorded.checkpoints()) {
    base.checkpoints.emplace_back(cp.index, cp.hash.hex());
  }

  bool reran = false;
  const auto report = find_divergence(base, again, [&](RunDigest&) { reran = true; });
  EXPECT_FALSE(report.diverged);
  EXPECT_FALSE(reran);  // no mismatch -> no replay
  EXPECT_EQ(report.summary(), "");
}
