// Deterministic run digests for the regression plane.
//
// A RunDigest consumes the canonical event stream of one simulation run —
// enqueue/dequeue/mark/drop at switch ports, send on links and transports,
// ack at senders, plus final per-entity stats — and folds it into an
// order-sensitive streaming 128-bit hash. Two runs of the same scenario +
// seed must produce byte-identical digests; any behavioral divergence,
// however small, flips the hash.
//
// The hash is byte-exact FNV-1a-128 over each event's little-endian words,
// folded at word speed: with P = 2^88 + 0x13b a byte step is one 64x64->128
// multiply, and the zero bytes above a word's highest set bit are one multiply
// by P^k. tests/test_regress.cpp holds it to a reference byte fold.
//
// Localization: every event also folds into a per-entity sub-digest (one
// per port, per link, per flow), so a mismatch names the entity that
// diverged instead of "something differs". Periodic checkpoints of the
// stream hash (with deterministic compaction, so memory stays bounded on
// long runs) bracket WHERE in the event stream the first divergence lies;
// the divergence finder then re-runs the cell with a windowed journal armed
// and reports the first event inside that window (time, entity, kind).
//
// Cost contract: components never hold a RunDigest. They report packet
// events to a net::PacketObserver (one predictable branch when nothing
// observes them), and experiments::PacketPlanes folds the events of digested
// components here with one out-of-line call each.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace pmsb::regress {

/// Streaming FNV-1a 128-bit hash on two 64-bit limbs: per byte,
/// hash = (hash XOR byte) * P mod 2^128.
class Hash128 {
 public:
  constexpr void update_byte(std::uint8_t b) {
    lo_ ^= b;
    // P's high limb is 2^24: lo * P is lo * 0x13b plus lo shifted into hi.
    const U128 low = static_cast<U128>(lo_) * kPrimeLow;
    hi_ = hi_ * kPrimeLow + static_cast<std::uint64_t>(low >> 64) + (lo_ << 24);
    lo_ = static_cast<std::uint64_t>(low);
  }

  /// Folds a 64-bit word in little-endian order; its high zero bytes are one run.
  constexpr void update_u64(std::uint64_t v) {
    update_low_bytes(v, (std::bit_width(v) + 7) / 8);
  }

  /// Folds the low `n` bytes of `v`, then its 8 - n high bytes, which must
  /// be zero, as one run: `n` = sizeof the type `v` was widened from.
  constexpr void update_low_bytes(std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i) update_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    update_zeros(8 - n);
  }

  /// Folds `k` <= 8 zero bytes as one multiply by P^k (XOR with 0 is a no-op).
  constexpr void update_zeros(unsigned k) {
    if (k == 0) return;
    const U128 h = ((static_cast<U128>(hi_) << 64) | lo_) * kPrimePowers[k];
    hi_ = static_cast<std::uint64_t>(h >> 64);
    lo_ = static_cast<std::uint64_t>(h);
  }

  void update_string(const std::string& s) {
    for (const char c : s) update_byte(static_cast<std::uint8_t>(c));
  }

  [[nodiscard]] std::uint64_t hi() const { return hi_; }
  [[nodiscard]] std::uint64_t lo() const { return lo_; }
  /// 32 lowercase hex characters (hi then lo).
  [[nodiscard]] std::string hex() const;

  friend constexpr bool operator==(const Hash128&, const Hash128&) = default;

 private:
  using U128 = unsigned __int128;
  static constexpr std::uint64_t kPrimeLow = 0x13b;  // P = 2^88 + 0x13b
  /// P^k mod 2^128 for k = 0..8.
  static constexpr std::array<U128, 9> kPrimePowers = [] {
    const U128 prime = (U128{1} << 88) + kPrimeLow;
    std::array<U128, 9> p{1};
    for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * prime;
    return p;
  }();

  // FNV-1a 128 offset basis.
  std::uint64_t hi_ = 0x6c62272e07bb0142ull;
  std::uint64_t lo_ = 0x62b821756295c58dull;
};

// A zero run (one 128-bit multiply by P^k) must equal k byte steps (the limb
// multiply).
static_assert([] {
  for (unsigned k = 1; k <= 8; ++k) {
    Hash128 run, steps;
    run.update_zeros(k);
    for (unsigned i = 0; i < k; ++i) steps.update_byte(0);
    if (run != steps) return false;
  }
  return true;
}());

/// 64-bit FNV-1a over a string — used to fold stat KEYS into the event
/// stream as a single word.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& s);

/// Canonical event kinds the digest recognizes. The numeric values are part
/// of the digest definition — append, never renumber.
enum class EventKind : std::uint8_t {
  kEnqueue = 0,
  kDequeue = 1,
  kMark = 2,
  kDrop = 3,
  kSend = 4,
  kAck = 5,
  kStat = 6,
};

[[nodiscard]] const char* event_kind_name(EventKind kind);

/// Index of a registered entity (port, link, flow) inside one RunDigest.
using EntityId = std::uint32_t;

class RunDigest {
 public:
  /// A stream-hash checkpoint taken after `index` events.
  struct Checkpoint {
    std::uint64_t index = 0;
    Hash128 hash;
  };

  /// One journaled event (only recorded inside an armed window).
  struct JournalRecord {
    std::uint64_t index = 0;   ///< 0-based position in the event stream
    std::int64_t time = 0;     ///< simulated time (ns)
    EntityId entity = 0;
    EventKind kind = EventKind::kEnqueue;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  /// `checkpoint_interval` events between stream-hash checkpoints. When the
  /// checkpoint vector would exceed a fixed cap, every other entry is
  /// dropped and the interval doubles — deterministic for a given stream.
  explicit RunDigest(std::uint64_t checkpoint_interval = kDefaultInterval);

  /// Interns `name` and returns its id. Names must be unique per digest.
  EntityId register_entity(const std::string& name);

  /// Folds one event into the stream hash and the entity's sub-digest.
  /// No allocation outside checkpoint / journal maintenance.
  void event(EntityId entity, EventKind kind, std::int64_t time, std::uint64_t a,
             std::uint64_t b);

  /// Folds a final per-entity statistic as a kStat event (time 0, a = the
  /// FNV-64 of the key, b = the value). Feed these AFTER the run so the two
  /// sides of a comparison agree on stream position.
  void stat(EntityId entity, const std::string& key, std::uint64_t value) {
    event(entity, EventKind::kStat, 0, fnv1a64(key), value);
  }

  /// Records raw events with stream index in [lo, hi) — at most `cap` of
  /// them — for divergence localization. Arm before the run starts.
  void arm_journal(std::uint64_t lo, std::uint64_t hi, std::size_t cap = 1 << 16);

  /// The combined digest: stream hash + event count + every sub-digest in
  /// entity-name order (so registration order cannot matter).
  [[nodiscard]] Hash128 total() const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] const Hash128& stream() const { return stream_; }
  [[nodiscard]] std::uint64_t checkpoint_interval() const { return interval_; }
  [[nodiscard]] const std::vector<Checkpoint>& checkpoints() const {
    return checkpoints_;
  }
  [[nodiscard]] const std::vector<JournalRecord>& journal() const { return journal_; }

  [[nodiscard]] std::size_t num_entities() const { return entities_.size(); }
  [[nodiscard]] const std::string& entity_name(EntityId id) const {
    return entities_.at(id).name;
  }
  /// Entity name -> sub-digest hex, for baselines and mismatch reports.
  [[nodiscard]] std::map<std::string, std::string> sub_digest_hex() const;

  static constexpr std::uint64_t kDefaultInterval = 1024;

 private:
  struct Entity {
    std::string name;
    Hash128 hash;
  };

  void take_checkpoint();

  Hash128 stream_;
  std::uint64_t count_ = 0;
  std::vector<Entity> entities_;
  std::unordered_map<std::string, EntityId> ids_;  ///< name -> index

  std::uint64_t interval_;
  std::uint64_t since_checkpoint_ = 0;
  std::vector<Checkpoint> checkpoints_;

  std::uint64_t journal_lo_ = 0;
  std::uint64_t journal_hi_ = 0;
  std::size_t journal_cap_ = 0;
  std::vector<JournalRecord> journal_;
};

}  // namespace pmsb::regress
