#include "regress/digest.hpp"

#include <cstdio>
#include <stdexcept>

namespace pmsb::regress {

std::string Hash128::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi_),
                static_cast<unsigned long long>(lo_));
  return buf;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x00000100000001b3ull;
  }
  return h;
}

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kDequeue: return "dequeue";
    case EventKind::kMark: return "mark";
    case EventKind::kDrop: return "drop";
    case EventKind::kSend: return "send";
    case EventKind::kAck: return "ack";
    case EventKind::kStat: return "stat";
  }
  return "?";
}

RunDigest::RunDigest(std::uint64_t checkpoint_interval)
    : interval_(checkpoint_interval == 0 ? kDefaultInterval : checkpoint_interval) {}

EntityId RunDigest::register_entity(const std::string& name) {
  const auto id = static_cast<EntityId>(entities_.size());
  if (!ids_.try_emplace(name, id).second) {
    throw std::invalid_argument("RunDigest: duplicate entity '" + name + "'");
  }
  entities_.push_back({name, Hash128{}});
  return id;
}

void RunDigest::event(EntityId entity, EventKind kind, std::int64_t time,
                      std::uint64_t a, std::uint64_t b) {
  stream_.update_low_bytes(entity, sizeof(EntityId));
  Hash128& sub = entities_[entity].hash;
  const auto k = static_cast<std::uint64_t>(kind);
  stream_.update_low_bytes(k, sizeof(EventKind));
  sub.update_low_bytes(k, sizeof(EventKind));
  for (const std::uint64_t w : {static_cast<std::uint64_t>(time), a, b}) {
    stream_.update_u64(w);
    sub.update_u64(w);
  }

  const std::uint64_t index = count_++;
  if (journal_cap_ != 0 && index >= journal_lo_ && index < journal_hi_ &&
      journal_.size() < journal_cap_) {
    journal_.push_back({index, time, entity, kind, a, b});
  }
  if (++since_checkpoint_ == interval_) {
    since_checkpoint_ = 0;
    take_checkpoint();
  }
}

void RunDigest::arm_journal(std::uint64_t lo, std::uint64_t hi, std::size_t cap) {
  journal_lo_ = lo;
  journal_hi_ = hi;
  journal_cap_ = cap;
  journal_.clear();
}

void RunDigest::take_checkpoint() {
  checkpoints_.push_back({count_, stream_});
  // Compaction keeps memory bounded on arbitrarily long runs while staying a
  // pure function of the event stream: once full, drop every other entry and
  // double the interval — surviving indices are exactly the multiples of the
  // new interval.
  constexpr std::size_t kMaxCheckpoints = 4096;
  if (checkpoints_.size() >= kMaxCheckpoints) {
    std::vector<Checkpoint> kept;
    kept.reserve(checkpoints_.size() / 2 + 1);
    for (std::size_t i = 1; i < checkpoints_.size(); i += 2) {
      kept.push_back(checkpoints_[i]);
    }
    checkpoints_ = std::move(kept);
    interval_ *= 2;
  }
}

Hash128 RunDigest::total() const {
  Hash128 t = stream_;
  t.update_u64(count_);
  // Sub-digests fold in name order, so two runs that registered entities in
  // different orders (but produced the same per-entity streams) still agree.
  const auto subs = sub_digest_hex();
  for (const auto& [name, hex] : subs) {
    t.update_string(name);
    t.update_string(hex);
  }
  return t;
}

std::map<std::string, std::string> RunDigest::sub_digest_hex() const {
  std::map<std::string, std::string> out;
  for (const Entity& e : entities_) out[e.name] = e.hash.hex();
  return out;
}

}  // namespace pmsb::regress
