#include "switchlib/buffer_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace pmsb::switchlib {

namespace {

/// Bytes the pool could still accept (0 without a pool — callers guard).
[[nodiscard]] std::uint64_t pool_free(const AdmissionRequest& req) {
  return req.pool != nullptr ? req.pool->free_bytes() : 0;
}

class StaticPerPortPolicy final : public BufferPolicy {
 public:
  [[nodiscard]] BufferPolicyKind kind() const override {
    return BufferPolicyKind::kStaticPerPort;
  }
  [[nodiscard]] const char* name() const override { return "static"; }

  [[nodiscard]] std::optional<DropReason> admit(
      const AdmissionRequest& req) const override {
    if (req.port_bytes + req.packet_bytes > req.port_budget) {
      return DropReason::kPortBudget;
    }
    if (req.pool != nullptr && req.packet_bytes > pool_free(req)) {
      return DropReason::kPoolExhausted;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t threshold_bytes(
      const AdmissionRequest& req) const override {
    if (req.pool == nullptr) return req.port_budget;
    return std::min(req.port_budget, req.port_bytes + pool_free(req));
  }
};

class StaticEqualDivisionPolicy final : public BufferPolicy {
 public:
  [[nodiscard]] BufferPolicyKind kind() const override {
    return BufferPolicyKind::kStaticEqualDivision;
  }
  [[nodiscard]] const char* name() const override { return "equal"; }

  [[nodiscard]] std::optional<DropReason> admit(
      const AdmissionRequest& req) const override {
    if (req.pool == nullptr || req.pool->num_slots() == 0) {
      // No pool to divide: behave as the static per-port budget.
      if (req.port_bytes + req.packet_bytes > req.port_budget) {
        return DropReason::kPortBudget;
      }
      return std::nullopt;
    }
    if (req.port_bytes + req.packet_bytes > share(*req.pool)) {
      return DropReason::kEqualShare;
    }
    // Shares sum to <= limit, but a port can also buffer bytes it admitted
    // before the pool filled through another path; keep the overflow check.
    if (req.packet_bytes > pool_free(req)) return DropReason::kPoolExhausted;
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t threshold_bytes(
      const AdmissionRequest& req) const override {
    if (req.pool == nullptr || req.pool->num_slots() == 0) return req.port_budget;
    return std::min(share(*req.pool), req.port_bytes + pool_free(req));
  }

 private:
  [[nodiscard]] static std::uint64_t share(const BufferPool& pool) {
    return pool.limit() / pool.num_slots();
  }
};

class DynamicThresholdsPolicy final : public BufferPolicy {
 public:
  explicit DynamicThresholdsPolicy(double alpha) : alpha_(alpha) {
    if (alpha_ <= 0.0) {
      throw std::invalid_argument("DynamicThresholds: dt_alpha must be > 0");
    }
  }

  [[nodiscard]] BufferPolicyKind kind() const override {
    return BufferPolicyKind::kDynamicThresholds;
  }
  [[nodiscard]] const char* name() const override { return "dt"; }

  [[nodiscard]] std::optional<DropReason> admit(
      const AdmissionRequest& req) const override {
    // Same decision order as the pre-policy inline code (port budget, DT,
    // pool overflow) so DT runs stay digest-identical.
    if (req.port_bytes + req.packet_bytes > req.port_budget) {
      return DropReason::kPortBudget;
    }
    if (req.pool != nullptr) {
      const double free_pool = static_cast<double>(pool_free(req));
      if (static_cast<double>(req.port_bytes + req.packet_bytes) >
          alpha_ * free_pool) {
        return DropReason::kDynamicThreshold;
      }
      if (req.packet_bytes > pool_free(req)) return DropReason::kPoolExhausted;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t threshold_bytes(
      const AdmissionRequest& req) const override {
    if (req.pool == nullptr) return req.port_budget;
    const auto dt = static_cast<std::uint64_t>(
        alpha_ * static_cast<double>(pool_free(req)));
    return std::min({req.port_budget, dt, req.port_bytes + pool_free(req)});
  }

 private:
  double alpha_;
};

}  // namespace

BufferPolicyKind parse_buffer_policy_kind(const std::string& name) {
  if (name == "static" || name == "perport") {
    return BufferPolicyKind::kStaticPerPort;
  }
  if (name == "equal" || name == "equal-division") {
    return BufferPolicyKind::kStaticEqualDivision;
  }
  if (name == "dt" || name == "dynamic") {
    return BufferPolicyKind::kDynamicThresholds;
  }
  throw std::invalid_argument("unknown buffer_policy '" + name +
                              "' (static | equal | dt)");
}

const char* buffer_policy_kind_name(BufferPolicyKind kind) {
  switch (kind) {
    case BufferPolicyKind::kStaticPerPort: return "static";
    case BufferPolicyKind::kStaticEqualDivision: return "equal";
    case BufferPolicyKind::kDynamicThresholds: return "dt";
  }
  return "?";
}

std::unique_ptr<BufferPolicy> make_buffer_policy(const BufferPolicyConfig& config) {
  switch (config.kind) {
    case BufferPolicyKind::kStaticPerPort:
      return std::make_unique<StaticPerPortPolicy>();
    case BufferPolicyKind::kStaticEqualDivision:
      return std::make_unique<StaticEqualDivisionPolicy>();
    case BufferPolicyKind::kDynamicThresholds:
      return std::make_unique<DynamicThresholdsPolicy>(config.dt_alpha);
  }
  throw std::invalid_argument("unknown BufferPolicyKind");
}

}  // namespace pmsb::switchlib
