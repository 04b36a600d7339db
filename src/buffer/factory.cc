#include "buffer/factory.h"

#include <sstream>
#include <stdexcept>

namespace rrmp::buffer {
namespace {

std::string duration_str(Duration d) {
  if (d.is_infinite()) return "inf";
  std::ostringstream os;
  if (d.us() % 1000 == 0) {
    os << d.us() / 1000 << "ms";
  } else {
    os << d.us() << "us";
  }
  return os.str();
}

std::string number_str(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kTwoPhase: return "two-phase";
    case PolicyKind::kFixedTime: return "fixed-time";
    case PolicyKind::kBufferEverything: return "buffer-everything";
    case PolicyKind::kHashBased: return "hash-based";
    case PolicyKind::kStability: return "stability";
  }
  return "unknown";
}

PolicyKind kind_of(const PolicySpec& spec) {
  return std::visit(
      [](const auto& params) {
        using T = std::decay_t<decltype(params)>;
        if constexpr (std::is_same_v<T, TwoPhaseParams>) {
          return PolicyKind::kTwoPhase;
        } else if constexpr (std::is_same_v<T, FixedTimeParams>) {
          return PolicyKind::kFixedTime;
        } else if constexpr (std::is_same_v<T, BufferEverythingParams>) {
          return PolicyKind::kBufferEverything;
        } else if constexpr (std::is_same_v<T, HashBasedParams>) {
          return PolicyKind::kHashBased;
        } else {
          return PolicyKind::kStability;
        }
      },
      spec);
}

PolicySpec default_spec(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kTwoPhase: return TwoPhaseParams{};
    case PolicyKind::kFixedTime: return FixedTimeParams{};
    case PolicyKind::kBufferEverything: return BufferEverythingParams{};
    case PolicyKind::kHashBased: return HashBasedParams{};
    case PolicyKind::kStability: return StabilityParams{};
  }
  throw std::invalid_argument("default_spec: unknown kind");
}

bool kind_from_name(const std::string& name, PolicyKind& out) {
  for (PolicyKind kind :
       {PolicyKind::kTwoPhase, PolicyKind::kFixedTime,
        PolicyKind::kBufferEverything, PolicyKind::kHashBased,
        PolicyKind::kStability}) {
    if (name == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::string describe(const PolicySpec& spec) {
  return std::visit(
      [](const auto& p) -> std::string {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, TwoPhaseParams>) {
          return "two-phase(T=" + duration_str(p.idle_threshold) +
                 ", C=" + number_str(p.C) +
                 ", ttl=" + duration_str(p.long_term_ttl) + ")";
        } else if constexpr (std::is_same_v<T, FixedTimeParams>) {
          return "fixed-time(ttl=" + duration_str(p.ttl) + ")";
        } else if constexpr (std::is_same_v<T, BufferEverythingParams>) {
          return "buffer-everything()";
        } else if constexpr (std::is_same_v<T, HashBasedParams>) {
          return "hash-based(k=" + std::to_string(p.k) +
                 ", grace=" + duration_str(p.grace) + ")";
        } else {
          return "stability()";
        }
      },
      spec);
}

std::string describe(const CoordinationParams& coordination) {
  if (!coordination.enabled) return "uncoordinated";
  return "coordinated(digest=" + duration_str(coordination.digest_interval) +
         ", redundancy>=" + std::to_string(kRedundancyThreshold) + ")";
}

std::unique_ptr<RetentionPolicy> make_policy(const PolicySpec& spec) {
  return std::visit(
      [](const auto& params) -> std::unique_ptr<RetentionPolicy> {
        using T = std::decay_t<decltype(params)>;
        if constexpr (std::is_same_v<T, TwoPhaseParams>) {
          return std::make_unique<TwoPhasePolicy>(params);
        } else if constexpr (std::is_same_v<T, FixedTimeParams>) {
          return std::make_unique<FixedTimePolicy>(params);
        } else if constexpr (std::is_same_v<T, BufferEverythingParams>) {
          return std::make_unique<BufferEverythingPolicy>(params);
        } else if constexpr (std::is_same_v<T, HashBasedParams>) {
          return std::make_unique<HashBasedPolicy>(params);
        } else {
          return std::make_unique<StabilityPolicy>(params);
        }
      },
      spec);
}

std::unique_ptr<BufferStore> make_store(const PolicySpec& spec,
                                        BufferBudget budget,
                                        CoordinationParams coordination) {
  return std::make_unique<BufferStore>(make_policy(spec), budget,
                                       coordination);
}

}  // namespace rrmp::buffer
