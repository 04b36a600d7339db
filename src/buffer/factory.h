// Construction of retention policies and buffer stores, used by the
// harness, benches and examples to sweep all five schemes through identical
// scenarios.
//
// A PolicySpec is a std::variant of per-policy param structs. It is
// self-describing — the active alternative IS the chosen policy, so a config
// can be printed (describe()) and can never carry stale knobs for a policy
// it does not select. to_string(PolicyKind) is the one policy-name table.
#pragma once

#include <memory>
#include <string>
#include <variant>

#include "buffer/budget.h"
#include "buffer/buffer_everything.h"
#include "buffer/fixed_time.h"
#include "buffer/hash_based.h"
#include "buffer/policy.h"
#include "buffer/stability.h"
#include "buffer/store.h"
#include "buffer/two_phase.h"

namespace rrmp::buffer {

enum class PolicyKind {
  kTwoPhase,
  kFixedTime,
  kBufferEverything,
  kHashBased,
  kStability,
};

const char* to_string(PolicyKind kind);

/// Self-describing policy selection: the active alternative names the
/// policy, its fields are that policy's knobs.
using PolicySpec = std::variant<TwoPhaseParams, FixedTimeParams,
                                BufferEverythingParams, HashBasedParams,
                                StabilityParams>;

PolicyKind kind_of(const PolicySpec& spec);
inline const char* to_string(const PolicySpec& spec) {
  return to_string(kind_of(spec));
}

/// Paper-default spec for `kind` (e.g. for sweeping all five schemes).
PolicySpec default_spec(PolicyKind kind);

/// Parse a policy name ("two-phase", "hash-based", ...) to its kind.
bool kind_from_name(const std::string& name, PolicyKind& out);

/// Human-readable one-liner, e.g. "two-phase(T=40ms, C=6, ttl=inf)" —
/// printed by scenario_cli's run header and useful in logs.
std::string describe(const PolicySpec& spec);

/// Companion one-liner for the coordination knobs, e.g.
/// "coordinated(digest=20ms, redundancy>=2)" or "uncoordinated".
std::string describe(const CoordinationParams& coordination);

std::unique_ptr<RetentionPolicy> make_policy(const PolicySpec& spec);

/// A store wired to a fresh policy for `spec` under `budget` with the given
/// coordination knobs (still unbound; the owner calls bind()).
std::unique_ptr<BufferStore> make_store(const PolicySpec& spec,
                                        BufferBudget budget = {},
                                        CoordinationParams coordination = {});

}  // namespace rrmp::buffer
