// RMTP-style repair-server policy (paper §1): buffer every message for the
// whole session. "Feasible only if the size of data transmitted in the
// current session has a reasonable limit" — the benchmark harness shows its
// buffer occupancy growing without bound on long-lived streams, and the
// capacity-sweep experiments show what a byte budget does to it.
#pragma once

#include "buffer/policy.h"

namespace rrmp::buffer {

struct BufferEverythingParams {
  friend bool operator==(const BufferEverythingParams&,
                         const BufferEverythingParams&) = default;
};

class BufferEverythingPolicy final : public RetentionPolicy {
 public:
  BufferEverythingPolicy() = default;
  explicit BufferEverythingPolicy(BufferEverythingParams) {}

  /// A leaving repair server hands its entire archive over.
  bool handoff_includes_short_term() const override { return true; }

  void on_stored(const MessageId&) override {}  // never discards
};

}  // namespace rrmp::buffer
