// Per-member buffer budget: the paper's scarce resource made a first-class,
// tunable quantity.
//
// A BufferBudget caps a member's BufferStore by bytes; zero means
// "unlimited", so default-constructed budgets reproduce the unbounded
// behaviour of the original policies exactly. Byte accounting uses the
// wire-encoded size of the buffered Data frame (see proto::encoded_size), so
// buffer occupancy and traffic statistics share one definition of "bytes".
#pragma once

#include <cstddef>

namespace rrmp::buffer {

struct BufferBudget {
  /// Maximum accounted bytes buffered by one member; 0 = unlimited.
  std::size_t max_bytes = 0;

  bool unlimited() const { return max_bytes == 0; }

  friend bool operator==(const BufferBudget&, const BufferBudget&) = default;
};

}  // namespace rrmp::buffer
