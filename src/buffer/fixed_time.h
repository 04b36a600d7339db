// Bimodal Multicast's simple buffering policy (paper §2, [3]): every member
// buffers every message for a fixed amount of time, regardless of how the
// initial multicast went. The baseline the two-phase scheme improves on.
#pragma once

#include "buffer/policy.h"
#include "buffer/store.h"

namespace rrmp::buffer {

struct FixedTimeParams {
  /// Every message is buffered for exactly this long.
  Duration ttl = Duration::millis(100);

  friend bool operator==(const FixedTimeParams&, const FixedTimeParams&) = default;
};

class FixedTimePolicy final : public RetentionPolicy {
 public:
  explicit FixedTimePolicy(FixedTimeParams params) : params_(params) {}
  explicit FixedTimePolicy(Duration ttl) : params_{ttl} {}

  const FixedTimeParams& params() const { return params_; }
  Duration ttl() const { return params_.ttl; }

  void on_stored(const MessageId& id) override;

 private:
  FixedTimeParams params_;
};

}  // namespace rrmp::buffer
