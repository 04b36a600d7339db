#include "buffer/fixed_time.h"

namespace rrmp::buffer {

void FixedTimePolicy::on_stored(const MessageId& id) {
  store().arm(id, params_.ttl, [this, id] { store().discard(id); });
}

}  // namespace rrmp::buffer
