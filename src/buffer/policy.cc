#include "buffer/policy.h"

#include <stdexcept>

namespace rrmp::buffer {

RetentionPolicy::~RetentionPolicy() = default;

void RetentionPolicy::bind(BufferStore* store, PolicyEnv* env) {
  if (store == nullptr || env == nullptr) {
    throw std::invalid_argument("RetentionPolicy::bind: null store or env");
  }
  if (store_ != nullptr) {
    throw std::logic_error("RetentionPolicy::bind: already bound");
  }
  store_ = store;
  env_ = env;
}

}  // namespace rrmp::buffer
