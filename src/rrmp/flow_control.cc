#include "rrmp/flow_control.h"

#include <algorithm>

namespace rrmp {

FlowControlParams sanitized(FlowControlParams p) {
  if (p.window_size == 0) p.window_size = 1;
  if (p.ack_interval <= Duration::zero()) p.ack_interval = Duration::micros(1);
  return p;
}

FlowController::FlowController(FlowControlParams params,
                               std::size_t self_budget_bytes)
    : params_(sanitized(params)), self_budget_bytes_(self_budget_bytes) {
  min_cwnd_ = params_.adaptive
                  ? std::min(kMinAdaptiveWindow, params_.window_size)
                  : params_.window_size;
  cwnd_ = min_cwnd_;  // slow start from the floor; AIMD grows it
}

FlowController::Peer& FlowController::row(MemberId id) {
  auto it = std::lower_bound(
      peers_.begin(), peers_.end(), id,
      [](const auto& entry, MemberId key) { return entry.first < key; });
  if (it == peers_.end() || it->first != id) it = peers_.insert(it, {id, {}});
  return it->second;
}

std::uint64_t FlowController::window_floor() const {
  std::optional<std::uint64_t> floor;
  for (const auto& [id, p] : peers_) {
    if (p.cursor && (!floor || *p.cursor < *floor)) floor = p.cursor;
  }
  return floor.value_or(0);
}

bool FlowController::pressured() const {
  if (!params_.backpressure) return false;
  for (const auto& [id, p] : peers_) {
    std::uint64_t budget =
        p.budget_bytes != 0 ? p.budget_bytes : self_budget_bytes_;
    if (budget == 0) continue;  // unlimited: occupancy carries no pressure
    if (static_cast<double>(p.bytes_in_use) >=
        kPressureWatermark * static_cast<double>(budget)) {
      return true;
    }
  }
  return false;
}

std::uint32_t FlowController::effective_window() const {
  std::uint32_t base = current_window();
  if (!pressured()) return base;
  // Multiplicative back-off, crowd-aware: halve, then split what remains
  // across the senders currently advertising outstanding frames. Per-sender
  // windows alone cannot adapt to how many windows are open at once — eight
  // senders at W/2 still aggregate to 4W of in-flight frames, which is
  // exactly the overload the pressure signal is reporting.
  std::uint64_t crowd = 1;  // self
  for (const auto& [id, p] : peers_) {
    if (p.window_outstanding > 0) ++crowd;
  }
  std::uint64_t halved = std::max<std::uint64_t>(1, base / 2);
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(1, halved / crowd));
}

std::uint64_t FlowController::credits() const {
  std::uint64_t window = effective_window();
  std::uint64_t out = outstanding();
  return out >= window ? 0 : window - out;
}

void FlowController::on_cursor(MemberId peer, std::uint64_t cursor) {
  // A peer cannot have received past what we sent; a corrupt or reordered
  // ack must not fabricate credit.
  cursor = std::min(cursor, send_seq_);
  Peer& p = row(peer);
  p.reported = std::max(p.reported, cursor);
  p.cursor = std::max(p.cursor.value_or(0), cursor);
}

void FlowController::on_peer_budget(MemberId peer, std::uint64_t bytes_in_use,
                                    std::uint64_t budget_bytes) {
  Peer& p = row(peer);
  p.bytes_in_use = bytes_in_use;
  p.budget_bytes = budget_bytes;
}

void FlowController::on_peer_occupancy(MemberId peer,
                                       std::uint64_t bytes_in_use,
                                       std::uint64_t window_outstanding) {
  Peer& p = row(peer);  // keeps any known budget
  p.bytes_in_use = bytes_in_use;
  p.window_outstanding = window_outstanding;
}

void FlowController::sync_peers(const std::vector<MemberId>& reachable) {
  std::erase_if(peers_, [&reachable](const auto& entry) {
    return !std::binary_search(reachable.begin(), reachable.end(),
                               entry.first);
  });
  if (send_seq_ == 0) return;  // no frame to bound yet
  // Seed at the floor (never above send_seq_ — cursors are clamped on
  // entry, so the min over them can't exceed it either); a peer that
  // already reported keeps its real cursor.
  std::uint64_t floor = window_floor();
  for (MemberId m : reachable) {
    Peer& p = row(m);
    if (!p.cursor) p.cursor = floor;
  }
}

bool FlowController::release_stalled_peers() {
  std::uint64_t floor = window_floor();
  if (floor >= send_seq_) return false;  // nothing outstanding to release
  bool held = false;  // false while no peer has a cursor yet
  for (const auto& [id, p] : peers_) {
    if (p.cursor != floor) continue;
    // An honest floor-holder (its own report reached the binding) is stuck
    // on the frame just past the floor; releasing it would fabricate
    // credit the re-multicast can still earn for real.
    if (p.reported >= floor) return false;
    held = true;
  }
  if (!held) return false;
  for (auto& [id, p] : peers_) {
    if (p.cursor == floor) p.cursor = floor + 1;
  }
  return true;
}

void FlowController::on_clean_round() {
  if (cwnd_ < params_.window_size) ++cwnd_;
}

void FlowController::on_loss() { cwnd_ = std::max(min_cwnd_, cwnd_ / 2); }

}  // namespace rrmp
