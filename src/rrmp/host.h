// Environment abstraction for protocol components.
//
// An IHost gives an endpoint its clock, timers, randomness, membership views
// and message transmission. Two implementations exist: harness::SimHost
// (discrete-event simulator) and harness::UdpRuntime::MemberHost (real
// loopback UDP sockets). Protocol code is identical on both.
#pragma once

#include <cstdint>

#include "common/random.h"
#include "common/time.h"
#include "common/types.h"
#include "membership/view.h"
#include "proto/messages.h"
#include "sim/callback.h"

namespace rrmp {

/// Opaque timer handle; 0 is "no timer".
using TimerHandle = std::uint64_t;
inline constexpr TimerHandle kNoTimer = 0;

class IHost {
 public:
  virtual ~IHost() = default;

  virtual MemberId self() const = 0;
  virtual RegionId region() const = 0;

  virtual TimePoint now() const = 0;
  /// One-shot timer: run `fn` after `d`. Returns a handle for cancel(),
  /// never kNoTimer. `fn` is the simulator's small-buffer callable, so
  /// an implementation that stores it as is arms without allocating.
  virtual TimerHandle schedule(Duration d, sim::Callback fn) = 0;
  /// Cancel a pending timer. Cancelling kNoTimer, or a handle that already
  /// fired or was cancelled, must be a no-op: the buffer store cancels an
  /// entry's previous handle on every re-arm without tracking whether it
  /// fired.
  virtual void cancel(TimerHandle timer) = 0;

  /// Unicast to any member of the group.
  virtual void send(MemberId to, proto::Message msg) = 0;

  /// Multicast within this member's own region (excluding self).
  virtual void multicast_region(proto::Message msg) = 0;

  /// Best-effort dissemination to the whole group (the sender's initial
  /// IP multicast; per-receiver loss applies).
  virtual void ip_multicast(proto::Message msg) = 0;

  virtual RandomEngine& rng() = 0;

  /// This member's view of its own region (alive members, including self).
  virtual const membership::RegionView& local_view() const = 0;

  /// This member's view of its parent region; empty if the region is a root.
  virtual const membership::RegionView& parent_view() const = 0;

  /// Round-trip-time estimate to a peer (drives retry timers; paper sets
  /// retry timeouts to the estimated RTT of the probed member).
  virtual Duration rtt_estimate(MemberId peer) const = 0;

  /// Monotone counter that advances whenever local_view()/parent_view() may
  /// have changed contents; lets the endpoint cache view-derived state
  /// (e.g. its repair-tree representative) without rescanning members per
  /// use. Hosts whose views are immutable snapshots keep the default 0.
  virtual std::uint64_t view_epoch() const { return 0; }
};

}  // namespace rrmp
