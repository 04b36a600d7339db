// Packet-loss models for the simulated network.
//
// The paper's figure experiments assume lossless requests/repairs and drive
// the *initial multicast* outcome explicitly (a chosen subset of members
// holds the message); these models cover the general scenarios the protocol
// must survive: independent (Bernoulli) loss and bursty (Gilbert–Elliott)
// loss.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "common/random.h"
#include "common/types.h"

namespace rrmp::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Returns true if the packet should be dropped.
  virtual bool drop(RandomEngine& rng) = 0;
  /// Fresh model with the same parameters but initial chain state. The
  /// sharded network keeps one clone per region lane so stateful models
  /// (Gilbert–Elliott) never share state across concurrently-running lanes.
  virtual std::unique_ptr<LossModel> clone() const = 0;
};

/// Never drops.
class NoLoss final : public LossModel {
 public:
  bool drop(RandomEngine&) override { return false; }
  std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<NoLoss>();
  }
};

/// Drops each packet independently with probability p.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p) : p_(p) {}
  bool drop(RandomEngine& rng) override { return rng.bernoulli(p_); }
  double rate() const { return p_; }
  std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<BernoulliLoss>(p_);
  }

 private:
  double p_;
};

/// Two-state Markov (Gilbert–Elliott) burst-loss model. In the good state
/// packets drop with `loss_good`, in the bad state with `loss_bad`; the
/// chain moves good->bad with `p_gb` and bad->good with `p_bg` per packet.
class GilbertElliottLoss final : public LossModel {
 public:
  GilbertElliottLoss(double p_gb, double p_bg, double loss_good,
                     double loss_bad)
      : p_gb_(p_gb), p_bg_(p_bg), loss_good_(loss_good), loss_bad_(loss_bad) {}

  bool drop(RandomEngine& rng) override {
    if (bad_) {
      if (rng.bernoulli(p_bg_)) bad_ = false;
    } else {
      if (rng.bernoulli(p_gb_)) bad_ = true;
    }
    return rng.bernoulli(bad_ ? loss_bad_ : loss_good_);
  }

  std::unique_ptr<LossModel> clone() const override {
    return std::make_unique<GilbertElliottLoss>(p_gb_, p_bg_, loss_good_,
                                                loss_bad_);
  }

 private:
  double p_gb_, p_bg_, loss_good_, loss_bad_;
  bool bad_ = false;
};

std::unique_ptr<LossModel> make_no_loss();
std::unique_ptr<LossModel> make_bernoulli(double p);

/// Per-link loss heterogeneity: overrides the region-wide loss draw for
/// specific links. Two rule granularities, looked up in precedence order:
///
///   1. link rule  (src, dst) — one directed edge,
///   2. member rule (dst)     — every link *into* dst (a lossy edge
///                              receiver, whatever the sender),
///
/// falling back to the caller's region model when neither matches. An
/// override *replaces* the region draw (it does not compound with it), so a
/// run with an empty table consumes exactly the RNG stream of a run without
/// one. The sharded network keeps one clone() per region lane, like the
/// control-loss model, so stateful overrides (Gilbert–Elliott) never share
/// a chain across concurrently-running lanes.
class LinkLossTable {
 public:
  LinkLossTable() = default;
  LinkLossTable(LinkLossTable&&) = default;
  LinkLossTable& operator=(LinkLossTable&&) = default;

  /// Override the directed link src -> dst. Replaces any existing link rule.
  void set_link(MemberId src, MemberId dst, std::unique_ptr<LossModel> model);
  void set_link_rate(MemberId src, MemberId dst, double p);

  /// Override every link into `dst`. Replaces any existing member rule.
  void set_member(MemberId dst, std::unique_ptr<LossModel> model);
  void set_member_rate(MemberId dst, double p);

  void clear() {
    links_.clear();
    members_.clear();
  }

  bool empty() const { return links_.empty() && members_.empty(); }
  std::size_t rule_count() const { return links_.size() + members_.size(); }

  /// The override governing src -> dst (link rule before member rule), or
  /// nullptr when the region model applies. Non-const: drawing from a
  /// stateful model advances its chain.
  LossModel* find(MemberId src, MemberId dst);

  /// Deep copy with fresh chain state per rule (see LossModel::clone).
  LinkLossTable clone() const;

 private:
  // Ordered maps: clone() and any future iteration are deterministic.
  std::map<std::pair<MemberId, MemberId>, std::unique_ptr<LossModel>> links_;
  std::map<MemberId, std::unique_ptr<LossModel>> members_;
};

}  // namespace rrmp::net
