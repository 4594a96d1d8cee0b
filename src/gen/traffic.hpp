// Burst-arrival traffic models.
//
// These drive how many new frames begin transmission at each slot; the
// bursty generator turns the resulting packet overlap into osp element
// loads.  Burstier processes yield larger σmax, which is exactly the knob
// the paper's bounds move with.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "gen/schedule.hpp"
#include "util/rng.hpp"

namespace osp {

/// Per-slot frame arrival process.
class BurstProcess {
 public:
  virtual ~BurstProcess() = default;
  virtual std::string name() const = 0;
  /// Number of new frames starting in the next slot.
  virtual std::size_t next(Rng& rng) = 0;
};

/// Poisson(λ) arrivals — mild, memoryless bursts.  Requires
/// 0 < λ <= Rng::kMaxPoissonMean.
class PoissonBursts final : public BurstProcess {
 public:
  explicit PoissonBursts(double lambda);
  std::string name() const override;
  std::size_t next(Rng& rng) override;

 private:
  double lambda_;
};

/// Markov-modulated on/off process: in the ON state frames arrive at
/// `rate_on` per slot (Poisson), in OFF at `rate_off`; switches state with
/// the given probabilities.  Models the correlated bursts that hurt a
/// router most.  Both rates must lie in [0, Rng::kMaxPoissonMean].
class OnOffBursts final : public BurstProcess {
 public:
  OnOffBursts(double p_on_to_off, double p_off_to_on, double rate_on,
              double rate_off);
  std::string name() const override;
  std::size_t next(Rng& rng) override;

 private:
  double p_on_to_off_;
  double p_off_to_on_;
  double rate_on_;
  double rate_off_;
  bool on_ = false;
};

/// Exactly c frames start every slot (the uniform-load regime of
/// Corollary 7 when frame sizes are uniform too).
class ConstantBursts final : public BurstProcess {
 public:
  explicit ConstantBursts(std::size_t c);
  std::string name() const override;
  std::size_t next(Rng& rng) override;

 private:
  std::size_t c_;
};

/// Generates a schedule of `num_frames` frames of `packets_per_frame`
/// packets each (one packet per consecutive slot, starting when the burst
/// process spawns the frame).  Frame weights default to 1; every frame is
/// appended through FrameSchedule::add_frame, so a weight that is not
/// positive throws RequireError.
FrameSchedule bursty_schedule(BurstProcess& bursts, std::size_t num_frames,
                              std::size_t packets_per_frame, Rng& rng,
                              Weight frame_weight = 1.0);

}  // namespace osp
