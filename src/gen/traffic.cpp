#include "gen/traffic.hpp"

#include <vector>

#include "util/require.hpp"

namespace osp {

PoissonBursts::PoissonBursts(double lambda) : lambda_(lambda) {
  OSP_REQUIRE_MSG(lambda > 0 && lambda <= Rng::kMaxPoissonMean,
                  "poisson burst rate must be in (0, "
                      << Rng::kMaxPoissonMean << "], got " << lambda);
}

std::string PoissonBursts::name() const { return "poisson"; }

std::size_t PoissonBursts::next(Rng& rng) { return rng.poisson(lambda_); }

OnOffBursts::OnOffBursts(double p_on_to_off, double p_off_to_on,
                         double rate_on, double rate_off)
    : p_on_to_off_(p_on_to_off),
      p_off_to_on_(p_off_to_on),
      rate_on_(rate_on),
      rate_off_(rate_off) {
  OSP_REQUIRE(p_on_to_off >= 0 && p_on_to_off <= 1);
  OSP_REQUIRE(p_off_to_on >= 0 && p_off_to_on <= 1);
  OSP_REQUIRE_MSG(rate_on >= 0 && rate_on <= Rng::kMaxPoissonMean &&
                      rate_off >= 0 && rate_off <= Rng::kMaxPoissonMean,
                  "on/off burst rates must be in [0, "
                      << Rng::kMaxPoissonMean << "], got " << rate_on
                      << " and " << rate_off);
}

std::string OnOffBursts::name() const { return "onoff"; }

std::size_t OnOffBursts::next(Rng& rng) {
  if (on_) {
    if (rng.chance(p_on_to_off_)) on_ = false;
  } else {
    if (rng.chance(p_off_to_on_)) on_ = true;
  }
  return rng.poisson(on_ ? rate_on_ : rate_off_);
}

ConstantBursts::ConstantBursts(std::size_t c) : c_(c) {}

std::string ConstantBursts::name() const { return "constant"; }

std::size_t ConstantBursts::next(Rng&) { return c_; }

FrameSchedule bursty_schedule(BurstProcess& bursts, std::size_t num_frames,
                              std::size_t packets_per_frame, Rng& rng,
                              Weight frame_weight) {
  OSP_REQUIRE(num_frames >= 1 && packets_per_frame >= 1);
  FrameSchedule sched;
  sched.reserve(num_frames, num_frames * packets_per_frame);
  std::vector<std::size_t> slots(packets_per_frame);
  std::size_t slot = 0;
  while (sched.frames.size() < num_frames) {
    std::size_t newcomers = bursts.next(rng);
    for (std::size_t p = 0; p < packets_per_frame; ++p) slots[p] = slot + p;
    for (std::size_t i = 0;
         i < newcomers && sched.frames.size() < num_frames; ++i)
      sched.add_frame(frame_weight, slots);
    ++slot;
    // Safety valve: a process that never fires would loop forever.
    OSP_REQUIRE_MSG(slot < 100 * num_frames * packets_per_frame + 1000,
                    "burst process produced no arrivals");
  }
  sched.horizon = slot + packets_per_frame;
  return sched;
}

}  // namespace osp
