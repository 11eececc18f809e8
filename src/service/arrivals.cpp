#include "service/arrivals.hpp"

#include <cmath>

#include "support/check.hpp"

namespace rcarb::service {

namespace {

// kBursty (MMPP-2): rate multipliers while bursting and while quiet, and
// the mean cycles per state (geometric dwell).
constexpr double kBurstFactor = 4.0;
constexpr double kQuietFactor = 0.25;
constexpr std::uint64_t kDwellMean = 512;

// kDiurnal: rate multipliers at the trough and at the peak.
constexpr double kTroughFactor = 0.25;
constexpr double kPeakFactor = 1.75;

/// Poisson(lambda) sample by Knuth's inversion (product of uniforms),
/// given limit = exp(-lambda).  Exact for the small per-cycle lambdas used
/// here (lambda < ~10); the loop length is itself the sample, so the rng
/// draw count varies — which is fine, every stream owns a private Rng.
int poisson(Rng& rng, double limit) {
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.next_double();
  } while (p > limit);
  return k - 1;
}

}  // namespace

const char* to_string(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  return "?";
}

ArrivalProcess::ArrivalProcess(const ArrivalOptions& options,
                               std::uint64_t seed)
    : opt_(options), rng_(seed) {
  RCARB_CHECK(opt_.rate >= 0.0, "arrival rate must be non-negative");
  RCARB_CHECK(opt_.period > 0, "period must be positive");
}

double ArrivalProcess::current_rate() const {
  switch (opt_.kind) {
    case ArrivalKind::kPoisson:
      return opt_.rate;
    case ArrivalKind::kBursty: {
      // Equal mean dwell in both states, so the long-run multiplier is the
      // midpoint; normalizing by it keeps the *average* load equal to
      // `rate` regardless of how bursty the shape is.
      const double mean_mult = (kBurstFactor + kQuietFactor) / 2.0;
      const double mult = bursting_ ? kBurstFactor : kQuietFactor;
      return opt_.rate * mult / mean_mult;
    }
    case ArrivalKind::kDiurnal: {
      const double mean_mult = (kPeakFactor + kTroughFactor) / 2.0;
      const auto phase = static_cast<double>(cycle_ % opt_.period) /
                         static_cast<double>(opt_.period);
      // Triangle: trough at phase 0 and 1, peak at phase 0.5.
      const double ramp = phase < 0.5 ? 2.0 * phase : 2.0 * (1.0 - phase);
      const double mult =
          kTroughFactor + (kPeakFactor - kTroughFactor) * ramp;
      return opt_.rate * mult / mean_mult;
    }
  }
  return opt_.rate;
}

int ArrivalProcess::step() {
  const double rate = current_rate();
  int n = 0;
  if (rate > 0.0) {
    // Poisson and bursty rates repeat cycle after cycle: exp only on a
    // change.
    if (rate != limit_rate_) {
      limit_rate_ = rate;
      limit_ = std::exp(-rate);
    }
    n = poisson(rng_, limit_);
  }
  if (opt_.kind == ArrivalKind::kBursty && rng_.chance(1, kDwellMean))
    bursting_ = !bursting_;
  ++cycle_;
  return n;
}

}  // namespace rcarb::service
