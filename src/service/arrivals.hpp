// Distribution-driven arrival processes for the open-loop service engine.
//
// The paper's evaluation is closed-loop (a fixed task graph re-runs to
// completion), but the ROADMAP north star is a long-running service
// absorbing *open-loop* traffic: arrivals keep coming whether or not the
// system keeps up, which is exactly the regime where bounded queues and
// admission control earn their keep.  Three canonical processes are
// modeled — stationary Poisson, bursty MMPP-2 (a 2-state Markov-modulated
// Poisson process: quiet/burst states with geometric dwell times), and a
// diurnal triangle ramp — all driven by rcarb::Rng so any run is exactly
// reproducible from (options, seed).  The shapes' rate multipliers and the
// MMPP dwell time are fixed in arrivals.cpp; only the mean rate and the
// diurnal period are options.
#pragma once

#include <cstdint>

#include "support/rng.hpp"

namespace rcarb::service {

/// Shape of the offered-load process.
enum class ArrivalKind : std::uint8_t {
  kPoisson,  // stationary: arrivals-per-cycle ~ Poisson(rate)
  kBursty,   // MMPP-2: rate modulated by a quiet/burst Markov chain
  kDiurnal,  // triangle wave between trough and peak over `period`
};

[[nodiscard]] const char* to_string(ArrivalKind k);

struct ArrivalOptions {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Mean arrivals per cycle (the *average* offered load for every kind:
  /// bursty and diurnal modulate around this mean, they do not change it).
  double rate = 0.1;

  /// kDiurnal: cycles per full trough-peak-trough.
  std::uint64_t period = 4096;
};

/// One deterministic arrival stream.  step() returns the number of
/// arrivals in the current cycle and advances the process.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalOptions& options, std::uint64_t seed);

  /// Arrivals this cycle (>= 0); advances the modulating state.
  [[nodiscard]] int step();

  /// Instantaneous mean rate of the *next* step() (diagnostics / tests).
  [[nodiscard]] double current_rate() const;

 private:
  ArrivalOptions opt_;
  Rng rng_;
  std::uint64_t cycle_ = 0;
  bool bursting_ = false;  // MMPP state
  double limit_rate_ = -1.0;  // the rate limit_ was computed for
  double limit_ = 1.0;        // exp(-limit_rate_)
};

}  // namespace rcarb::service
