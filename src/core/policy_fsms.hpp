// Synthesizable FSMs for the alternative arbitration policies.
//
// Sec. 4 of the paper reports that random, FIFO and priority resolution
// were *examined* and rejected: "the required hardware made the arbiter
// either too slow or too large".  These builders make that claim
// measurable: each policy becomes a Mealy FSM that runs through the same
// synthesis flow as the round-robin arbiter, so the policy ablation bench
// can put CLB counts and Fmax next to each other.
//
//   * priority  — states IDLE, H0..H(N-1); fixed descending priority with
//     grant-hold; scan-structured guards like the round-robin machine.
//   * random    — a 3-bit maximal LFSR supplies a rotating scan offset;
//     states are (holder|idle) x LFSR phase.  A behavioral twin
//     (LfsrRandomArbiter) exists for equivalence testing (the Policy::
//     kRandom simulation model uses an ideal RNG instead).
//   * fifo      — true arrival-order service.  The queue *is* the state, so
//     the machine is built by reachability exploration from the empty
//     queue; state count explodes combinatorially with N — which is
//     exactly the paper's point.  Supported for n in [2, 4].
#pragma once

#include <cstdint>
#include <functional>

#include "core/policy.hpp"
#include "synth/fsm.hpp"

namespace rcarb::core {

/// Static-priority arbiter FSM (lowest index wins; holder keeps).
[[nodiscard]] synth::Fsm build_priority_fsm(int n);

/// LFSR-randomized arbiter FSM.  2 <= n <= 6 keeps one-hot elaboration
/// within the 64-variable cube universe.
[[nodiscard]] synth::Fsm build_lfsr_random_fsm(int n);

/// FIFO arbiter FSM via reachable-state exploration.  2 <= n <= 4.
[[nodiscard]] synth::Fsm build_fifo_fsm(int n);

/// Behavioral twin of build_lfsr_random_fsm (same LFSR, same scan).
class LfsrRandomArbiter final : public Arbiter {
 public:
  explicit LfsrRandomArbiter(int n);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

 protected:
  int do_step(std::span<const std::uint64_t> requests) override;

 private:
  int holder_ = -1;  // -1: idle
  int lfsr_ = 1;     // 3-bit maximal LFSR, never 0
};

/// Advances the 3-bit maximal LFSR (x^3 + x^2 + 1); period 7, never 0.
[[nodiscard]] int lfsr3_next(int state);

}  // namespace rcarb::core
