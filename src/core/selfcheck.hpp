// Self-checking round-robin arbiter variants.
//
// A permanent fault inside an arbiter (latch-up, stuck register) is
// invisible to the rest of the system until grants misbehave — too late
// for clean quarantine.  The classic fix is concurrent error detection:
// replicate the FSM and compare.  Two variants are provided, both as
// cycle-level behavioral models (copies of any round-robin kind, driven
// through core::Arbiter's state-register surface) and as synthesizable
// structures (copies of the round-robin AIG stitched together with a
// comparator):
//
//   * kDuplicate — duplicate-and-compare (DMR).  Two unhardened copies
//     share the request inputs but keep separate state registers.  The
//     `error` net is the OR of the state-bit XORs; while it is high the
//     grant outputs are gated off (fail-safe: a suspect arbiter grants
//     nobody) and both registers reload the reset code, so a transient
//     mismatch resyncs in one clock at the cost of a one-cycle grant gap.
//   * kTmr — triple modular redundancy.  Three copies; grants are the
//     bitwise majority of the three grant vectors, and all three registers
//     load the bitwise-majority next state, so a single corrupted copy is
//     outvoted and rewritten in one clock with *no* grant gap.  `error`
//     still reports any pairwise mismatch so supervisors see the upset.
//
// Either way a *persistent* `error` (one copy latched up, refusing the
// resync) is the signature the rcsim recovery controller classifies as a
// permanent arbiter fault.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "aig/aig.hpp"
#include "core/hier.hpp"
#include "core/policy.hpp"

namespace rcarb::core {

/// Concurrent-error-detection scheme wrapped around an arbiter.
enum class CheckMode : std::uint8_t {
  kNone,       // plain (no replication)
  kDuplicate,  // duplicate-and-compare, fail-safe gated grants
  kTmr,        // triple modular redundancy, voted grants
};

[[nodiscard]] const char* to_string(CheckMode m);

/// Register copies of a mode: 1 (plain), 2 (DMR) or 3 (TMR).
[[nodiscard]] int num_copies(CheckMode m);

/// Behavioral self-checking arbiter over 2 or 3 copies of any round-robin
/// kind (make_scalable_arbiter), at any width up to kMaxWideInputs.
/// Clock-accurate against the synthesized structure: the comparator
/// samples the *current* copy registers, so a single-bit upset raises
/// `error()` on the very next step, and the resync (DMR reset reload / TMR
/// majority rewrite) happens at that step's clock edge.  Comparing, voting
/// and rewriting all go through the copies' Arbiter state surface.  The
/// register is the copies' registers copy-major; freeze() latches copy 0.
class SelfCheckingArbiter final : public Arbiter {
 public:
  SelfCheckingArbiter(int n, CheckMode mode,
                      ArbiterKind kind = ArbiterKind::kFlatFsm, int arity = 4);

  void reset() override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] CheckMode mode() const { return mode_; }
  [[nodiscard]] int num_copies() const {
    return static_cast<int>(copies_.size());
  }

  [[nodiscard]] int num_state_bits() const override {
    return num_copies() * copy_bits_;
  }
  void read_state(std::vector<std::uint64_t>& words) const override;

  /// Permanent fault: copy 0's register is pinned (re-presented at every
  /// clock edge), so the comparator fires persistently (DMR fail-stops,
  /// TMR votes through).
  void freeze() override { copies_[0]->freeze(); }
  void thaw() override;
  [[nodiscard]] bool frozen() const override;

 protected:
  /// One clock: compare the copies, then gate (DMR) or vote (TMR).
  int do_step(std::span<const std::uint64_t> requests) override;
  void flip_bit(int bit) override;

 private:

  CheckMode mode_;
  std::vector<std::unique_ptr<Arbiter>> copies_;
  int copy_bits_ = 0;
  std::vector<std::uint64_t> reset_state_;  // one copy's reset register
  std::vector<std::vector<std::uint64_t>> state_;  // per-copy scratch
  std::vector<std::uint64_t> voted_;
};

/// Combinational AIG of the self-checking arbiter: `copies` instantiations
/// of a plain arbiter's cloud over per-copy state inputs, plus the
/// comparator, grant gating/voting and next-state mux/vote.  `plain` maps
/// [req0..req{n-1}, state0..state{nb-1}] to [ns0..ns{nb-1},
/// grant0..grant{n-1}] (every generator in core/hier.hpp, and
/// build_round_robin_aig under any encoding); `reset_bits` is the
/// *single-copy* reset register, nb bits.
///   Inputs:  req0..req{n-1}, then copy 0 state bits "state<b>", then
///            copy c >= 1 state bits "c<c>_state<b>".
///   Outputs: per-copy next-state bits (copy-major), then
///            grant0..grant{n-1}, then "error".
/// Feed the result to synth::finish_machine_synthesis with num_state_bits
/// = copies * nb and the per-copy reset bits concatenated copy-major; the
/// DFF bank then carries one register per copy bit and "error" becomes a
/// primary output net of the netlist.
[[nodiscard]] aig::Aig build_self_checking_aig(
    const aig::Aig& plain, int n, const std::vector<bool>& reset_bits,
    CheckMode mode);

}  // namespace rcarb::core
