// Arbiter generation and pre-characterization.
//
// Reproduces the paper's Sec. 4.2/4.3 methodology: one parameterized
// generator builds an arbiter for any N and FSM encoding, synthesizes it
// under a chosen flow, and characterizes it for area (CLBs) and maximum
// clock speed (MHz).  A GeneratorSpec names one configuration — kind,
// width, tree arity, replication, flow, encoding and RTL mode — and is the
// key of the one process-wide memo (generate_cached) that kind selection,
// the partitioners' estimation, the flow and reconfiguration pricing all
// consult: "arbiters are pre-characterized for area and speed thus making
// the partitioners' estimation accurate."
#pragma once

#include <compare>
#include <cstdint>

#include "core/hier.hpp"
#include "core/selfcheck.hpp"
#include "synth/flow.hpp"
#include "timing/delay_model.hpp"
#include "timing/sta.hpp"

namespace rcarb::core {

/// Pre-characterized metrics of one generated arbiter.
struct ArbiterCharacteristics {
  int n = 0;
  synth::Encoding encoding = synth::Encoding::kOneHot;
  synth::FlowKind flow = synth::FlowKind::kExpressLike;
  std::size_t clbs = 0;
  std::size_t luts = 0;
  std::size_t ffs = 0;
  int lut_depth = 0;
  double fmax_mhz = 0.0;
  std::size_t aig_ands = 0;
  /// Fixed per-burst protocol cost (Fig. 8): known before synthesis.
  int overhead_cycles = 0;
};

/// A fully generated arbiter: netlist plus its characterization.
struct GeneratedArbiter {
  synth::SynthResult synth;
  timing::TimingReport timing;
  ArbiterCharacteristics chars;
};

/// How the arbiter RTL is produced before mapping.
enum class GeneratorMode : std::uint8_t {
  /// Factored rotating-priority-chain structure (the generator's default;
  /// what a multi-level-optimizing tool derives from the Fig. 5 FSM).
  kStructural,
  /// Generic two-level FSM synthesis of the Fig. 5 case statement
  /// (exercises the full espresso/AIG/mapping substrate; larger results).
  kBehavioral,
};

[[nodiscard]] const char* to_string(GeneratorMode m);

/// One arbiter configuration.  Requests that build the same netlist share
/// one memo entry:
///  * a Synplify-like flow forces one-hot, whatever encoding is asked for;
///  * `arity` only shapes kHierarchical;
///  * flat, Express-like, one-hot, structural and unreplicated is the
///    width-unlimited Fig. 5 chain (any N >= 1), whether it is asked for as
///    the FSM or as the scalable kind.
/// The other flat configurations run the FSM generator (N in [2, 20]).
/// Specs no generator builds throw CheckError: replicated hierarchical or
/// prefix arbiters, replication under a Synplify-like flow or in
/// behavioral mode, and a hierarchical or prefix arbiter with a
/// non-default flow, encoding or mode.
struct GeneratorSpec {
  int n = 0;
  ArbiterKind kind = ArbiterKind::kFlatFsm;
  int arity = 4;  // tree arity, kHierarchical only
  /// Duplicate-and-compare or TMR-voted copies stitched with the
  /// comparator / voter, so `error` is a primary output of the netlist.
  CheckMode check = CheckMode::kNone;
  synth::FlowKind flow = synth::FlowKind::kExpressLike;
  synth::Encoding encoding = synth::Encoding::kOneHot;
  GeneratorMode mode = GeneratorMode::kStructural;

  friend auto operator<=>(const GeneratorSpec&,
                          const GeneratorSpec&) = default;
};

/// Generates and characterizes the arbiter `spec` names (uncached).
[[nodiscard]] GeneratedArbiter generate(
    const GeneratorSpec& spec,
    const timing::DelayModel& model = timing::xc4000e_speed3());

/// Memoized generate: requests that resolve to one configuration (see
/// GeneratorSpec) under the same delay model synthesize once per process,
/// and every later caller gets a reference to the same immutable result.
/// Thread-safe under RCARB_JOBS: a mutex guards the key map and a
/// per-entry std::once_flag runs each synthesis exactly once, so distinct
/// keys still synthesize concurrently.  The reference lives for the
/// process.
[[nodiscard]] const GeneratedArbiter& generate_cached(
    const GeneratorSpec& spec,
    const timing::DelayModel& model = timing::xc4000e_speed3());

/// generate_cached({n, kind, arity}); perfbench is its only caller.
[[nodiscard]] const GeneratedArbiter& generate_scalable_cached(
    ArbiterKind kind, int n, int arity = 4,
    const timing::DelayModel& model = timing::xc4000e_speed3());

/// Synthesizes and characterizes an arbitrary arbiter FSM (used for the
/// Sec. 4 policy comparison; the FSM's inputs are its request lines).
[[nodiscard]] GeneratedArbiter characterize_fsm(
    const synth::Fsm& fsm, int n, synth::FlowKind flow,
    synth::Encoding encoding,
    const timing::DelayModel& model = timing::xc4000e_speed3());

/// Hit/miss counters of the process-wide synthesis memos.
struct SynthMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

[[nodiscard]] SynthMemoStats synth_memo_stats();

/// Memoized behavioral synthesis of the N-input round-robin FSM under the
/// Express-like flow, keyed by (N, encoding, hardening), without timing.
/// It serves callers that need the hardened (SEU-recovering) netlist,
/// which only synthesize_fsm builds.  Same locking discipline as
/// generate_cached; the reference lives for the process.
[[nodiscard]] const synth::SynthResult& synthesize_round_robin_cached(
    int n, synth::Encoding encoding, bool harden);

}  // namespace rcarb::core
