// Width-generic wide-lane netlist simulation: 64 to 512 scenarios per pass.
//
// WideLaneSimulator packs 64..512 independent scenarios ("lanes") of one
// netlist into lane words of 1..8 uint64s, bit l%64 of word l/64 = lane l,
// and advances all of them per LUT visit: 64 Monte Carlo fault-campaign
// replicas per word, or 64 request patterns.  Net values live in a
// structure-of-arrays layout (one contiguous row of `words()` uint64s per
// net, LUT descriptors in flat topo-ordered arrays), and the per-LUT
// mux-tree fold runs on one of three kernels selected at runtime:
//
//   * portable — std::uint64_t[W] arithmetic the compiler auto-vectorizes;
//     works at every width and on every architecture (the only kernel on
//     non-x86 builds),
//   * avx2     — 256-bit ops for the 256-lane width,
//   * avx512   — 512-bit ops (one ternlog per mux step) for the 512-lane
//     width.
//
// Dispatch consults rcarb::simd_tier() — a cpuid probe clamped by the
// $RCARB_SIMD override (support/cpu.hpp) — so the same binary runs
// everywhere and `RCARB_SIMD=scalar` pins the portable kernels for
// determinism legs.  Every kernel produces bit-identical lane traces: a
// lane never observes another lane's bits, and the cross-width test suite
// pins scalar vs 64/256/512-lane checksums to exact equality.
//
// Settle strategies and two-phase clocking match netlist::Simulator lane
// by lane (the scalar engine is the oracle the lockstep tests compare
// against).  Register pokes do *not* schedule a full topo resettle in
// event-driven mode: the poked DFF's fanout cone seeds the dirty set,
// exactly as a clock() edge would for that q net.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"  // SettleMode
#include "support/cpu.hpp"

namespace rcarb::netlist {

namespace detail {
class WideSimBase;
}

/// Simulates `lanes()` independent scenarios of one Netlist in lockstep.
/// Lane l of a net is bit l%64 of word l/64 in that net's row; every
/// word-array argument points at words() uint64 values.
class WideLaneSimulator {
 public:
  static constexpr std::size_t kMaxLanes = 512;

  /// `lanes` must be a multiple of 64 in [64, 512].  `tier` caps the
  /// kernel ISA (defaults to the machine's rcarb::simd_tier()); the
  /// resolved kernel is reported by kernel_tier() — kScalar when the
  /// portable kernel runs, either because of the cap or because no SIMD
  /// kernel exists for this width.  The netlist must outlive the
  /// simulator and must not be mutated afterwards.
  explicit WideLaneSimulator(const Netlist& netlist, std::size_t lanes = 64,
                             SettleMode mode = SettleMode::kEventDriven,
                             std::optional<SimdTier> tier = std::nullopt);
  ~WideLaneSimulator();
  WideLaneSimulator(WideLaneSimulator&&) noexcept;
  WideLaneSimulator& operator=(WideLaneSimulator&&) noexcept;

  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  /// uint64 words per net row: lanes() / 64.
  [[nodiscard]] std::size_t words() const { return words_; }
  /// The kernel actually dispatched to (after cpuid + $RCARB_SIMD + width
  /// eligibility).
  [[nodiscard]] SimdTier kernel_tier() const { return tier_; }

  /// Returns all DFFs to their init values in every lane and re-settles
  /// (full pass).
  void reset();

  /// Sets a primary input across all lanes from a word array.
  void set_input(NetId net, const std::uint64_t* word);
  void set_input(const std::string& name, const std::uint64_t* word);
  /// Sets a primary input to the same value in every lane.
  void set_input_all(NetId net, bool value);
  /// Sets a primary input in one lane, leaving the others untouched.
  void set_input_lane(NetId net, std::size_t lane, bool value);

  /// Propagates combinational logic to a fixed point (all lanes).
  void settle();

  /// Rising clock edge: latches d into every q in every lane, then
  /// settles.
  void clock();

  /// Fault injection: overwrites a DFF's q row / one lane's q bit (SEUs in
  /// the register) and re-settles — event-driven via the DFF's fanout
  /// cone, no full-pass fallback.
  void poke_register(NetId net, const std::uint64_t* word);
  void poke_register_lane(NetId net, std::size_t lane, bool value);
  void poke_register_lane(const std::string& name, std::size_t lane,
                          bool value);

  /// Packed value of a net across all lanes, written to `out`.
  void get(NetId net, std::uint64_t* out) const;
  /// One lane's bit of a net.
  [[nodiscard]] bool get_lane(NetId net, std::size_t lane) const;
  [[nodiscard]] bool get_lane(const std::string& name,
                              std::size_t lane) const;

  // ---- Instrumentation (same meanings as netlist::Simulator). ----
  [[nodiscard]] std::uint64_t name_lookups() const { return name_lookups_; }
  [[nodiscard]] std::uint64_t luts_evaluated() const;
  [[nodiscard]] std::uint64_t full_settles() const;
  [[nodiscard]] std::uint64_t event_settles() const;

 private:
  [[nodiscard]] NetId resolve(const std::string& name,
                              const char* what) const;

  const Netlist* netlist_;
  std::size_t lanes_ = 0;
  std::size_t words_ = 0;
  SimdTier tier_ = SimdTier::kScalar;
  std::unique_ptr<detail::WideSimBase> impl_;
  mutable std::uint64_t name_lookups_ = 0;
};

}  // namespace rcarb::netlist
