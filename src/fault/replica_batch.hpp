// Threaded wide-lane SEU replica batches.
//
// The fault campaign's netlist-level inner loop is a *replica batch*: R
// replicas of one arbiter netlist replay a shared request stream, each
// replica carrying its own SEU (a register bit flipped at a
// replica-specific cycle).  This is the entry point that fans a batch out
// as (batches x lanes): replicas are packed `lanes` at a time into
// netlist::WideLaneSimulator passes (64..512 lanes per pass, SIMD kernel
// chosen at runtime), and the batches run on support/parallel.hpp's
// ordered_map_reduce worker pool.
//
// Determinism contract: every replica's grant-stream checksum is a pure
// function of (netlist, request stream, that replica's SEU) — lanes never
// interact, and batches are fixed slices of the replica index space — so
// `checksums` and `folded` are byte-identical across RCARB_JOBS=1 vs N,
// across lane widths 64/256/512, across SIMD tiers, and against R scalar
// netlist::Simulator runs.  The cross-width test suite and
// bench_sim_throughput's checksum tie pin all of this.  Only
// `kernel_seconds` (wall time) is outside the contract.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "netlist/wide_simulator.hpp"
#include "support/cpu.hpp"

namespace rcarb::fault {

/// One replica's SEU: flip `state[state_bit]` after the grants of
/// `cycle` are sampled (before the clock edge).
struct ReplicaSeu {
  std::uint32_t cycle = 0;
  std::uint32_t state_bit = 0;
};

/// A batch of SEU replicas over one netlist.  `requests[c]` carries the
/// cycle-c request pattern in its low req.size() bits, shared by every
/// replica; `seu` holds one entry per replica (its size is the replica
/// count R).
struct ReplicaBatchSpec {
  const netlist::Netlist* netlist = nullptr;
  std::vector<netlist::NetId> req;
  std::vector<netlist::NetId> grant;
  std::vector<netlist::NetId> state;
  std::vector<std::uint64_t> requests;
  std::vector<ReplicaSeu> seu;
};

struct ReplicaBatchOptions {
  /// Lanes per simulator pass: a multiple of 64 in [64, 512].
  std::size_t lanes = netlist::WideLaneSimulator::kMaxLanes;
  netlist::SettleMode mode = netlist::SettleMode::kEventDriven;
  /// Caps the SIMD kernel (default: the machine tier under $RCARB_SIMD).
  std::optional<SimdTier> tier;
  /// Worker threads for the batch fan-out: 0 = $RCARB_JOBS default,
  /// 1 = exact serial path (support/parallel.hpp semantics).
  int jobs = 0;
};

struct ReplicaBatchResult {
  /// Per-replica grant-stream checksum, replica order (the scalar
  /// Simulator fold: c = c * 31 + (grant_i ? i + 1 : 0) per grant per
  /// cycle).  Computed after each batch's timed loop, lane-parallel and a
  /// group of up to 8 grants at a time: over g grants the fold is exactly
  /// c = c * 31^g + T[b] mod 2^64, b the lane's g grant bits and T a
  /// 256-entry table per group.
  std::vector<std::uint64_t> checksums;
  /// FNV-style fold of `checksums` in replica order — one word to compare
  /// across engines, widths, tiers and job counts.
  std::uint64_t folded = 0;
  /// LUT evaluations summed over all batch simulators.
  std::uint64_t luts_evaluated = 0;
  std::size_t batches = 0;
  std::size_t lanes = 0;
  /// SIMD kernel the batches dispatched to.
  SimdTier kernel_tier = SimdTier::kScalar;
  /// Summed wall time of the timed cycle loops only (excludes simulator
  /// construction and the checksum fold) — the throughput numerator is
  /// R * requests.size() lane-cycles.  Outside the determinism contract.
  double kernel_seconds = 0.0;
};

/// Runs all R = spec.seu.size() replicas and returns their checksums.
/// See the file comment for the determinism contract.
[[nodiscard]] ReplicaBatchResult run_replica_batch(
    const ReplicaBatchSpec& spec, const ReplicaBatchOptions& options = {});

}  // namespace rcarb::fault
