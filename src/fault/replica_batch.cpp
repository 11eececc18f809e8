#include "fault/replica_batch.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "support/check.hpp"
#include "support/parallel.hpp"

namespace rcarb::fault {

namespace {

using netlist::NetId;
using netlist::WideLaneSimulator;

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// One batch's map() output: checksums for its active replicas plus the
/// instrumentation the reducer aggregates.
struct BatchOut {
  std::vector<std::uint64_t> checksums;
  std::uint64_t luts_evaluated = 0;
  SimdTier kernel_tier = SimdTier::kScalar;
  double kernel_seconds = 0.0;
};

/// 8x8 byte transpose of 8 words: byte j of rows[k] becomes what byte k of
/// rows[j] was.
void transpose_bytes(std::uint64_t (&rows)[8]) {
  constexpr std::uint64_t kMask[3] = {0x00FF00FF00FF00FFull,
                                      0x0000FFFF0000FFFFull,
                                      0x00000000FFFFFFFFull};
  for (std::size_t s = 1, level = 0; s < 8; s *= 2, ++level)
    for (std::size_t j = 0; j < 8; ++j) {
      if ((j & s) != 0) continue;
      const std::uint64_t t =
          ((rows[j] >> (8 * s)) ^ rows[j + s]) & kMask[level];
      rows[j + s] ^= t;
      rows[j] ^= t << (8 * s);
    }
}

/// 8x8 bit transpose of one word: bit c of byte r becomes bit r of byte c.
std::uint64_t transpose_bits(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  return x ^ t ^ (t << 28);
}

/// Folds each of the first `active` lanes' grant streams into the scalar
/// Simulator checksum, c = c * 31 + (grant_i ? i + 1 : 0) per grant per
/// cycle, taking a cycle's grants a group of up to 8 at a time.  Over
/// grants s .. s + g - 1 the g Horner steps are, exactly mod 2^64,
/// c = c * 31^g + T[b]: b packs the lane's g grant bits (bit j = grant
/// s + j) and T[b] sums (s + j + 1) * 31^(g - 1 - j) over its set bits.
/// A byte then a bit transpose of the group's 8 rows of one lane word
/// yield b for its 64 lanes, 8 lanes to a word.  `grant_rows` holds
/// `words` lane words per grant per cycle.
std::vector<std::uint64_t> fold_checksums(
    const std::vector<std::uint64_t>& grant_rows, std::size_t cycles,
    std::size_t num_grants, std::size_t words, std::size_t active) {
  struct Group {
    std::size_t first = 0;
    std::size_t size = 0;
    std::uint64_t scale = 1;  // 31^size
    std::array<std::uint64_t, 256> table{};
  };
  std::vector<Group> groups;
  for (std::size_t s = 0; s < num_grants; s += 8) {
    Group& g = groups.emplace_back();
    g.first = s;
    g.size = std::min<std::size_t>(8, num_grants - s);
    for (std::size_t j = 0; j < g.size; ++j) g.scale *= 31;
    for (std::size_t b = 0; b < (std::size_t{1} << g.size); ++b)
      for (std::size_t j = 0; j < g.size; ++j)
        g.table[b] = g.table[b] * 31 + (((b >> j) & 1) ? s + j + 1 : 0);
  }
  const std::size_t used_words = (active + 63) / 64;
  std::vector<std::uint64_t> checksums(used_words * 64, 0);
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::uint64_t* cycle_rows =
        grant_rows.data() + c * num_grants * words;
    for (const Group& g : groups)
      for (std::size_t w = 0; w < used_words; ++w) {
        // rows[j]: grant first + j of this word's 64 lanes; after the byte
        // transpose, rows[k] holds lanes 8k .. 8k + 7.
        std::uint64_t rows[8] = {};
        for (std::size_t j = 0; j < g.size; ++j)
          rows[j] = cycle_rows[(g.first + j) * words + w];
        transpose_bytes(rows);
        std::uint64_t* sums = checksums.data() + w * 64;
        for (std::size_t k = 0; k < 8; ++k) {
          const std::uint64_t bits = transpose_bits(rows[k]);
          for (std::size_t i = 0; i < 8; ++i)
            sums[8 * k + i] = sums[8 * k + i] * g.scale +
                              g.table[(bits >> (8 * i)) & 0xFF];
        }
      }
  }
  checksums.resize(active);
  return checksums;
}

BatchOut run_one_batch(const ReplicaBatchSpec& spec,
                       const ReplicaBatchOptions& options,
                       std::size_t first_replica, std::size_t active) {
  const std::size_t lanes = options.lanes;
  const std::size_t cycles = spec.requests.size();
  const std::size_t num_grants = spec.grant.size();

  // (lane, state bit) pokes by cycle, for this batch's replicas.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      seu_by_cycle(cycles);
  for (std::size_t l = 0; l < active; ++l) {
    const ReplicaSeu& seu = spec.seu[first_replica + l];
    if (seu.cycle < cycles)
      seu_by_cycle[seu.cycle].push_back(
          {static_cast<std::uint32_t>(l), seu.state_bit});
  }

  WideLaneSimulator sim(*spec.netlist, lanes, options.mode, options.tier);
  const std::size_t words = sim.words();
  // Grant rows per cycle, folded into per-replica checksums after the
  // timed loop.
  std::vector<std::uint64_t> grant_rows(cycles * num_grants * words);
  const std::uint64_t evals_before = sim.luts_evaluated();

  const auto t0 = std::chrono::steady_clock::now();
  sim.reset();
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::uint64_t req = spec.requests[c];
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input_all(spec.req[i], (req >> i) & 1);
    sim.settle();
    for (std::size_t i = 0; i < num_grants; ++i)
      sim.get(spec.grant[i], grant_rows.data() + (c * num_grants + i) * words);
    for (const auto& [lane, bit] : seu_by_cycle[c]) {
      const NetId net = spec.state[bit];
      sim.poke_register_lane(net, lane, !sim.get_lane(net, lane));
    }
    sim.clock();
  }
  BatchOut out;
  out.kernel_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.luts_evaluated = sim.luts_evaluated() - evals_before;
  out.kernel_tier = sim.kernel_tier();

  out.checksums = fold_checksums(grant_rows, cycles, num_grants, words,
                                 active);
  return out;
}

}  // namespace

ReplicaBatchResult run_replica_batch(const ReplicaBatchSpec& spec,
                                     const ReplicaBatchOptions& options) {
  RCARB_CHECK(spec.netlist != nullptr, "replica batch needs a netlist");
  RCARB_CHECK(!spec.seu.empty(), "replica batch needs at least one replica");
  RCARB_CHECK(spec.req.size() <= 64,
              "replica batch request streams carry <= 64 request bits");
  for (const ReplicaSeu& seu : spec.seu)
    RCARB_CHECK(seu.state_bit < spec.state.size(),
                "replica SEU targets a state bit outside the register");
  const std::size_t lanes = options.lanes;
  RCARB_CHECK(lanes >= 64 && lanes <= WideLaneSimulator::kMaxLanes &&
                  lanes % 64 == 0,
              "replica batch lanes must be a multiple of 64 in [64, 512]");

  const std::size_t replicas = spec.seu.size();
  const std::size_t batches = (replicas + lanes - 1) / lanes;

  ReplicaBatchResult result;
  result.batches = batches;
  result.lanes = lanes;
  result.checksums.reserve(replicas);
  ordered_map_reduce<BatchOut>(
      batches,
      [&](std::size_t b) {
        const std::size_t first = b * lanes;
        const std::size_t active = std::min(lanes, replicas - first);
        return run_one_batch(spec, options, first, active);
      },
      [&](std::size_t, BatchOut out) {
        for (const std::uint64_t checksum : out.checksums) {
          result.checksums.push_back(checksum);
          result.folded = result.folded * kFnvPrime + checksum;
        }
        result.luts_evaluated += out.luts_evaluated;
        result.kernel_tier = out.kernel_tier;
        result.kernel_seconds += out.kernel_seconds;
      },
      options.jobs);
  return result;
}

}  // namespace rcarb::fault
