// Cross-width equivalence of the wide-lane engine: scalar Simulator vs
// WideLaneSimulator at 64/256/512 lanes, across SIMD kernel tiers, across
// full-topo and event-driven settling, under SEU pokes and mid-run
// reset() — all bit-identical.  Plus the threaded replica-batch entry
// point (fault::run_replica_batch): byte-identical checksums at 1/2/8
// jobs and across lane widths, and the support/cpu tier-resolution rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "fault/replica_batch.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "netlist/wide_simulator.hpp"
#include "support/cpu.hpp"
#include "support/rng.hpp"
#include "synth/flow.hpp"

namespace rcarb::netlist {
namespace {

/// Nets every engine drives/observes: primary inputs, and the q nets +
/// marked outputs folded into the per-lane checksum.
struct Ports {
  std::vector<NetId> in;
  std::vector<NetId> observed;
  std::vector<NetId> state;  // q nets (poke targets)
};

Ports collect_ports(const Netlist& nl) {
  Ports p;
  p.in = nl.inputs();
  for (const Dff& dff : nl.dffs()) {
    p.state.push_back(dff.q);
    p.observed.push_back(dff.q);
  }
  for (const auto& [net, name] : nl.outputs()) p.observed.push_back(net);
  return p;
}

/// A random synchronous LUT/DFF netlist: LUT inputs only reference
/// earlier-created nets (primary inputs, q nets, earlier LUT outputs), so
/// the combinational graph is acyclic by construction; DFF d inputs may
/// close sequential loops over anything.
Netlist random_netlist(std::uint64_t seed, int num_inputs, int num_dffs,
                       int num_luts) {
  Rng rng(seed);
  Netlist nl;
  std::vector<NetId> pool;
  for (int i = 0; i < num_inputs; ++i)
    pool.push_back(nl.add_input("in" + std::to_string(i)));
  for (int i = 0; i < num_dffs; ++i)
    pool.push_back(nl.add_dff(pool[0], rng.next_below(2) == 1,
                              "state" + std::to_string(i)));
  for (int i = 0; i < num_luts; ++i) {
    const std::size_t arity = 1 + rng.next_below(kMaxLutInputs);
    std::vector<NetId> inputs;
    for (std::size_t k = 0; k < arity; ++k)
      inputs.push_back(pool[rng.next_below(pool.size())]);
    const auto mask = static_cast<std::uint16_t>(
        rng.next_below(std::uint64_t{1} << (std::uint64_t{1} << arity)));
    pool.push_back(nl.add_lut(std::move(inputs), mask,
                              "lut" + std::to_string(i)));
  }
  for (int i = 0; i < num_dffs; ++i)
    nl.connect_dff_d(static_cast<std::size_t>(i),
                     pool[rng.next_below(pool.size())]);
  nl.mark_output(pool.back(), "out");
  return nl;
}

/// Per-lane input bit for (seed, lane, cycle, input) — width-independent,
/// so lane l sees the same stimulus no matter how many lanes ride along.
bool lane_input_bit(std::uint64_t seed, std::size_t lane, int cycle,
                    std::size_t input) {
  Rng rng(derive_seed(seed, lane * 1000003u + static_cast<std::size_t>(cycle) *
                                                  131u +
                                              input));
  return rng.next_below(2) == 1;
}

struct LaneRunConfig {
  std::size_t lanes = 64;
  SettleMode mode = SettleMode::kEventDriven;
  std::optional<SimdTier> tier;
  int cycles = 120;
  int reset_at = -1;       // mid-run reset() cycle, -1 = never
  int poke_every = 13;     // SEU cadence, 0 = no pokes
};

/// Drives a WideLaneSimulator with the (seed, lane)-derived stimulus and
/// returns one checksum per lane over the observed nets.
std::vector<std::uint64_t> run_wide(const Netlist& nl, const Ports& p,
                                    std::uint64_t seed,
                                    const LaneRunConfig& cfg) {
  WideLaneSimulator sim(nl, cfg.lanes, cfg.mode, cfg.tier);
  std::vector<std::uint64_t> checksum(cfg.lanes, 0);
  std::vector<std::uint64_t> row(sim.words());
  for (int cyc = 0; cyc < cfg.cycles; ++cyc) {
    if (cyc == cfg.reset_at) sim.reset();
    for (std::size_t i = 0; i < p.in.size(); ++i) {
      for (std::size_t w = 0; w < sim.words(); ++w) {
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < 64; ++b)
          if (lane_input_bit(seed, w * 64 + b, cyc, i))
            word |= std::uint64_t{1} << b;
        row[w] = word;
      }
      sim.set_input(p.in[i], row.data());
    }
    sim.settle();
    for (std::size_t o = 0; o < p.observed.size(); ++o) {
      sim.get(p.observed[o], row.data());
      for (std::size_t l = 0; l < cfg.lanes; ++l)
        checksum[l] =
            checksum[l] * 31 + (((row[l / 64] >> (l % 64)) & 1u) ? o + 1 : 0);
    }
    if (cfg.poke_every > 0 && !p.state.empty() &&
        cyc % cfg.poke_every == cfg.poke_every - 1) {
      // Each lane pokes its own register: lane l flips state[l % S].
      for (std::size_t l = 0; l < cfg.lanes; ++l) {
        const NetId reg = p.state[l % p.state.size()];
        sim.poke_register_lane(reg, l, !sim.get_lane(reg, l));
      }
    }
    sim.clock();
  }
  return checksum;
}

/// The same run on the scalar Simulator for one lane.
std::uint64_t run_scalar_lane(const Netlist& nl, const Ports& p,
                              std::uint64_t seed, std::size_t lane,
                              const LaneRunConfig& cfg) {
  Simulator sim(nl, cfg.mode);
  std::uint64_t checksum = 0;
  for (int cyc = 0; cyc < cfg.cycles; ++cyc) {
    if (cyc == cfg.reset_at) sim.reset();
    for (std::size_t i = 0; i < p.in.size(); ++i)
      sim.set_input(p.in[i], lane_input_bit(seed, lane, cyc, i));
    sim.settle();
    for (std::size_t o = 0; o < p.observed.size(); ++o)
      checksum = checksum * 31 + (sim.get(p.observed[o]) ? o + 1 : 0);
    if (cfg.poke_every > 0 && !p.state.empty() &&
        cyc % cfg.poke_every == cfg.poke_every - 1) {
      const NetId reg = p.state[lane % p.state.size()];
      sim.poke_register(reg, !sim.get(reg));
    }
    sim.clock();
  }
  return checksum;
}

/// Asserts scalar-vs-wide and wide-vs-wide checksum equality for one
/// netlist: widths 64/256/512 (auto tier + forced-portable), full-topo +
/// event-driven, with SEU pokes and a mid-run reset.
void check_cross_width(const Netlist& nl, std::uint64_t seed) {
  const Ports p = collect_ports(nl);
  ASSERT_FALSE(p.observed.empty());

  LaneRunConfig cfg;
  cfg.reset_at = 57;
  for (const SettleMode mode :
       {SettleMode::kEventDriven, SettleMode::kFullTopo}) {
    cfg.mode = mode;
    std::vector<std::vector<std::uint64_t>> by_width;
    for (const std::size_t lanes : {std::size_t{64}, std::size_t{256},
                                    std::size_t{512}}) {
      cfg.lanes = lanes;
      cfg.tier = std::nullopt;  // auto: widest kernel this machine has
      const std::vector<std::uint64_t> auto_tier = run_wide(nl, p, seed, cfg);
      cfg.tier = SimdTier::kScalar;  // forced-portable kernel
      const std::vector<std::uint64_t> portable = run_wide(nl, p, seed, cfg);
      ASSERT_EQ(auto_tier, portable)
          << "SIMD kernel diverged from the portable kernel at " << lanes
          << " lanes";
      by_width.push_back(auto_tier);
    }
    // Lane l must agree across widths (the stimulus is lane-derived).
    for (std::size_t l = 0; l < 64; ++l) {
      ASSERT_EQ(by_width[0][l], by_width[1][l]) << "64 vs 256, lane " << l;
      ASSERT_EQ(by_width[0][l], by_width[2][l]) << "64 vs 512, lane " << l;
    }
    for (std::size_t l = 64; l < 256; ++l)
      ASSERT_EQ(by_width[1][l], by_width[2][l]) << "256 vs 512, lane " << l;
    // Scalar reference for sampled lanes, including high ones only the
    // wider runs carry.
    for (const std::size_t lane : {std::size_t{0}, std::size_t{63}}) {
      ASSERT_EQ(run_scalar_lane(nl, p, seed, lane, cfg), by_width[0][lane])
          << "scalar vs 64-lane, lane " << lane;
    }
    for (const std::size_t lane : {std::size_t{64}, std::size_t{200}})
      ASSERT_EQ(run_scalar_lane(nl, p, seed, lane, cfg), by_width[1][lane])
          << "scalar vs 256-lane, lane " << lane;
    ASSERT_EQ(run_scalar_lane(nl, p, seed, 511, cfg), by_width[2][511])
        << "scalar vs 512-lane, lane 511";
  }
}

TEST(WideCrossWidth, RandomNetlistsAgreeAcrossWidthsTiersAndModes) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Netlist nl =
        random_netlist(seed, /*num_inputs=*/5, /*num_dffs=*/6,
                       /*num_luts=*/40);
    check_cross_width(nl, seed * 17);
  }
}

TEST(WideCrossWidth, HardenedArbiterAgreesAcrossWidths) {
  const auto& s = core::synthesize_round_robin_cached(
      3, synth::Encoding::kOneHot, /*harden=*/true);
  check_cross_width(s.netlist, 4242);
}

TEST(WideCrossWidth, StructuralArbiterAgreesAcrossWidths) {
  const auto& g = core::generate_round_robin_cached(
      8, synth::FlowKind::kExpressLike, synth::Encoding::kOneHot);
  check_cross_width(g.synth.netlist, 9001);
}

TEST(WideKernel, DispatchReportsAtMostTheMachineTier) {
  const auto& s = core::synthesize_round_robin_cached(
      3, synth::Encoding::kOneHot, /*harden=*/true);
  for (const std::size_t lanes : {std::size_t{64}, std::size_t{256},
                                  std::size_t{512}}) {
    WideLaneSimulator sim(s.netlist, lanes);
    EXPECT_LE(sim.kernel_tier(), simd_tier());
    EXPECT_EQ(sim.lanes(), lanes);
    EXPECT_EQ(sim.words(), lanes / 64);
    // 64-lane rows have no SIMD kernel: always the portable engine.
    if (lanes == 64) {
      EXPECT_EQ(sim.kernel_tier(), SimdTier::kScalar);
    }
    // A SIMD kernel only dispatches when the machine has it.
    if (lanes == 256 && simd_tier() >= SimdTier::kAvx2) {
      EXPECT_EQ(sim.kernel_tier(), SimdTier::kAvx2);
    }
    if (lanes == 512 && simd_tier() >= SimdTier::kAvx512) {
      EXPECT_EQ(sim.kernel_tier(), SimdTier::kAvx512);
    }
    // Forcing the portable kernel always sticks.
    WideLaneSimulator forced(s.netlist, lanes, SettleMode::kEventDriven,
                             SimdTier::kScalar);
    EXPECT_EQ(forced.kernel_tier(), SimdTier::kScalar);
  }
}

TEST(WideEventDriven, SkipsCleanLutsAndPokesStayIncremental) {
  const auto& g = core::generate_round_robin_cached(
      8, synth::FlowKind::kExpressLike, synth::Encoding::kOneHot);
  const Netlist& nl = g.synth.netlist;
  const Ports p = collect_ports(nl);

  WideLaneSimulator full(nl, 256, SettleMode::kFullTopo);
  WideLaneSimulator event(nl, 256, SettleMode::kEventDriven);
  for (WideLaneSimulator* sim : {&full, &event}) {
    sim->set_input_all(nl.inputs()[2], true);
    for (int cyc = 0; cyc < 100; ++cyc) {
      sim->settle();
      sim->clock();
    }
  }
  EXPECT_LT(event.luts_evaluated(), full.luts_evaluated());
  EXPECT_GT(event.event_settles(), 0u);

  // A poke seeds the fanout cone — no full-resettle fallback.
  const std::uint64_t full_passes = event.full_settles();
  const std::uint64_t evals = event.luts_evaluated();
  event.poke_register_lane(p.state[0], 137, !event.get_lane(p.state[0], 137));
  EXPECT_EQ(event.full_settles(), full_passes);
  EXPECT_LT(event.luts_evaluated() - evals, nl.num_luts());
}

TEST(WideNameLookups, ResolvedIdLoopsDoNoStringHashing) {
  const auto& g = core::generate_round_robin_cached(
      4, synth::FlowKind::kExpressLike, synth::Encoding::kOneHot);
  const Netlist& nl = g.synth.netlist;
  const Ports p = collect_ports(nl);
  WideLaneSimulator sim(nl, 256);
  for (int cyc = 0; cyc < 50; ++cyc) {
    sim.set_input_all(p.in[static_cast<std::size_t>(cyc) % p.in.size()],
                      (cyc & 1) != 0);
    sim.settle();
    for (const NetId net : p.observed) (void)sim.get_lane(net, 200);
    sim.clock();
  }
  EXPECT_EQ(sim.name_lookups(), 0u);
  (void)sim.get_lane("grant0", 0);
  EXPECT_EQ(sim.name_lookups(), 1u);
}

// ---- Threaded replica batches. ----

fault::ReplicaBatchSpec campaign_spec(const Netlist& nl, int n,
                                      std::size_t replicas,
                                      std::uint64_t seed,
                                      std::size_t cycles) {
  fault::ReplicaBatchSpec spec;
  spec.netlist = &nl;
  for (int i = 0; i < n; ++i) {
    spec.req.push_back(*nl.find_net("req" + std::to_string(i)));
    spec.grant.push_back(*nl.find_net("grant" + std::to_string(i)));
  }
  for (std::size_t s = 0;; ++s) {
    const auto net = nl.find_net("state" + std::to_string(s));
    if (!net.has_value()) break;
    spec.state.push_back(*net);
  }
  Rng rng(seed);
  for (std::size_t c = 0; c < cycles; ++c)
    spec.requests.push_back(rng.next_below(std::uint64_t{1} << n));
  for (std::size_t r = 0; r < replicas; ++r)
    spec.seu.push_back(
        {static_cast<std::uint32_t>(rng.next_below(cycles)),
         static_cast<std::uint32_t>(rng.next_below(spec.state.size()))});
  return spec;
}

TEST(ReplicaBatch, ByteIdenticalAcrossJobsWidthsAndTiers) {
  const auto& s = core::synthesize_round_robin_cached(
      3, synth::Encoding::kOneHot, /*harden=*/true);
  // 300 replicas: not a multiple of any lane width, so every width
  // exercises a partial final batch.
  const fault::ReplicaBatchSpec spec =
      campaign_spec(s.netlist, 3, /*replicas=*/300, /*seed=*/777,
                    /*cycles=*/96);

  fault::ReplicaBatchOptions base;
  base.lanes = 256;
  base.jobs = 1;
  const fault::ReplicaBatchResult serial = fault::run_replica_batch(spec, base);
  ASSERT_EQ(serial.checksums.size(), 300u);
  EXPECT_EQ(serial.batches, 2u);

  for (const int jobs : {2, 8}) {
    fault::ReplicaBatchOptions opt = base;
    opt.jobs = jobs;
    const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
    EXPECT_EQ(r.checksums, serial.checksums) << jobs << " jobs";
    EXPECT_EQ(r.folded, serial.folded) << jobs << " jobs";
  }
  for (const std::size_t lanes : {std::size_t{64}, std::size_t{512}}) {
    fault::ReplicaBatchOptions opt = base;
    opt.lanes = lanes;
    opt.jobs = 2;
    const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
    EXPECT_EQ(r.checksums, serial.checksums) << lanes << " lanes";
    EXPECT_EQ(r.folded, serial.folded) << lanes << " lanes";
  }
  {
    fault::ReplicaBatchOptions opt = base;
    opt.tier = SimdTier::kScalar;
    opt.jobs = 2;
    const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
    EXPECT_EQ(r.checksums, serial.checksums) << "portable tier";
    EXPECT_EQ(r.folded, serial.folded) << "portable tier";
  }
  {
    fault::ReplicaBatchOptions opt = base;
    opt.mode = SettleMode::kFullTopo;
    const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
    EXPECT_EQ(r.checksums, serial.checksums) << "full-topo settle";
  }
}

TEST(ReplicaBatch, MatchesScalarSimulatorReplicas) {
  const auto& s = core::synthesize_round_robin_cached(
      3, synth::Encoding::kOneHot, /*harden=*/true);
  const std::size_t cycles = 80;
  const fault::ReplicaBatchSpec spec =
      campaign_spec(s.netlist, 3, /*replicas=*/70, /*seed=*/31337, cycles);
  fault::ReplicaBatchOptions opt;
  opt.lanes = 64;
  const fault::ReplicaBatchResult wide = fault::run_replica_batch(spec, opt);

  for (const std::size_t r : {std::size_t{0}, std::size_t{33},
                              std::size_t{69}}) {
    Simulator sim(s.netlist);
    std::uint64_t checksum = 0;
    for (std::size_t c = 0; c < cycles; ++c) {
      for (std::size_t i = 0; i < spec.req.size(); ++i)
        sim.set_input(spec.req[i], (spec.requests[c] >> i) & 1);
      sim.settle();
      for (std::size_t i = 0; i < spec.grant.size(); ++i)
        checksum = checksum * 31 + (sim.get(spec.grant[i]) ? i + 1 : 0);
      if (spec.seu[r].cycle == c) {
        const NetId net = spec.state[spec.seu[r].state_bit];
        sim.poke_register(net, !sim.get(net));
      }
      sim.clock();
    }
    EXPECT_EQ(wide.checksums[r], checksum) << "replica " << r;
  }
}

// ---- support/cpu tier resolution. ----

std::string g_last_warning;
void capture_warning(const std::string& msg) { g_last_warning = msg; }

TEST(SimdTierResolution, ParsesExactlyTheThreeTierNames) {
  EXPECT_EQ(parse_simd_tier("scalar"), SimdTier::kScalar);
  EXPECT_EQ(parse_simd_tier("avx2"), SimdTier::kAvx2);
  EXPECT_EQ(parse_simd_tier("avx512"), SimdTier::kAvx512);
  EXPECT_EQ(parse_simd_tier(""), std::nullopt);
  EXPECT_EQ(parse_simd_tier("AVX2"), std::nullopt);
  EXPECT_EQ(parse_simd_tier("sse"), std::nullopt);
  EXPECT_EQ(parse_simd_tier("avx512bw"), std::nullopt);
}

TEST(SimdTierResolution, OverridesClampAndWarn) {
  // No override: detected tier passes through, no warning.
  g_last_warning.clear();
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx2, nullptr, capture_warning),
            SimdTier::kAvx2);
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx2, "", capture_warning),
            SimdTier::kAvx2);
  EXPECT_TRUE(g_last_warning.empty());

  // Downgrades apply silently.
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx512, "scalar", capture_warning),
            SimdTier::kScalar);
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx512, "avx2", capture_warning),
            SimdTier::kAvx2);
  EXPECT_TRUE(g_last_warning.empty());

  // Requesting beyond the machine clamps with a warning.
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx2, "avx512", capture_warning),
            SimdTier::kAvx2);
  EXPECT_NE(g_last_warning.find("clamping"), std::string::npos);

  // Malformed values warn and keep the detected tier.
  g_last_warning.clear();
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx512, "wide", capture_warning),
            SimdTier::kAvx512);
  EXPECT_NE(g_last_warning.find("malformed"), std::string::npos);

  // The cached process-wide tier can never exceed detection.
  EXPECT_LE(simd_tier(), detected_simd_tier());
}

}  // namespace
}  // namespace rcarb::netlist
