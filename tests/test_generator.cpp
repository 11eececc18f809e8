#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

#include "core/generator.hpp"
#include "core/policy.hpp"
#include "core/rr_fsm.hpp"
#include "core/structural.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace rcarb::core {
namespace {

TEST(Generator, CharacteristicsArePopulated) {
  const GeneratedArbiter g = generate({.n = 4});
  EXPECT_EQ(g.chars.n, 4);
  EXPECT_GT(g.chars.clbs, 0u);
  EXPECT_GT(g.chars.luts, 0u);
  EXPECT_EQ(g.chars.ffs, 8u);  // one-hot: 2N registers
  EXPECT_GT(g.chars.fmax_mhz, 0.0);
  EXPECT_EQ(g.chars.overhead_cycles, kProtocolOverheadCycles);
  EXPECT_EQ(g.chars.encoding, synth::Encoding::kOneHot);
}

TEST(Generator, SynplifyForcesOneHotEvenWhenCompactRequested) {
  const GeneratedArbiter g =
      generate({.n = 4,
                .flow = synth::FlowKind::kSynplifyLike,
                .encoding = synth::Encoding::kCompact});
  EXPECT_EQ(g.chars.encoding, synth::Encoding::kOneHot);
}

TEST(Generator, CompactUsesFewerRegisters) {
  const GeneratedArbiter oh = generate({.n = 6});
  const GeneratedArbiter cp =
      generate({.n = 6, .encoding = synth::Encoding::kCompact});
  EXPECT_EQ(oh.chars.ffs, 12u);
  EXPECT_EQ(cp.chars.ffs, 4u);  // ceil(log2(12))
}

TEST(Generator, AreaGrowsMonotonicallyWithN) {
  // The Fig. 6 series the shape claim covers never shrink as N grows.
  // The Synplify-like series is left out: its area-objective mapping dips
  // from N=9 to N=10.
  const std::vector<std::pair<const char*, GeneratorSpec>> series = {
      {"express one-hot", {}},
      {"express compact", {.encoding = synth::Encoding::kCompact}},
      {"dmr", {.check = CheckMode::kDuplicate}},
      {"tmr", {.check = CheckMode::kTmr}},
  };
  for (auto [name, spec] : series) {
    std::size_t prev = 0;
    for (int n = 2; n <= 10; ++n) {
      spec.n = n;
      const std::size_t clbs = generate_cached(spec).chars.clbs;
      EXPECT_GE(clbs, prev) << name << " n=" << n;
      prev = clbs;
    }
  }
}

TEST(Generator, FmaxDecaysWithN) {
  const GeneratedArbiter small = generate({.n = 2});
  const GeneratedArbiter big = generate({.n = 10});
  EXPECT_GT(small.chars.fmax_mhz, big.chars.fmax_mhz);
  // The paper's band: a 10-input arbiter still clocks above a ~6 MHz
  // design clock by a wide margin.
  EXPECT_GT(big.chars.fmax_mhz, 10.0);
}

TEST(Generator, BehavioralModeIsLargerThanStructural) {
  // The ablation the benches report: generic two-level synthesis of the
  // Fig. 5 case statement costs more area than the factored chain.
  const GeneratedArbiter s = generate({.n = 6});
  const GeneratedArbiter b =
      generate({.n = 6, .mode = GeneratorMode::kBehavioral});
  EXPECT_LT(s.chars.clbs, b.chars.clbs);
}

TEST(GenerateCached, MemoizesBySize) {
  const ArbiterCharacteristics& a = generate_cached({.n = 4}).chars;
  const ArbiterCharacteristics& b = generate_cached({.n = 4}).chars;
  EXPECT_EQ(&a, &b) << "same object must be returned from cache";
  EXPECT_EQ(generate_cached({.n = 6}).chars.n, 6);
}

TEST(GenerateCached, MatchesDirectGeneration) {
  const GeneratedArbiter direct = generate({.n = 5});
  EXPECT_EQ(generate_cached({.n = 5}).chars.clbs, direct.chars.clbs);
  EXPECT_DOUBLE_EQ(generate_cached({.n = 5}).chars.fmax_mhz,
                   direct.chars.fmax_mhz);
}

TEST(Generator, ToStringNames) {
  EXPECT_STREQ(to_string(GeneratorMode::kStructural), "structural");
  EXPECT_STREQ(to_string(GeneratorMode::kBehavioral), "behavioral");
}

TEST(SynthMemo, CachedResultMatchesFreshSynthesis) {
  // The memo must be transparent: every characterization field of a cached
  // arbiter equals a fresh (uncached) run of the same configuration.
  const GeneratorSpec spec{.n = 7, .encoding = synth::Encoding::kCompact};
  const GeneratedArbiter& cached = generate_cached(spec);
  const GeneratedArbiter fresh = generate(spec);
  EXPECT_EQ(cached.chars.n, fresh.chars.n);
  EXPECT_EQ(cached.chars.encoding, fresh.chars.encoding);
  EXPECT_EQ(cached.chars.clbs, fresh.chars.clbs);
  EXPECT_EQ(cached.chars.luts, fresh.chars.luts);
  EXPECT_EQ(cached.chars.ffs, fresh.chars.ffs);
  EXPECT_EQ(cached.chars.lut_depth, fresh.chars.lut_depth);
  EXPECT_DOUBLE_EQ(cached.chars.fmax_mhz, fresh.chars.fmax_mhz);
  EXPECT_EQ(cached.chars.aig_ands, fresh.chars.aig_ands);
  EXPECT_EQ(cached.synth.netlist.num_luts(), fresh.synth.netlist.num_luts());
  EXPECT_EQ(cached.synth.netlist.num_dffs(), fresh.synth.netlist.num_dffs());
}

TEST(SynthMemo, SameKeyReturnsSameObjectAndCountsHits) {
  const SynthMemoStats before = synth_memo_stats();
  const GeneratorSpec spec{.n = 9, .encoding = synth::Encoding::kGray};
  const GeneratedArbiter& a = generate_cached(spec);
  const GeneratedArbiter& b = generate_cached(spec);
  EXPECT_EQ(&a, &b) << "one synthesis per configuration per process";
  const SynthMemoStats after = synth_memo_stats();
  EXPECT_GE(after.hits, before.hits + 1);
  // Exactly-one-miss can't be asserted (another test may have primed the
  // key), but misses never move by more than the one candidate key here.
  EXPECT_LE(after.misses, before.misses + 1);
}

TEST(SynthMemo, SynplifyEncodingRequestsAliasToOneHot) {
  // Synplify-like flows force one-hot, so requesting compact or gray under
  // them must share the one-hot entry instead of synthesizing three times,
  // in either RTL mode.
  for (const GeneratorMode mode :
       {GeneratorMode::kStructural, GeneratorMode::kBehavioral}) {
    GeneratorSpec spec{.n = 5,
                       .flow = synth::FlowKind::kSynplifyLike,
                       .mode = mode};
    const GeneratedArbiter& oh = generate_cached(spec);
    spec.encoding = synth::Encoding::kCompact;
    const GeneratedArbiter& cp = generate_cached(spec);
    spec.encoding = synth::Encoding::kGray;
    const GeneratedArbiter& gr = generate_cached(spec);
    EXPECT_EQ(&oh, &cp) << to_string(mode);
    EXPECT_EQ(&oh, &gr) << to_string(mode);
  }
}

TEST(SynthMemo, BehavioralCacheKeyIncludesHardening) {
  const synth::SynthResult& plain = synthesize_round_robin_cached(
      3, synth::Encoding::kOneHot, /*harden=*/false);
  const synth::SynthResult& hard = synthesize_round_robin_cached(
      3, synth::Encoding::kOneHot, /*harden=*/true);
  EXPECT_NE(&plain, &hard);
  // Recovery logic costs area: the hardened netlist is strictly larger.
  EXPECT_GT(hard.netlist.num_luts(), plain.netlist.num_luts());
  EXPECT_EQ(&plain, &synthesize_round_robin_cached(
                        3, synth::Encoding::kOneHot, false));
}

TEST(SynthMemo, ConcurrentRequestsShareOneSynthesis) {
  // Hammer one cold key plus a few warm ones from 4 workers; every caller
  // must observe the same entry address (the mutex + once_flag discipline),
  // and the run must be clean under TSan.
  std::atomic<const GeneratedArbiter*> seen{nullptr};
  std::atomic<int> mismatches{0};
  parallel_for_each(
      16,
      [&](std::size_t i) {
        const GeneratedArbiter& g = generate_cached(
            {.n = 11,
             .mode = i % 2 == 0 ? GeneratorMode::kStructural
                                : GeneratorMode::kBehavioral});
        if (i % 2 == 0) {
          const GeneratedArbiter* expected = nullptr;
          if (!seen.compare_exchange_strong(expected, &g) && expected != &g)
            mismatches.fetch_add(1);
        }
      },
      /*jobs=*/4);
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------------ GeneratorSpec

TEST(GeneratorSpec, ChainEntryIsTheStructuralFsmNetlist) {
  // The chain alias rests on this: for every N the FSM generator covers,
  // the width-unlimited chain maps to the same netlist as the structural
  // one-hot FSM under the Express-like flow, net for net.
  for (int n = 2; n <= 20; ++n) {
    const synth::Fsm fsm = build_round_robin_fsm(n);
    const synth::StateCodes codes =
        synth::encode_states(fsm, synth::Encoding::kOneHot);
    synth::MapOptions map_options;
    map_options.objective = synth::MapObjective::kDepth;
    const synth::SynthResult fsm_path = synth::finish_machine_synthesis(
        build_round_robin_aig(n, codes), n, codes.num_bits,
        codes.code[fsm.reset_state()], map_options);
    const GeneratedArbiter& chain = generate_cached({.n = n});
    const netlist::Netlist& a = fsm_path.netlist;
    const netlist::Netlist& b = chain.synth.netlist;
    ASSERT_EQ(a.num_nets(), b.num_nets()) << "n=" << n;
    for (netlist::NetId net = 0; net < a.num_nets(); ++net)
      ASSERT_EQ(a.net_name(net), b.net_name(net)) << "n=" << n;
    ASSERT_EQ(a.num_luts(), b.num_luts()) << "n=" << n;
    for (std::size_t l = 0; l < a.num_luts(); ++l) {
      ASSERT_EQ(a.luts()[l].inputs, b.luts()[l].inputs) << "n=" << n;
      ASSERT_EQ(a.luts()[l].mask, b.luts()[l].mask) << "n=" << n;
      ASSERT_EQ(a.luts()[l].output, b.luts()[l].output) << "n=" << n;
    }
    ASSERT_EQ(a.num_dffs(), b.num_dffs()) << "n=" << n;
    for (std::size_t d = 0; d < a.num_dffs(); ++d) {
      ASSERT_EQ(a.dffs()[d].d, b.dffs()[d].d) << "n=" << n;
      ASSERT_EQ(a.dffs()[d].q, b.dffs()[d].q) << "n=" << n;
      ASSERT_EQ(a.dffs()[d].init, b.dffs()[d].init) << "n=" << n;
    }
    ASSERT_EQ(a.outputs(), b.outputs()) << "n=" << n;
    EXPECT_EQ(fsm_path.clb.clbs, chain.chars.clbs) << "n=" << n;
    EXPECT_EQ(fsm_path.aig_ands, chain.chars.aig_ands) << "n=" << n;
  }
}

TEST(GeneratorSpec, ChainEntryIsOneReferenceAcrossSpellings) {
  // The flow's, kind selection's and degrade's requests for a flat
  // one-hot arbiter are one memo entry, past the FSM generator's 20 ports
  // too.
  for (const int n : {1, 2, 8, 20, 21, 24}) {
    const GeneratedArbiter& chain = generate_cached({.n = n});
    // run_flow: {ports, instance kind, insertion arity}.
    EXPECT_EQ(&chain, &generate_cached({.n = n,
                                        .kind = ArbiterKind::kFlatFsm,
                                        .arity = 2}))
        << "n=" << n;
    // kAuto's flat candidate (select_arbiter_kind).
    EXPECT_EQ(&chain, &generate_scalable_cached(ArbiterKind::kFlatFsm, n))
        << "n=" << n;
    // degrade::arbiter_reconfig_cycles, unreplicated.
    EXPECT_EQ(&chain, &generate_cached({.n = n,
                                        .check = CheckMode::kNone,
                                        .encoding = synth::Encoding::kOneHot}))
        << "n=" << n;
    EXPECT_EQ(chain.chars.n, n);
    EXPECT_EQ(chain.chars.ffs, static_cast<std::size_t>(2 * n));
  }
}

TEST(GeneratorSpec, ArityCountsOnlyForTheTree) {
  for (const ArbiterKind kind : {ArbiterKind::kFlatFsm, ArbiterKind::kPrefix})
    EXPECT_EQ(&generate_cached({.n = 16, .kind = kind, .arity = 2}),
              &generate_cached({.n = 16, .kind = kind, .arity = 4}))
        << to_string(kind);
  EXPECT_NE(
      &generate_cached({.n = 16, .kind = ArbiterKind::kHierarchical,
                        .arity = 2}),
      &generate_cached({.n = 16, .kind = ArbiterKind::kHierarchical,
                        .arity = 4}));
}

TEST(GeneratorSpec, SpecsNoGeneratorBuildsThrow) {
  const std::vector<GeneratorSpec> invalid = {
      // Replicated tree and prefix arbiters.
      {.n = 8, .kind = ArbiterKind::kHierarchical,
       .check = CheckMode::kDuplicate},
      {.n = 8, .kind = ArbiterKind::kPrefix, .check = CheckMode::kTmr},
      // Replication under a Synplify-like flow or in behavioral mode.
      {.n = 4, .check = CheckMode::kDuplicate,
       .flow = synth::FlowKind::kSynplifyLike},
      {.n = 4, .check = CheckMode::kTmr,
       .mode = GeneratorMode::kBehavioral},
      // A scalable kind with a non-default flow, encoding or mode.
      {.n = 8, .kind = ArbiterKind::kHierarchical,
       .flow = synth::FlowKind::kSynplifyLike},
      {.n = 8, .kind = ArbiterKind::kPrefix,
       .encoding = synth::Encoding::kCompact},
      {.n = 8, .kind = ArbiterKind::kHierarchical,
       .mode = GeneratorMode::kBehavioral},
  };
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    EXPECT_THROW((void)generate(invalid[i]), CheckError) << "spec " << i;
    EXPECT_THROW((void)generate_cached(invalid[i]), CheckError)
        << "spec " << i;
  }
}

}  // namespace
}  // namespace rcarb::core
