// Graceful-degradation subsystem: exhaustive model checks of the
// self-checking arbiter variants (every reachable Fig. 5 state, every
// single-bit upset), behavioral-vs-netlist equivalence including the
// `error` net, the K-in-W strike classifier, the group-move remap
// planners, reconfiguration pricing, and end-to-end quarantine/remap
// campaigns in the system simulator.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/insertion.hpp"
#include "core/policy.hpp"
#include "core/rr_fsm.hpp"
#include "core/selfcheck.hpp"
#include "core/structural.hpp"
#include "degrade/degrade.hpp"
#include "fault/fault.hpp"
#include "netlist/simulator.hpp"
#include "rcsim/system_sim.hpp"
#include "support/rng.hpp"
#include "synth/encoding.hpp"
#include "synth/flow.hpp"

namespace rcarb {
namespace {

using core::CheckMode;
using core::RoundRobinArbiter;
using core::SelfCheckingArbiter;
using tg::Program;
using tg::TaskGraph;
using tg::TaskId;

// ===================================================== behavioral model check

struct ScParam {
  int n;
  CheckMode mode;
};

// gtest names each case after the bytes of its parameter. Print them the
// way its default printer does, but with zeros for the padding: left as
// it is, the padding holds whatever the stack held, so the names changed
// from build to build and from run to run.
void PrintTo(const ScParam& p, std::ostream* os) {
  unsigned char bytes[sizeof(ScParam)] = {};
  std::memcpy(bytes + offsetof(ScParam, n), &p.n, sizeof p.n);
  std::memcpy(bytes + offsetof(ScParam, mode), &p.mode, sizeof p.mode);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

/// One copy's register (bit i = Fi, bit n+i = Ci) out of the copy-major
/// packed read (the model-check sizes fit one word).
std::uint64_t copy_state(const SelfCheckingArbiter& a, int c) {
  const int bits = a.num_state_bits() / a.num_copies();
  std::vector<std::uint64_t> words;
  a.read_state(words);
  return (words[0] >> (c * bits)) & ((1ull << bits) - 1);
}

void replay(SelfCheckingArbiter& a, const std::vector<std::uint64_t>& w) {
  for (const std::uint64_t req : w) a.step(req);
}

/// Breadth-first walk of the fault-free state space: one witness request
/// sequence per reachable state (keyed by copy-0 register; the copies
/// agree fault-free).  Exhaustive — every request vector is tried from
/// every discovered state.
std::vector<std::vector<std::uint64_t>> reachable_witnesses(int n,
                                                            CheckMode mode) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> seen;
  std::deque<std::vector<std::uint64_t>> work;
  {
    SelfCheckingArbiter a(n, mode);
    seen.emplace(copy_state(a, 0), std::vector<std::uint64_t>{});
  }
  work.emplace_back();
  const std::uint64_t reqs = 1ull << n;
  while (!work.empty()) {
    const std::vector<std::uint64_t> w = work.front();
    work.pop_front();
    for (std::uint64_t req = 0; req < reqs; ++req) {
      SelfCheckingArbiter a(n, mode);
      replay(a, w);
      a.step(req);
      const std::uint64_t s = copy_state(a, 0);
      if (seen.count(s) != 0) continue;
      std::vector<std::uint64_t> w2 = w;
      w2.push_back(req);
      seen.emplace(s, w2);
      work.push_back(std::move(w2));
    }
  }
  std::vector<std::vector<std::uint64_t>> out;
  out.reserve(seen.size());
  for (const auto& [s, w] : seen) out.push_back(w);
  return out;
}

class SelfCheckModel : public ::testing::TestWithParam<ScParam> {};

TEST_P(SelfCheckModel, EveryReachableStateKeepsMutualExclusion) {
  const auto [n, mode] = GetParam();
  const auto states = reachable_witnesses(n, mode);
  // The Fig. 5 FSM has exactly 2N states (Fi and Ci); all are reachable.
  EXPECT_EQ(states.size(), 2 * static_cast<std::size_t>(n));
  for (const auto& w : states) {
    for (std::uint64_t req = 0; req < (1ull << n); ++req) {
      SelfCheckingArbiter a(n, mode);
      replay(a, w);
      for (int c = 0; c < a.num_copies(); ++c)
        ASSERT_EQ(copy_state(a, c), copy_state(a, 0))
            << "fault-free copies diverged";
      const int g = a.step(req);
      const std::uint64_t mask = a.last_grant_words()[0];
      ASSERT_FALSE(a.error()) << "comparator fired without a fault";
      ASSERT_LE(std::popcount(mask), 1) << "mutual exclusion violated";
      ASSERT_EQ(mask & ~req, 0u) << "granted a non-requester";
      ASSERT_EQ(g >= 0 ? (1ull << g) : 0ull, mask);
    }
  }
}

TEST_P(SelfCheckModel, MatchesThePlainArbiterFaultFree) {
  const auto [n, mode] = GetParam();
  SelfCheckingArbiter sc(n, mode);
  RoundRobinArbiter plain(n);
  Rng rng(1234 + static_cast<std::uint64_t>(n));
  for (int cyc = 0; cyc < 1000; ++cyc) {
    const std::uint64_t req = rng.next_below(1ull << n);
    EXPECT_EQ(sc.step(req), plain.step(req)) << "cycle " << cyc;
    EXPECT_EQ(sc.last_grant_words()[0], plain.last_grant_words()[0]);
    EXPECT_FALSE(sc.error());
  }
  EXPECT_EQ(sc.error_cycles(), 0u);
  EXPECT_EQ(sc.resyncs(), 0u);
}

TEST_P(SelfCheckModel, StarvationBoundedByNMinusOneFromEveryState) {
  const auto [n, mode] = GetParam();
  for (const auto& w : reachable_witnesses(n, mode)) {
    SelfCheckingArbiter a(n, mode);
    replay(a, w);
    // All ports contend; each grantee finishes a one-cycle burst and stops
    // requesting.  Before any port could be served twice, every other port
    // must be served once (the N-1 bound) — and the whole rotation fits in
    // a small constant number of cycles per burst.
    std::uint64_t req = (1ull << n) - 1;
    std::vector<char> served(static_cast<std::size_t>(n), 0);
    int steps = 0;
    while (req != 0) {
      ASSERT_LT(steps++, 4 * n + 4) << "starvation bound blown";
      const int g = a.step(req);
      if (g < 0) continue;
      ASSERT_FALSE(served[static_cast<std::size_t>(g)])
          << "port " << g << " served twice before others were served once";
      served[static_cast<std::size_t>(g)] = 1;
      req &= ~(1ull << g);
    }
  }
}

TEST_P(SelfCheckModel, EverySingleBitUpsetRecoversOrRaisesErrorInOneClock) {
  const auto [n, mode] = GetParam();
  const int bits = 2 * n;
  const std::uint64_t all = (1ull << n) - 1;
  const int copies = mode == CheckMode::kDuplicate ? 2 : 3;
  for (const auto& w : reachable_witnesses(n, mode)) {
    for (int c = 0; c < copies; ++c) {
      for (int b = 0; b < bits; ++b) {
        for (const std::uint64_t req : {std::uint64_t{0}, all}) {
          SelfCheckingArbiter a(n, mode);
          SelfCheckingArbiter ref(n, mode);  // uncorrupted twin
          replay(a, w);
          replay(ref, w);
          a.flip_state_bit(c * bits + b);
          const int g = a.step(req);
          const int gr = ref.step(req);
          ASSERT_TRUE(a.error())
              << "upset copy " << c << " bit " << b
              << " must raise error within 1 clock";
          if (mode == CheckMode::kDuplicate) {
            // Fail-safe: a suspect DMR arbiter grants nobody.
            ASSERT_EQ(g, -1);
            ASSERT_EQ(a.last_grant_words()[0], 0u);
          } else {
            // TMR outvotes the minority with no grant gap.
            ASSERT_EQ(g, gr);
            ASSERT_EQ(a.last_grant_words()[0], ref.last_grant_words()[0]);
            ASSERT_EQ(copy_state(a, c), copy_state(ref, 0))
                << "minority copy not rewritten at the clock edge";
          }
          // DMR always reloads on error; a TMR minority may converge via
          // the transition function itself (e.g. a two-hot state whose
          // extra bit dies at the edge), so only the detection count is
          // guaranteed there.
          if (mode == CheckMode::kDuplicate) {
            ASSERT_GE(a.resyncs(), 1u);
          }
          ASSERT_GE(a.error_cycles(), 1u);
          // One clock later the arbiter is clean again.
          a.step(all);
          ASSERT_FALSE(a.error()) << "recovery took more than 1 clock";
          for (int c2 = 0; c2 < copies; ++c2)
            ASSERT_EQ(copy_state(a, c2), copy_state(a, 0));
        }
      }
    }
  }
}

TEST_P(SelfCheckModel, LatchUpPinsTheErrorOutputUntilCleared) {
  const auto [n, mode] = GetParam();
  const std::uint64_t all = (1ull << n) - 1;
  SelfCheckingArbiter a(n, mode);
  a.step(all);
  a.step(0);
  a.freeze();  // latches copy 0
  EXPECT_TRUE(a.frozen());
  // Walk the healthy copies away from the frozen one, then observe a
  // persistent comparator: neither resync nor reset clears a latch-up.
  int error_steps = 0;
  for (int cyc = 0; cyc < 20; ++cyc) {
    a.step(cyc % 2 == 0 ? all : all >> 1);
    if (a.error()) ++error_steps;
  }
  // n >= 2 pins the comparator almost every cycle; n = 1's two-state space
  // revisits the frozen state every other cycle, so the floor is half the
  // steps — still recurring evidence, which is all the K-in-W classifier
  // needs.
  EXPECT_GE(error_steps, 10) << "a latched copy must keep striking";
  a.reset();
  a.step(all);
  a.step(0);
  EXPECT_TRUE(a.error()) << "reset must not clear a latch-up";
  a.thaw();  // reconfiguration of the arbiter's region
  a.reset();
  a.step(all);
  EXPECT_FALSE(a.error());
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, SelfCheckModel,
    ::testing::Values(ScParam{1, CheckMode::kDuplicate},
                      ScParam{2, CheckMode::kDuplicate},
                      ScParam{3, CheckMode::kDuplicate},
                      ScParam{4, CheckMode::kDuplicate},
                      ScParam{5, CheckMode::kDuplicate},
                      ScParam{6, CheckMode::kDuplicate},
                      ScParam{1, CheckMode::kTmr}, ScParam{2, CheckMode::kTmr},
                      ScParam{3, CheckMode::kTmr}, ScParam{4, CheckMode::kTmr},
                      ScParam{5, CheckMode::kTmr},
                      ScParam{6, CheckMode::kTmr}));

// ================================================= netlist equivalence

class SelfCheckNetlist : public ::testing::TestWithParam<ScParam> {};

TEST_P(SelfCheckNetlist, NetlistMatchesBehavioralModelUnderUpsets) {
  const auto [n, mode] = GetParam();
  const synth::Fsm fsm = core::build_round_robin_fsm(n);
  const synth::StateCodes codes =
      synth::encode_states(fsm, synth::Encoding::kOneHot);
  const std::uint64_t code = codes.code[fsm.reset_state()];
  std::vector<bool> reset(static_cast<std::size_t>(codes.num_bits));
  for (std::size_t b = 0; b < reset.size(); ++b)
    reset[b] = ((code >> b) & 1u) != 0;
  const aig::Aig comb = core::build_self_checking_aig(
      core::build_round_robin_aig(n, codes), n, reset, mode);
  const int copies = mode == CheckMode::kDuplicate ? 2 : 3;
  std::vector<bool> bank;
  for (int c = 0; c < copies; ++c)
    bank.insert(bank.end(), reset.begin(), reset.end());
  const synth::SynthResult syn = synth::finish_machine_synthesis(
      comb, n, static_cast<int>(bank.size()), bank, {});

  netlist::Simulator sim(syn.netlist);
  SelfCheckingArbiter beh(n, mode);
  // Resolve port names once — the cycle loop must not hash strings.
  std::vector<netlist::NetId> req_net, grant_net;
  for (int i = 0; i < n; ++i) {
    req_net.push_back(*syn.netlist.find_net("req" + std::to_string(i)));
    grant_net.push_back(
        *syn.netlist.find_net("grant" + std::to_string(i)));
  }
  const netlist::NetId error_net = *syn.netlist.find_net("error");
  std::vector<std::vector<netlist::NetId>> state_net(
      static_cast<std::size_t>(copies));
  for (int c = 0; c < copies; ++c)
    for (int b = 0; b < codes.num_bits; ++b) {
      std::string name;
      if (c != 0) name.append("c").append(std::to_string(c)).append("_");
      name.append("state").append(std::to_string(b));
      state_net[static_cast<std::size_t>(c)].push_back(
          *syn.netlist.find_net(name));
    }

  Rng rng(9000 + static_cast<std::uint64_t>(n) * 8 +
          static_cast<std::uint64_t>(mode));
  for (int cyc = 0; cyc < 1200; ++cyc) {
    if (cyc % 37 == 17) {
      // Poke one register bit in one copy: the behavioral twin takes the
      // same SEU, and both must agree on the `error` net from here on.
      const int c = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(copies)));
      const int b = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(codes.num_bits)));
      beh.flip_state_bit(c * codes.num_bits + b);
      const netlist::NetId net =
          state_net[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)];
      sim.poke_register(net, !sim.get(net));
    }
    const std::uint64_t req = rng.next_below(1ull << n);
    for (int i = 0; i < n; ++i)
      sim.set_input(req_net[static_cast<std::size_t>(i)], ((req >> i) & 1) != 0);
    sim.settle();
    beh.step(req);
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(sim.get(grant_net[static_cast<std::size_t>(i)]),
                ((beh.last_grant_words()[0] >> i) & 1) != 0)
          << "grant" << i << " diverged at cycle " << cyc;
    ASSERT_EQ(sim.get(error_net), beh.error())
        << "`error` net diverged at cycle " << cyc;
    sim.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelfCheckNetlist,
    ::testing::Values(ScParam{2, CheckMode::kDuplicate},
                      ScParam{3, CheckMode::kDuplicate},
                      ScParam{4, CheckMode::kDuplicate},
                      ScParam{2, CheckMode::kTmr}, ScParam{3, CheckMode::kTmr},
                      ScParam{4, CheckMode::kTmr}));

TEST(SelfCheckPrechar, RedundancyIsPricedAlongsideThePlainVariant) {
  const auto& plain = core::generate_cached({.n = 4});
  const auto& dmr =
      core::generate_cached({.n = 4, .check = CheckMode::kDuplicate});
  const auto& tmr = core::generate_cached({.n = 4, .check = CheckMode::kTmr});
  EXPECT_GT(dmr.chars.clbs, plain.chars.clbs);
  EXPECT_GT(tmr.chars.clbs, dmr.chars.clbs);
  EXPECT_EQ(dmr.chars.ffs, 2u * 8u) << "two one-hot copies of 2n bits";
  EXPECT_EQ(tmr.chars.ffs, 3u * 8u);
  EXPECT_GT(dmr.chars.fmax_mhz, 0.0);
  EXPECT_TRUE(dmr.synth.netlist.find_net("error").has_value());
  EXPECT_TRUE(tmr.synth.netlist.find_net("error").has_value());
}

// ======================================================== strike classifier

TEST(QuarantineRecord, RepairCyclesReadsZeroForOpenRecords) {
  // A record queried mid-quarantine has no restored_cycle yet; the
  // subtraction used to wrap to a huge u64 and poison MTTR averages.
  degrade::QuarantineRecord rec;
  rec.classified_cycle = 100;
  EXPECT_EQ(rec.repair_cycles(), 0u) << "open record: restored unset";
  rec.restored_cycle = 100;
  EXPECT_EQ(rec.repair_cycles(), 0u) << "zero-length repair";
  rec.restored_cycle = 150;
  EXPECT_EQ(rec.repair_cycles(), 50u);
}

TEST(ResourceSupervisor, LifecycleDrainsPricesAndRestores) {
  degrade::DegradeOptions opt;
  opt.enabled = true;
  degrade::ResourceSupervisor sup(2, opt);
  using T = degrade::ResourceSupervisor::Transition;

  // K-1 strikes classify nothing; the K-th quarantines.
  EXPECT_EQ(sup.strike(0, 10, degrade::StrikeSource::kSelfCheckError),
            T::kNone);
  EXPECT_EQ(sup.strike(0, 11, degrade::StrikeSource::kSelfCheckError),
            T::kNone);
  EXPECT_EQ(sup.strike(0, 12, degrade::StrikeSource::kSelfCheckError),
            T::kQuarantined);
  EXPECT_FALSE(sup.serving(0));
  EXPECT_TRUE(sup.serving(1));
  EXPECT_EQ(static_cast<int>(sup.serving(0)) + static_cast<int>(sup.serving(1)),
            1);
  // Further evidence against the quarantined resource never re-classifies.
  EXPECT_EQ(sup.strike(0, 13, degrade::StrikeSource::kSelfCheckError),
            T::kNone);

  // Not drained: the supervisor waits (until the drain_timeout deadline).
  EXPECT_EQ(sup.advance(0, 14, /*drained=*/false, 4, CheckMode::kNone),
            T::kNone);
  EXPECT_EQ(sup.advance(0, 15, /*drained=*/true, 4, CheckMode::kNone),
            T::kDrained);
  // The reconfiguration stall is priced, not instant.
  std::uint64_t cycle = 16;
  while (sup.advance(0, cycle, true, 4, CheckMode::kNone) != T::kRestored) {
    ++cycle;
    ASSERT_LT(cycle, 10'000u) << "restore never happened";
  }
  EXPECT_TRUE(sup.serving(0));
  ASSERT_EQ(sup.records().size(), 1u);
  const auto& rec = sup.records().front();
  EXPECT_FALSE(rec.drain_aborted);
  EXPECT_GT(rec.repair_cycles(), 0u);
}

/// K strikes from `source` at cycles first..first+K-1: quarantines `r`.
void quarantine(degrade::ResourceSupervisor& sup, int r, std::uint64_t first,
                degrade::StrikeSource source,
                const degrade::DegradeOptions& opt) {
  for (int k = 0; k < opt.strikes; ++k)
    (void)sup.strike(r, first + static_cast<std::uint64_t>(k), source);
  ASSERT_EQ(sup.state(r), degrade::QuarantineState::kDraining);
}

TEST(ResourceSupervisor, RetireWithAPlanDecidesTheRepairWhenTheDrainEnds) {
  // The retire-with-remap-plan hook: the caller's plan, not the
  // classifying strike, decides the repair — rcsim regenerates a latched
  // arbiter in place (target = the resource itself) and group-moves a dead
  // bank's load; both end kRemapped, never back in service.
  degrade::DegradeOptions opt;
  opt.enabled = true;
  using T = degrade::ResourceSupervisor::Transition;
  struct Case {
    const char* name;
    degrade::StrikeSource source;
    int target;
  };
  for (const Case& c :
       {Case{"in place", degrade::StrikeSource::kSelfCheckError, 0},
        Case{"group move", degrade::StrikeSource::kBankFailure, 2}}) {
    SCOPED_TRACE(c.name);
    degrade::ResourceSupervisor sup(3, opt);
    quarantine(sup, 0, 10, c.source, opt);
    const degrade::RetirePlan plan{true, c.target};
    EXPECT_EQ(sup.advance(0, 20, true, 4, CheckMode::kNone, &plan),
              T::kDrained);
    EXPECT_EQ(sup.state(0), degrade::QuarantineState::kReconfiguring);
    EXPECT_EQ(sup.record(0).drained_cycle, 20u);
    // The stall is priced like advance()'s drain edge, for the caller's
    // merged contention set.
    const std::uint64_t stall =
        degrade::arbiter_reconfig_cycles(opt, 4, CheckMode::kNone);
    EXPECT_EQ(sup.advance(0, 20 + stall - 1, true, 4, CheckMode::kNone),
              T::kNone);
    EXPECT_EQ(sup.advance(0, 20 + stall, true, 4, CheckMode::kNone),
              T::kRetired);
    EXPECT_EQ(sup.state(0), degrade::QuarantineState::kRemapped);
    EXPECT_FALSE(sup.serving(0));
    const degrade::QuarantineRecord& rec = sup.record(0);
    EXPECT_EQ(rec.remap_target, c.target);
    EXPECT_EQ(rec.restored_cycle, 20 + stall);
    EXPECT_FALSE(rec.drain_aborted);
  }
}

TEST(ResourceSupervisor, InfeasiblePlanExhaustsCapacityBeforeTheStall) {
  degrade::DegradeOptions opt;
  opt.enabled = true;
  using T = degrade::ResourceSupervisor::Transition;
  degrade::ResourceSupervisor sup(2, opt);
  quarantine(sup, 1, 5, degrade::StrikeSource::kChannelFailure, opt);
  const degrade::RetirePlan infeasible{false, 1};
  EXPECT_EQ(sup.advance(1, 9, true, 4, CheckMode::kNone, &infeasible),
            T::kRetired);
  EXPECT_EQ(sup.state(1), degrade::QuarantineState::kCapacityExhausted)
      << "decided when the drain ends, not after a reconfiguration stall";
  EXPECT_EQ(sup.advance(1, 10'000, true, 4, CheckMode::kNone), T::kNone);
  const degrade::QuarantineRecord& rec = sup.record(1);
  EXPECT_EQ(rec.state, degrade::QuarantineState::kCapacityExhausted);
  EXPECT_EQ(rec.drained_cycle, 9u);
  EXPECT_EQ(rec.restored_cycle, 0u);
  EXPECT_EQ(rec.remap_target, -1);
  EXPECT_EQ(rec.repair_cycles(), 0u);
  EXPECT_TRUE(sup.serving(0)) << "the other resource is untouched";
}

TEST(ResourceSupervisor, OverdueDrainEndsWhenTheCallerReportsItDrained) {
  // rcsim's drain: past drain_timeout the supervisor reports kDrainOverdue
  // on every call while the caller force-releases the holders; the drain
  // ends (and drained_cycle is stamped) only once they are gone.  The
  // service aborts its leftovers on the first kDrainOverdue and reports
  // drained in the same cycle.
  degrade::DegradeOptions opt;
  opt.enabled = true;
  opt.drain_timeout = 4;
  using T = degrade::ResourceSupervisor::Transition;
  for (const bool plan : {false, true}) {
    SCOPED_TRACE(plan ? "with a retire plan" : "without a plan");
    degrade::ResourceSupervisor sup(2, opt);
    quarantine(sup, 0, 10, degrade::StrikeSource::kWatchdogTrip, opt);
    const std::uint64_t classified = 12;  // the K-th strike
    EXPECT_EQ(sup.advance(0, classified + 3, false, 4, CheckMode::kNone),
              T::kNone);
    EXPECT_EQ(sup.advance(0, classified + 4, false, 4, CheckMode::kNone),
              T::kDrainOverdue);
    EXPECT_EQ(sup.advance(0, classified + 5, false, 4, CheckMode::kNone),
              T::kDrainOverdue)
        << "still in flight: still overdue, and still draining";
    EXPECT_EQ(sup.state(0), degrade::QuarantineState::kDraining);
    const degrade::RetirePlan onto_1{true, 1};
    const T done = sup.advance(0, classified + 6, true, 4, CheckMode::kNone,
                               plan ? &onto_1 : nullptr);
    EXPECT_EQ(done, T::kDrained);
    EXPECT_TRUE(sup.record(0).drain_aborted);
    EXPECT_EQ(sup.record(0).drained_cycle, classified + 6);
  }
}

TEST(StrikeTracker, KthStrikeWithinTheWindowClassifies) {
  degrade::StrikeTracker t(4, /*strikes=*/3, /*window=*/10);
  EXPECT_FALSE(t.strike(2, 5, degrade::StrikeSource::kBankFailure));
  EXPECT_FALSE(t.strike(2, 6, degrade::StrikeSource::kBankFailure));
  EXPECT_TRUE(t.strike(2, 7, degrade::StrikeSource::kBankFailure));
  EXPECT_EQ(t.total(), 3u);
  EXPECT_EQ(t.count(degrade::StrikeSource::kBankFailure), 3u);
}

TEST(StrikeTracker, IsolatedTransientsNeverAccumulate) {
  degrade::StrikeTracker t(1, /*strikes=*/2, /*window=*/10);
  // One strike every 11 cycles: each window holds only the newest one.
  for (std::uint64_t cyc = 0; cyc < 110; cyc += 11)
    EXPECT_FALSE(t.strike(0, cyc, degrade::StrikeSource::kWatchdogTrip))
        << "cycle " << cyc;
}

TEST(StrikeTracker, WindowBoundaryIsExclusiveOfTheOldestEdge) {
  // Window [cycle - W + 1, cycle]: a strike exactly W cycles before the
  // newest has expired.
  degrade::StrikeTracker t(1, /*strikes=*/2, /*window=*/10);
  EXPECT_FALSE(t.strike(0, 0, degrade::StrikeSource::kChannelFailure));
  EXPECT_FALSE(t.strike(0, 10, degrade::StrikeSource::kChannelFailure));
  EXPECT_TRUE(t.strike(0, 19, degrade::StrikeSource::kChannelFailure));
}

TEST(StrikeTracker, ResourcesAreIndependentAndClearable) {
  degrade::StrikeTracker t(3, /*strikes=*/2, /*window=*/100);
  EXPECT_FALSE(t.strike(0, 1, degrade::StrikeSource::kSelfCheckError));
  EXPECT_FALSE(t.strike(1, 2, degrade::StrikeSource::kSelfCheckError));
  t.clear(0);
  EXPECT_FALSE(t.strike(0, 3, degrade::StrikeSource::kSelfCheckError))
      << "cleared history must not count";
  EXPECT_TRUE(t.strike(1, 4, degrade::StrikeSource::kSelfCheckError));
}

// ========================================================== remap planners

TEST(BankRemap, GroupMovesToTheTightestFittingSurvivor) {
  const std::vector<std::size_t> seg_bytes = {100, 50, 30};
  const std::vector<int> bank_of_segment = {0, 0, 1};
  const std::vector<std::size_t> free_bytes = {0, 200, 160};
  const auto plan = degrade::plan_bank_remap(seg_bytes, bank_of_segment,
                                             free_bytes, /*dead=*/0,
                                             {false, false, false});
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.target_bank, 2) << "best-fit: 160 is the tightest >= 150";
  EXPECT_EQ(plan.moved_segments, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.moved_bytes, 150u);
}

TEST(BankRemap, SkipsFailedSurvivorsAndReportsExhaustion) {
  const std::vector<std::size_t> seg_bytes = {100};
  const std::vector<int> bank_of_segment = {0};
  const auto skip = degrade::plan_bank_remap(seg_bytes, bank_of_segment,
                                             {0, 120, 110}, 0,
                                             {false, false, true});
  EXPECT_TRUE(skip.feasible);
  EXPECT_EQ(skip.target_bank, 1) << "failed bank 2 must be skipped";

  const auto none = degrade::plan_bank_remap(seg_bytes, bank_of_segment,
                                             {0, 50, 110}, 0,
                                             {false, false, true});
  EXPECT_FALSE(none.feasible) << "no survivor can hold 100 bytes";
  EXPECT_EQ(none.target_bank, -1);
}

TEST(BankRemap, EmptyDeadBankRetiresForFree) {
  const auto plan = degrade::plan_bank_remap({40}, {1}, {10, 0}, 0, {});
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.moved_segments.empty());
  EXPECT_EQ(plan.target_bank, -1);
}

TEST(ChannelRemap, PicksTheLeastLoadedSurvivor) {
  const std::vector<int> channel_to_phys = {0, 0, 1, 2, 2};
  const auto plan = degrade::plan_channel_remap(channel_to_phys, 3, 0,
                                                {false, false, false});
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.target_phys, 1) << "1 logical channel < 2 on phys 2";
  EXPECT_EQ(plan.moved_channels, (std::vector<int>{0, 1}));

  const auto skip = degrade::plan_channel_remap(channel_to_phys, 3, 0,
                                                {false, true, false});
  EXPECT_TRUE(skip.feasible);
  EXPECT_EQ(skip.target_phys, 2);

  const auto none = degrade::plan_channel_remap(channel_to_phys, 3, 0,
                                                {false, true, true});
  EXPECT_FALSE(none.feasible);
}

TEST(ReconfigPricing, ScalesWithTheMemoizedClbCount) {
  degrade::DegradeOptions opt;
  opt.reconfig_base_cycles = 8;
  opt.reconfig_cycles_per_clb = 4;
  EXPECT_EQ(degrade::arbiter_reconfig_cycles(opt, 0, CheckMode::kNone), 8u)
      << "n < 2 needs no arbiter: base cost only";
  EXPECT_EQ(degrade::arbiter_reconfig_cycles(opt, 1, CheckMode::kNone), 8u);
  const auto& plain = core::generate_cached({.n = 4});
  EXPECT_EQ(degrade::arbiter_reconfig_cycles(opt, 4, CheckMode::kNone),
            8u + 4u * plain.chars.clbs);
  EXPECT_GT(degrade::arbiter_reconfig_cycles(opt, 4, CheckMode::kTmr),
            degrade::arbiter_reconfig_cycles(opt, 4, CheckMode::kNone))
      << "redundant copies cost reconfiguration time too";
  EXPECT_EQ(degrade::arbiter_reconfig_cycles(opt, 25, CheckMode::kNone),
            degrade::arbiter_reconfig_cycles(opt, 20, CheckMode::kNone))
      << "contention sets beyond 20 are priced at the widest arbiter";
}

// ================================================= end-to-end system tests

/// Two banks, four tasks (two per bank), every store checked against a
/// fault-free reference run.  Each task writes `words` distinct values
/// into its half of its segment with compute gaps so bursts straddle the
/// fault cycle.
struct TwoBankRig {
  TaskGraph graph{"degrade-banks"};
  core::Binding binding;
  std::vector<TaskId> tasks;

  explicit TwoBankRig(int words = 5) {
    graph.add_segment("s0", 64, 2 * static_cast<std::size_t>(words));
    graph.add_segment("s1", 64, 2 * static_cast<std::size_t>(words));
    for (int t = 0; t < 4; ++t) {
      const int seg = t / 2;       // tasks 0,1 -> s0; 2,3 -> s1
      const int half = t % 2;      // own half of the segment
      Program p;
      p.load_imm(0, 0);
      for (int k = 0; k < words; ++k) {
        p.load_imm(1, 100 * (t + 1) + k)
            .store(seg, 0, 1, half * words + k)
            .compute(2);
      }
      p.halt();
      tasks.push_back(
          graph.add_task(std::string("t").append(std::to_string(t)), p, 1));
    }
    binding.task_to_pe = {0, 1, 2, 3};
    binding.segment_to_bank = {0, 1};
    binding.channel_to_phys = {};
    binding.num_banks = 2;
    binding.bank_names = {"B0", "B1"};
  }
};

rcsim::SimOptions degrade_options() {
  rcsim::SimOptions so;
  so.strict = false;
  so.no_progress_window = 400;
  so.degrade.enabled = true;
  so.degrade.strikes = 3;
  so.degrade.strike_window = 64;
  so.degrade.drain_timeout = 16;
  so.degrade.reconfig_base_cycles = 4;
  so.degrade.reconfig_cycles_per_clb = 0;  // keep test runs short
  return so;
}

TEST(DegradeEndToEnd, BankFailureQuarantinesRemapsAndPreservesData) {
  TwoBankRig rig;
  const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});

  // Fault-free reference.
  rcsim::SystemSimulator ref(ins.graph, rig.binding, ins.plan,
                             degrade_options());
  const rcsim::SimResult ref_r = ref.run(rig.tasks);
  ASSERT_FALSE(ref_r.deadlocked);
  ASSERT_EQ(ref_r.quarantined, 0u);

  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kBankFailure;
  dead.cycle = 10;
  dead.bank = 1;
  rcsim::SimOptions so = degrade_options();
  so.faults = {dead};
  rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
  const rcsim::SimResult r = sim.run(rig.tasks);

  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.count(rcsim::DiagKind::kDeadlock), 0u);
  EXPECT_EQ(r.count(rcsim::DiagKind::kNoProgress), 0u);
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.remaps, 1u);
  ASSERT_EQ(r.quarantine_events.size(), 1u);
  const degrade::QuarantineRecord& rec = r.quarantine_events[0];
  EXPECT_EQ(rec.resource, 1) << "bank 1's unified resource id";
  EXPECT_EQ(rec.state, degrade::QuarantineState::kRemapped);
  EXPECT_EQ(rec.remap_target, 0) << "the only survivor is bank 0";
  // Classification within K strikes of W cycles each of the fault.
  EXPECT_LE(rec.classified_cycle,
            dead.cycle + static_cast<std::uint64_t>(so.degrade.strikes) *
                             so.degrade.strike_window);
  EXPECT_GE(rec.restored_cycle, rec.drained_cycle);
  EXPECT_GT(rec.repair_cycles(), 0u);
  // Every transfer completed with correct data despite the dead bank.
  for (const TaskId t : rig.tasks) {
    EXPECT_TRUE(r.tasks[static_cast<std::size_t>(t)].ran);
    EXPECT_GT(r.tasks[static_cast<std::size_t>(t)].finish_cycle, 0u);
  }
  EXPECT_EQ(sim.segment_data(0), ref.segment_data(0));
  EXPECT_EQ(sim.segment_data(1), ref.segment_data(1));
  EXPECT_EQ(r.bank_conflicts, 0u);
  EXPECT_EQ(r.protocol_violations, 0u);
}

TEST(DegradeEndToEnd, ReconfigurationPreservesTheConfiguredArbiterKind) {
  // Regression: the post-quarantine rebuild used to hand-roll a flat
  // round-robin arbiter, silently dropping the configured structure on
  // exactly the reconfiguration path.  Both construction sites now build
  // through core::make_system_arbiter from the plan's kind, so the
  // regenerated arbiter keeps it — and the run still preserves data.
  TwoBankRig rig;
  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kBankFailure;
  dead.cycle = 10;
  dead.bank = 1;
  const auto flat = core::insert_arbitration(rig.graph, rig.binding, {});
  rcsim::SystemSimulator ref(flat.graph, rig.binding, flat.plan,
                             degrade_options());
  (void)ref.run(rig.tasks);
  for (const core::ArbiterKind kind :
       {core::ArbiterKind::kHierarchical, core::ArbiterKind::kPrefix}) {
    const auto ins = core::insert_arbitration(rig.graph, rig.binding,
                                              {.arbiter_kind = kind});
    rcsim::SimOptions so = degrade_options();
    so.faults = {dead};
    rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
    const rcsim::SimResult r = sim.run(rig.tasks);
    const char* label = core::to_string(kind);
    EXPECT_FALSE(r.deadlocked) << label;
    EXPECT_EQ(r.remaps, 1u) << label;
    ASSERT_GT(r.arbiters.size(), ins.plan.arbiters.size())
        << label << ": the remap must regenerate an arbiter over the survivor";
    for (const rcsim::ArbiterStats& st : r.arbiters)
      EXPECT_EQ(st.kind, kind) << label << " " << st.resource_name;
    // Data correctness is unchanged by the structure.
    EXPECT_EQ(sim.segment_data(0), ref.segment_data(0)) << label;
    EXPECT_EQ(sim.segment_data(1), ref.segment_data(1)) << label;
  }
}

TEST(DegradeEndToEnd, AvailabilityBeatsTheStallOnlyBaseline) {
  TwoBankRig rig;
  const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});
  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kBankFailure;
  dead.cycle = 10;
  dead.bank = 1;

  rcsim::SimOptions with = degrade_options();
  with.faults = {dead};
  rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, with);
  const rcsim::SimResult r = sim.run(rig.tasks);

  rcsim::SimOptions without = degrade_options();
  without.degrade.enabled = false;
  without.faults = {dead};
  rcsim::SystemSimulator base_sim(ins.graph, rig.binding, ins.plan, without);
  const rcsim::SimResult base = base_sim.run(rig.tasks);

  EXPECT_TRUE(base.deadlocked)
      << "stall-only: the fault wedges the run (that is the baseline)";
  EXPECT_FALSE(r.deadlocked);
  const double avail =
      static_cast<double>(r.serving_cycles) / static_cast<double>(r.cycles);
  const double base_avail = static_cast<double>(base.serving_cycles) /
                            static_cast<double>(base.cycles);
  EXPECT_GT(avail, base_avail);
  EXPECT_LT(r.serving_cycles, r.cycles)
      << "the quarantine window itself is degraded time";
}

/// The SimResult fields a repeated run must reproduce, as text.
std::string describe(const rcsim::SimResult& r) {
  std::string s = "cycles=" + std::to_string(r.cycles) +
                  " serving=" + std::to_string(r.serving_cycles) +
                  " strikes=" + std::to_string(r.strikes) +
                  " quarantined=" + std::to_string(r.quarantined) +
                  " remaps=" + std::to_string(r.remaps) +
                  " drain_aborts=" + std::to_string(r.drain_aborts) +
                  " bank_conflicts=" + std::to_string(r.bank_conflicts) +
                  " violations=" + std::to_string(r.protocol_violations) +
                  " deadlocked=" + std::to_string(r.deadlocked) + "\n";
  for (const rcsim::TaskStats& t : r.tasks)
    s += "task " + std::to_string(t.start_cycle) + ".." +
         std::to_string(t.finish_cycle) + " ops=" +
         std::to_string(t.ops_retired) + " wait=" +
         std::to_string(t.grant_wait_cycles) + "\n";
  for (const rcsim::ArbiterStats& a : r.arbiters)
    s += "arbiter " + a.resource_name + " ports=" + std::to_string(a.ports) +
         " grants=" + std::to_string(a.grants) + "\n";
  for (const degrade::QuarantineRecord& q : r.quarantine_events)
    s += "quarantine " + std::to_string(q.resource) + " " +
         degrade::to_string(q.state) + " " +
         std::to_string(q.classified_cycle) + "/" +
         std::to_string(q.drained_cycle) + "/" +
         std::to_string(q.restored_cycle) + " -> " +
         std::to_string(q.remap_target) + "\n";
  for (const rcsim::SimDiagnostic& d : r.diagnostics) s += d.format() + "\n";
  return s;
}

TEST(DegradeEndToEnd, SecondRunAfterAnOnlineRemapStartsFromTheBuiltSystem) {
  // Regression: run() used to write the remap into the simulator's own
  // binding and plan while the resource forwarding and the tasks' retrofit
  // state reset with every run, so a second run on one simulator replayed
  // the fault against a half-remapped system (protocol violations and bank
  // conflicts).  Repairs are per run, like the fault schedule.
  TwoBankRig rig;
  const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});
  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kBankFailure;
  dead.cycle = 10;
  dead.bank = 1;
  rcsim::SimOptions so = degrade_options();
  so.faults = {dead};
  rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
  const rcsim::SimResult first = sim.run(rig.tasks);
  const rcsim::SimResult second = sim.run(rig.tasks);
  EXPECT_EQ(first.remaps, 1u);
  EXPECT_EQ(describe(second), describe(first));
  for (const rcsim::SimResult* r : {&first, &second}) {
    EXPECT_EQ(r->protocol_violations, 0u);
    EXPECT_EQ(r->bank_conflicts, 0u);
    EXPECT_EQ(r->count(rcsim::DiagKind::kProtocolViolation), 0u);
  }
  // A strict simulator (the default) runs it twice without throwing.
  rcsim::SimOptions strict = so;
  strict.strict = true;
  rcsim::SystemSimulator strict_sim(ins.graph, rig.binding, ins.plan, strict);
  (void)strict_sim.run(rig.tasks);
  EXPECT_NO_THROW((void)strict_sim.run(rig.tasks));
}

/// Two physical channels, two logical channels each (so both ends are
/// arbitrated), producers feed consumers which store what they received.
struct TwoPhysRig {
  TaskGraph graph{"degrade-channels"};
  core::Binding binding;
  std::vector<TaskId> tasks;

  explicit TwoPhysRig(int words = 4) {
    for (int c = 0; c < 4; ++c)
      graph.add_segment("out" + std::to_string(c), 64,
                        static_cast<std::size_t>(words));
    std::vector<TaskId> prods, conss;
    for (int c = 0; c < 4; ++c) {
      Program prod;
      for (int k = 0; k < words; ++k)
        prod.load_imm(1, 1000 * (c + 1) + k).send(c, 1).compute(2);
      prod.halt();
      Program cons;
      cons.load_imm(0, 0);
      for (int k = 0; k < words; ++k)
        cons.recv(1, c).store(c, 0, 1, k);
      cons.halt();
      prods.push_back(
          graph.add_task(std::string("p").append(std::to_string(c)), prod, 1));
      conss.push_back(
          graph.add_task(std::string("q").append(std::to_string(c)), cons, 1));
    }
    for (std::size_t c = 0; c < 4; ++c)
      graph.add_channel("ch" + std::to_string(c), 16, prods[c],
                        conss[c]);
    tasks = prods;
    tasks.insert(tasks.end(), conss.begin(), conss.end());
    binding.task_to_pe = {0, 1, 2, 3, 4, 5, 6, 7};
    binding.segment_to_bank = {0, 0, 0, 0};
    binding.num_banks = 1;
    binding.bank_names = {"MEM"};
    binding.channel_to_phys = {0, 0, 1, 1};
    binding.num_phys_channels = 2;
    binding.phys_channel_names = {"X0", "X1"};
  }
};

TEST(DegradeEndToEnd, StuckChannelRemergesOntoTheSurvivor) {
  TwoPhysRig rig;
  const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});

  rcsim::SystemSimulator ref(ins.graph, rig.binding, ins.plan,
                             degrade_options());
  const rcsim::SimResult ref_r = ref.run(rig.tasks);
  ASSERT_FALSE(ref_r.deadlocked);

  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kPermanentStuckChannel;
  dead.cycle = 6;
  dead.channel = 0;  // physical channel X0
  rcsim::SimOptions so = degrade_options();
  so.faults = {dead};
  rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
  const rcsim::SimResult r = sim.run(rig.tasks);

  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.remaps, 1u);
  ASSERT_EQ(r.quarantine_events.size(), 1u);
  EXPECT_EQ(r.quarantine_events[0].resource, 1) << "num_banks + phys 0";
  EXPECT_EQ(r.quarantine_events[0].remap_target, 2) << "num_banks + phys 1";
  EXPECT_EQ(r.channel_conflicts, 0u)
      << "movers and the survivor's own traffic must share one arbiter";
  EXPECT_EQ(r.protocol_violations, 0u);
  for (tg::SegmentId c = 0; c < 4; ++c)
    EXPECT_EQ(sim.segment_data(c), ref.segment_data(c))
        << "consumer " << c << " saw wrong data";
}

TEST(DegradeEndToEnd, NoSurvivorMeansStallWithDiagnosticNotDeadlock) {
  // One physical channel only: when it dies there is nowhere to remap.
  TwoPhysRig rig;
  rig.binding.channel_to_phys = {0, 0, 0, 0};
  rig.binding.num_phys_channels = 1;
  rig.binding.phys_channel_names = {"X0"};
  const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});

  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kPermanentStuckChannel;
  dead.cycle = 6;
  dead.channel = 0;
  rcsim::SimOptions so = degrade_options();
  so.no_progress_window = 200;
  so.faults = {dead};
  rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
  const rcsim::SimResult r = sim.run(rig.tasks);

  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.remaps, 0u);
  EXPECT_EQ(r.count(rcsim::DiagKind::kCapacityExhausted), 1u);
  ASSERT_EQ(r.quarantine_events.size(), 1u);
  EXPECT_EQ(r.quarantine_events[0].state,
            degrade::QuarantineState::kCapacityExhausted);
  // The run stalls (that is unavoidable) but stops *cleanly*: attributed,
  // no corruption, no protocol violations.
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.count(rcsim::DiagKind::kDeadlock), 0u);
  EXPECT_EQ(r.channel_conflicts, 0u);
  EXPECT_EQ(r.bank_conflicts, 0u);
  EXPECT_EQ(r.protocol_violations, 0u);
}

TEST(DegradeEndToEnd, ArbiterLatchUpIsRepairedInPlace) {
  for (const CheckMode mode : {CheckMode::kDuplicate, CheckMode::kTmr}) {
    TwoBankRig rig;
    const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});

    fault::FaultEvent latch;
    latch.kind = fault::FaultKind::kArbiterLatchup;
    latch.cycle = 6;
    latch.arbiter = 0;
    rcsim::SimOptions so = degrade_options();
    so.self_check = mode;
    so.faults = {latch};
    rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
    const rcsim::SimResult r = sim.run(rig.tasks);

    EXPECT_FALSE(r.deadlocked) << core::to_string(mode);
    EXPECT_GT(r.self_check_errors, 0u)
        << "the pinned comparator is the evidence stream";
    EXPECT_EQ(r.quarantined, 1u) << core::to_string(mode);
    EXPECT_EQ(r.remaps, 1u) << core::to_string(mode);
    ASSERT_EQ(r.quarantine_events.size(), 1u);
    EXPECT_EQ(r.quarantine_events[0].remap_target,
              r.quarantine_events[0].resource)
        << "healthy guarded hardware: the arbiter regenerates in place";
    for (const TaskId t : rig.tasks)
      EXPECT_GT(r.tasks[static_cast<std::size_t>(t)].finish_cycle, 0u);
  }
}

TEST(DegradeEndToEnd, PlainArbitersCannotDetectALatchUp) {
  // The same latch-up without self-checking arbiters: no error wire means
  // no evidence, no quarantine — the system wedges.  This is the tentpole's
  // motivating contrast.
  TwoBankRig rig;
  const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});
  fault::FaultEvent latch;
  latch.kind = fault::FaultKind::kArbiterLatchup;
  latch.cycle = 6;
  latch.arbiter = 0;
  rcsim::SimOptions so = degrade_options();
  so.self_check = CheckMode::kNone;
  so.faults = {latch};
  rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
  const rcsim::SimResult r = sim.run(rig.tasks);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_EQ(r.self_check_errors, 0u);
}

TEST(DegradeEndToEnd, SelfCheckArbitersRideOutTransientSeusWithoutQuarantine) {
  // A one-shot SEU fires the comparator for one cycle; the K-in-W
  // classifier must NOT quarantine (that is the whole point of K > 1).
  TwoBankRig rig;
  const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});
  fault::FaultEvent seu;
  seu.kind = fault::FaultKind::kFsmBitFlip;
  seu.cycle = 8;
  seu.arbiter = 0;
  seu.bit = 1;
  rcsim::SimOptions so = degrade_options();
  so.self_check = CheckMode::kDuplicate;
  so.faults = {seu};
  rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
  const rcsim::SimResult r = sim.run(rig.tasks);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GE(r.self_check_errors, 1u) << "the upset must be detected";
  EXPECT_GE(r.self_check_resyncs, 1u) << "and repaired by the resync";
  EXPECT_EQ(r.quarantined, 0u) << "one strike must not classify";
  EXPECT_EQ(r.remaps, 0u);
}

TEST(DegradeEndToEnd, CampaignReportIsDeterministic) {
  // Two identical runs of the full quarantine/remap pipeline must agree on
  // every externally visible number (the bench's determinism contract).
  auto run_once = []() {
    TwoPhysRig rig;
    const auto ins = core::insert_arbitration(rig.graph, rig.binding, {});
    fault::FaultEvent dead;
    dead.kind = fault::FaultKind::kPermanentStuckChannel;
    dead.cycle = 6;
    dead.channel = 0;
    rcsim::SimOptions so = degrade_options();
    so.self_check = CheckMode::kTmr;
    so.faults = {dead};
    rcsim::SystemSimulator sim(ins.graph, rig.binding, ins.plan, so);
    return sim.run(rig.tasks);
  };
  const rcsim::SimResult a = run_once();
  const rcsim::SimResult b = run_once();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.serving_cycles, b.serving_cycles);
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.remaps, b.remaps);
  ASSERT_EQ(a.quarantine_events.size(), b.quarantine_events.size());
  for (std::size_t i = 0; i < a.quarantine_events.size(); ++i) {
    EXPECT_EQ(a.quarantine_events[i].classified_cycle,
              b.quarantine_events[i].classified_cycle);
    EXPECT_EQ(a.quarantine_events[i].restored_cycle,
              b.quarantine_events[i].restored_cycle);
  }
  EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size());
}

TEST(DegradeEndToEnd, ElidedSoleClientJoinsTheSurvivorWithoutViolations) {
  // Two banks with one client each: the insertion pass elides both tasks'
  // protocol ops (no contention), so after bank 1 dies and its load lands
  // on bank 0 the joining task has no Acquire to replay.  The supervisor
  // must retrofit an implicit per-access Req/release — the merged bank is
  // arbitrated, data stays correct, and no protocol violation is charged.
  TaskGraph g("elided");
  g.add_segment("s0", 64, 8);
  g.add_segment("s1", 64, 8);
  Program w0, w1;
  w0.load_imm(0, 0);
  for (int k = 0; k < 8; ++k)
    w0.load_imm(1, 10 + k).store(0, 0, 1, k).compute(1);
  w0.halt();
  w1.load_imm(0, 0);
  for (int k = 0; k < 8; ++k)
    w1.load_imm(1, 20 + k).store(1, 0, 1, k).compute(1);
  w1.halt();
  const TaskId t0 = g.add_task("t0", w0, 1);
  const TaskId t1 = g.add_task("t1", w1, 1);
  core::Binding b;
  b.task_to_pe = {0, 1};
  b.segment_to_bank = {0, 1};
  b.num_banks = 2;
  b.bank_names = {"B0", "B1"};
  const auto ins = core::insert_arbitration(g, b, {});
  fault::FaultEvent dead;
  dead.kind = fault::FaultKind::kBankFailure;
  dead.cycle = 6;
  dead.bank = 1;
  rcsim::SimOptions so = degrade_options();
  so.self_check = CheckMode::kTmr;
  so.faults = {dead};
  rcsim::SystemSimulator sim(ins.graph, b, ins.plan, so);
  const rcsim::SimResult r = sim.run({t0, t1});
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.remaps, 1u);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.protocol_violations, 0u);
  EXPECT_EQ(r.bank_conflicts, 0u);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(sim.segment_data(0)[static_cast<std::size_t>(k)], 10 + k);
    EXPECT_EQ(sim.segment_data(1)[static_cast<std::size_t>(k)], 20 + k);
  }
}

}  // namespace
}  // namespace rcarb
