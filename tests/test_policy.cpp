#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstring>
#include <vector>

#include "core/arbiter_factory.hpp"
#include "core/policy.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::core {
namespace {

TEST(RoundRobin, Fig5HandTrace) {
  // Follow the Fig. 5 algorithm by hand for N=3.
  RoundRobinArbiter arb(3);
  EXPECT_EQ(arb.state_name(), "F0");
  EXPECT_EQ(arb.step(0b000), -1);  // F0 stays
  EXPECT_EQ(arb.state_name(), "F0");
  EXPECT_EQ(arb.step(0b010), 1);  // not(R0) and R1 -> C1, G1
  EXPECT_EQ(arb.state_name(), "C1");
  EXPECT_EQ(arb.step(0b111), 1);  // holder keeps while requesting
  EXPECT_EQ(arb.step(0b101), 2);  // R1 dropped; scan from 1 -> grants 2
  EXPECT_EQ(arb.state_name(), "C2");
  EXPECT_EQ(arb.step(0b000), -1);  // C2 retires to F0 (wrap)
  EXPECT_EQ(arb.state_name(), "F0");
}

TEST(RoundRobin, CyclicPriorityRotatesAfterIdleRetire) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.step(0b0001), 0);   // C0
  EXPECT_EQ(arb.step(0b0000), -1);  // -> F1
  EXPECT_EQ(arb.state_name(), "F1");
  // Now 0 and 1 request together: 1 has priority.
  EXPECT_EQ(arb.step(0b0011), 1);
}

TEST(RoundRobin, SimultaneousRequestsServedCyclically) {
  RoundRobinArbiter arb(4);
  std::vector<int> order;
  std::uint64_t req = 0b1111;
  int granted = arb.step(req);
  for (int i = 0; i < 4; ++i) {
    order.push_back(granted);
    req &= ~(1ull << granted);  // winner releases
    granted = arb.step(req);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

struct PolicyCase {
  Policy policy;
  int n;
};

// gtest names each case after the bytes of its parameter. Print them the
// way its default printer does, but with zeros for the padding: left as
// it is, the padding holds whatever the stack held, so the names changed
// from build to build and from run to run.
void PrintTo(const PolicyCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(PolicyCase)] = {};
  std::memcpy(bytes + offsetof(PolicyCase, policy), &c.policy,
              sizeof c.policy);
  std::memcpy(bytes + offsetof(PolicyCase, n), &c.n, sizeof c.n);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class AllPolicies : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(AllPolicies, GrantOnlyGoesToRequesters) {
  auto arb = make_arbiter(GetParam().policy, GetParam().n, 5);
  Rng rng(101);
  for (int cyc = 0; cyc < 2000; ++cyc) {
    const std::uint64_t req = rng.next_below(1ull << GetParam().n);
    const int g = arb->step(req);
    if (g >= 0) {
      EXPECT_TRUE((req >> g) & 1) << arb->describe();
    }
    if (req == 0) {
      EXPECT_EQ(g, -1);
    }
  }
}

TEST_P(AllPolicies, GrantIssuedWheneverSomeoneRequests) {
  // Deadlock freedom: a nonzero request vector always yields a grant.
  auto arb = make_arbiter(GetParam().policy, GetParam().n, 6);
  Rng rng(103);
  for (int cyc = 0; cyc < 2000; ++cyc) {
    const std::uint64_t req =
        1 + rng.next_below((1ull << GetParam().n) - 1);
    EXPECT_GE(arb->step(req), 0) << arb->describe();
  }
}

TEST_P(AllPolicies, HolderKeepsGrantWhileRequesting) {
  // The Fig. 8 protocol relies on the grant being stable until release.
  auto arb = make_arbiter(GetParam().policy, GetParam().n, 7);
  Rng rng(107);
  int holder = -1;
  for (int cyc = 0; cyc < 2000; ++cyc) {
    std::uint64_t req = rng.next_below(1ull << GetParam().n);
    if (holder >= 0) req |= 1ull << holder;  // holder never releases here
    const int g = arb->step(req);
    if (holder >= 0) {
      EXPECT_EQ(g, holder) << arb->describe();
    }
    holder = g;
    if (holder >= 0 && rng.chance(1, 4)) {
      // release: drop the request next cycle
      req &= ~(1ull << holder);
      holder = -1;
      (void)req;
    }
  }
}

TEST_P(AllPolicies, ResetRestoresInitialBehavior) {
  auto a = make_arbiter(GetParam().policy, GetParam().n, 11);
  auto b = make_arbiter(GetParam().policy, GetParam().n, 11);
  Rng rng(113);
  for (int cyc = 0; cyc < 100; ++cyc)
    (void)a->step(rng.next_below(1ull << GetParam().n));
  a->reset();
  Rng replay(127);
  Rng replay2(127);
  for (int cyc = 0; cyc < 200; ++cyc) {
    const std::uint64_t req = replay.next_below(1ull << GetParam().n);
    const std::uint64_t req2 = replay2.next_below(1ull << GetParam().n);
    EXPECT_EQ(a->step(req), b->step(req2)) << a->describe();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPolicies,
    ::testing::Values(PolicyCase{Policy::kRoundRobin, 2},
                      PolicyCase{Policy::kRoundRobin, 5},
                      PolicyCase{Policy::kRoundRobin, 10},
                      PolicyCase{Policy::kFifo, 2}, PolicyCase{Policy::kFifo, 5},
                      PolicyCase{Policy::kFifo, 10},
                      PolicyCase{Policy::kPriority, 2},
                      PolicyCase{Policy::kPriority, 5},
                      PolicyCase{Policy::kPriority, 10},
                      PolicyCase{Policy::kRandom, 2},
                      PolicyCase{Policy::kRandom, 5},
                      PolicyCase{Policy::kRandom, 10}));

/// Simulates N greedy clients that always re-request and hold for
/// `hold` cycles; returns the maximum number of grants to others between
/// consecutive grants to any one client.
int max_intervening_grants(Arbiter& arb, int n, int hold, int cycles) {
  std::vector<int> since_grant(static_cast<std::size_t>(n), 0);
  int holder = -1;
  int held = 0;
  int worst = 0;
  for (int cyc = 0; cyc < cycles; ++cyc) {
    std::uint64_t req = (n == 64) ? ~0ull : ((1ull << n) - 1);
    if (holder >= 0 && held >= hold) req &= ~(1ull << holder);  // release
    const int g = arb.step(req);
    if (g != holder) {
      // A new grant: everyone else waited one more grant period.
      for (int t = 0; t < n; ++t) {
        if (t == g) {
          since_grant[static_cast<std::size_t>(t)] = 0;
        } else {
          ++since_grant[static_cast<std::size_t>(t)];
          worst = std::max(worst, since_grant[static_cast<std::size_t>(t)]);
        }
      }
      holder = g;
      held = 1;
    } else {
      ++held;
    }
  }
  return worst;
}

TEST(RoundRobin, StarvationBoundIsNMinusOne) {
  // Sec. 4.1: "a task requesting at a certain instant will have its grant
  // at most after (N-1) tasks".
  for (int n : {2, 3, 5, 8, 10}) {
    RoundRobinArbiter arb(n);
    EXPECT_LE(max_intervening_grants(arb, n, 3, 5000), n - 1) << "n=" << n;
  }
}

TEST(Fifo, AlsoStarvationFreeUnderContinuousLoad) {
  FifoArbiter arb(6);
  EXPECT_LE(max_intervening_grants(arb, 6, 3, 5000), 6);
}

TEST(Priority, StarvesLowPriorityTasks) {
  // The negative result that motivated round-robin: under continuous load
  // from task 0, a static-priority arbiter never serves task 1.
  PriorityArbiter arb(2);
  int grants_to_1 = 0;
  for (int cyc = 0; cyc < 1000; ++cyc) {
    // Task 0 re-requests instantly after its 2-cycle bursts; task 1 waits.
    const std::uint64_t req = 0b11;
    if (arb.step(req) == 1) ++grants_to_1;
  }
  EXPECT_EQ(grants_to_1, 0);
}

TEST(Random, EventuallyServesEveryoneUnderChurn) {
  RandomArbiter arb(4, 99);
  std::vector<int> grants(4, 0);
  int holder = -1;
  int held = 0;
  for (int cyc = 0; cyc < 4000; ++cyc) {
    std::uint64_t req = 0b1111;
    if (holder >= 0 && held >= 2) req &= ~(1ull << holder);
    const int g = arb.step(req);
    if (g >= 0 && g != holder) {
      ++grants[static_cast<std::size_t>(g)];
      held = 1;
    } else {
      ++held;
    }
    holder = g;
  }
  for (int t = 0; t < 4; ++t) EXPECT_GT(grants[static_cast<std::size_t>(t)], 0);
}

TEST(Arbiter, RejectsBadSizes) {
  EXPECT_THROW(RoundRobinArbiter(0), CheckError);
  EXPECT_THROW(RoundRobinArbiter(kMaxWideInputs + 1), CheckError);
  // n = 1 is a degenerate but legal arbiter (a remap can merge every
  // contender away but one); the flat arbiter is width-generic up to the
  // wide-request cap.
  EXPECT_NO_THROW(RoundRobinArbiter(1));
  EXPECT_NO_THROW(RoundRobinArbiter(64));
  EXPECT_NO_THROW(RoundRobinArbiter{kMaxWideInputs});
}

TEST(Arbiter, FactoryAndDescribe) {
  EXPECT_EQ(make_arbiter(Policy::kRoundRobin, 4)->describe(), "round-robin(4)");
  EXPECT_EQ(make_arbiter(Policy::kFifo, 4)->describe(), "fifo(4)");
  EXPECT_EQ(make_arbiter(Policy::kPriority, 4)->describe(), "priority(4)");
  EXPECT_EQ(make_arbiter(Policy::kRandom, 4)->describe(), "random(4)");
  EXPECT_STREQ(to_string(Policy::kRoundRobin), "round-robin");
}

// Random request words for an n-port arbiter: each word ANDs 1-3 draws,
// so densities range from ~1/8 to ~1/2 of the ports.
std::vector<std::uint64_t> random_requests(Rng& rng, int n) {
  std::vector<std::uint64_t> words(static_cast<std::size_t>((n + 63) / 64));
  for (std::uint64_t& w : words) {
    w = rng.next_u64();
    for (auto k = rng.next_below(3); k > 0; --k) w &= rng.next_u64();
  }
  if (n % 64 != 0) words.back() &= (1ull << (n % 64)) - 1;
  return words;
}

// The property rcsim's quiet-stretch jump rests on: from any state reached
// from reset, one step on all-zero requests lands on a fixed point.  Two
// further all-zero steps grant nobody and leave the register as it was,
// and an arbiter that took them answers any later request stream exactly
// like its twin that did not (which covers the policies without a state
// register: FIFO's queue, the holders, the random policy's draws).
TEST(Arbiter, OneZeroStepReachesAFixedPoint) {
  struct Case {
    SystemArbiterSpec spec;
    int n;
  };
  std::vector<Case> cases;
  for (const int n : {2, 8, 65, 130}) {
    for (const ArbiterKind kind :
         {ArbiterKind::kFlatFsm, ArbiterKind::kHierarchical,
          ArbiterKind::kPrefix})
      for (const CheckMode check :
           {CheckMode::kNone, CheckMode::kDuplicate, CheckMode::kTmr})
        for (const bool harden : {false, true})
          if (!harden || (kind == ArbiterKind::kFlatFsm &&
                          check == CheckMode::kNone))
            cases.push_back({{.kind = kind, .harden = harden,
                              .self_check = check},
                             n});
    if (n <= 64)  // the other policies stop at 64 ports
      for (const Policy policy :
           {Policy::kFifo, Policy::kPriority, Policy::kRandom})
        cases.push_back({{.policy = policy, .seed = 7}, n});
  }
  Rng rng(2026);
  for (const Case& c : cases) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(std::string(to_string(c.spec.policy)) + " " +
                   to_string(c.spec.kind) + " " +
                   to_string(c.spec.self_check) +
                   (c.spec.harden ? " hardened" : "") +
                   " n=" + std::to_string(c.n) +
                   " trial=" + std::to_string(trial));
      auto quiet = make_system_arbiter(c.n, c.spec).arbiter;
      auto twin = make_system_arbiter(c.n, c.spec).arbiter;
      // A seeded reachable state: the same random history on both.
      for (auto steps = rng.next_below(40); steps > 0; --steps) {
        const std::vector<std::uint64_t> req = random_requests(rng, c.n);
        ASSERT_EQ(quiet->step(req), twin->step(req));
      }
      const std::vector<std::uint64_t> zero(
          static_cast<std::size_t>((c.n + 63) / 64), 0);
      EXPECT_EQ(quiet->step(zero), -1);
      EXPECT_EQ(twin->step(zero), -1);
      std::vector<std::uint64_t> fixed;
      quiet->read_state(fixed);
      for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(quiet->step(zero), -1);
        EXPECT_EQ(quiet->last_grant_count(), 0);
        EXPECT_FALSE(quiet->error());
        EXPECT_TRUE(quiet->state_legal());
        std::vector<std::uint64_t> now;
        quiet->read_state(now);
        EXPECT_EQ(now, fixed);
      }
      for (int k = 0; k < 24; ++k) {
        const std::vector<std::uint64_t> req = random_requests(rng, c.n);
        ASSERT_EQ(quiet->step(req), twin->step(req)) << "step " << k;
        ASSERT_EQ(quiet->last_grant_words(), twin->last_grant_words());
      }
    }
  }
}

// The property the service engine's held-grant sleep rests on: after a
// granting step from a legal register, every further step with the
// holder's Req up grants it again and leaves the register as it was,
// whatever the other lines do.  holds_grant() answers for the three kinds
// and refuses frozen, illegal and multi-hot registers and the
// self-checking wrapper.
TEST(Arbiter, HeldGrantIsAFixedPoint) {
  Rng rng(0x4e1d);
  for (const int n : {8, 64, 65, 1024}) {
    for (const ArbiterKind kind :
         {ArbiterKind::kFlatFsm, ArbiterKind::kHierarchical,
          ArbiterKind::kPrefix}) {
      for (int trial = 0; trial < 8; ++trial) {
        SCOPED_TRACE(std::string(to_string(kind)) +
                     " n=" + std::to_string(n) +
                     " trial=" + std::to_string(trial));
        auto arb = make_system_arbiter(n, {.kind = kind}).arbiter;
        for (auto steps = rng.next_below(30); steps > 0; --steps)
          (void)arb->step(random_requests(rng, n));
        std::vector<std::uint64_t> req = random_requests(rng, n);
        set_bit(req, rng.next_below(static_cast<std::uint64_t>(n)));
        const int g = arb->step(req);
        ASSERT_GE(g, 0);
        EXPECT_TRUE(arb->holds_grant());
        std::vector<std::uint64_t> held;
        arb->read_state(held);
        for (int k = 0; k < 6; ++k) {
          req = random_requests(rng, n);
          set_bit(req, g);
          ASSERT_EQ(arb->step(req), g) << "held step " << k;
          EXPECT_EQ(arb->last_grant_count(), 1);
          EXPECT_TRUE(arb->holds_grant());
          std::vector<std::uint64_t> now;
          arb->read_state(now);
          EXPECT_EQ(now, held) << "held step " << k;
        }
        arb->freeze();
        EXPECT_FALSE(arb->holds_grant()) << "frozen";
        arb->thaw();
        EXPECT_TRUE(arb->holds_grant()) << "thawed";

        // Illegal registers: a second hot bit (multi-hot), the holder's
        // bit cleared (zero-hot), a held index past the last port.
        const int bits = arb->num_state_bits();
        switch (kind) {
          case ArbiterKind::kFlatFsm:
            arb->flip_state_bit((g + 1) % n);  // F(g+1) joins C(g)
            EXPECT_FALSE(arb->holds_grant()) << "multi-hot";
            arb->flip_state_bit((g + 1) % n);
            arb->flip_state_bit(n + g);  // C(g) cleared
            EXPECT_FALSE(arb->holds_grant()) << "zero-hot";
            break;
          case ArbiterKind::kPrefix:
            arb->flip_state_bit((g + 1) % n);
            EXPECT_FALSE(arb->holds_grant()) << "multi-hot";
            arb->flip_state_bit((g + 1) % n);
            arb->flip_state_bit(g);
            EXPECT_FALSE(arb->holds_grant()) << "zero-hot";
            break;
          case ArbiterKind::kHierarchical: {
            // Held index bits sit below the valid bit; all ones is past
            // the last port unless n is a power of two.
            const HierShape shape = make_hier_shape(n, 4);
            std::vector<std::uint64_t> state;
            arb->read_state(state);
            for (int b = shape.ptr_bits_total; b < bits - 1; ++b)
              if (!test_bit(state, b)) arb->flip_state_bit(b);
            EXPECT_EQ(arb->holds_grant(), std::has_single_bit(
                                              static_cast<unsigned>(n)))
                << "held index all ones";
            arb->flip_state_bit(bits - 1);  // holder-valid cleared
            EXPECT_FALSE(arb->holds_grant()) << "no valid holder";
            break;
          }
        }
      }
    }
  }
  // The self-checking wrapper and the other policies never answer.
  for (const CheckMode check : {CheckMode::kDuplicate, CheckMode::kTmr}) {
    auto arb = make_system_arbiter(8, {.self_check = check}).arbiter;
    ASSERT_EQ(arb->step(0b100), 2);
    ASSERT_EQ(arb->step(0b110), 2);
    EXPECT_FALSE(arb->holds_grant()) << to_string(check);
  }
  for (const Policy policy :
       {Policy::kFifo, Policy::kPriority, Policy::kRandom}) {
    auto arb = make_arbiter(policy, 8);
    ASSERT_EQ(arb->step(0b100), 2);
    EXPECT_FALSE(arb->holds_grant()) << to_string(policy);
  }
}

// state_legal() reads a hot count kept by every register write; it must
// equal a one-hot check of the register read back, through steps, upsets,
// rewrites and resets, hardened or not.
TEST(RoundRobin, StateLegalTracksEveryRegisterWrite) {
  Rng rng(36);
  for (const int n : {1, 2, 8, 65, 130}) {
    for (const bool harden : {false, true}) {
      RoundRobinArbiter arb(n, harden);
      std::vector<std::uint64_t> reg;
      for (int k = 0; k < 400; ++k) {
        switch (rng.next_below(8)) {
          case 0:
            arb.flip_state_bit(static_cast<int>(
                rng.next_below(static_cast<std::uint64_t>(2 * n))));
            break;
          case 1: {
            arb.read_state(reg);
            for (std::uint64_t& w : reg) w &= rng.next_u64() & rng.next_u64();
            arb.load_state(reg);
            break;
          }
          case 2: arb.reset(); break;
          default: arb.step(random_requests(rng, n)); break;
        }
        arb.read_state(reg);
        int hot = 0;
        for (const std::uint64_t w : reg) hot += std::popcount(w);
        ASSERT_EQ(arb.state_legal(), hot == 1)
            << "n=" << n << " harden=" << harden << " op " << k;
        if (hot == 1) {
          int bit = 0;
          while (!test_bit(reg, bit)) ++bit;
          ASSERT_EQ(arb.state_name(), (bit < n ? "F" : "C") +
                                          std::to_string(bit % n));
        }
      }
    }
  }
}

TEST(Fifo, ServesInArrivalOrder) {
  FifoArbiter arb(4);
  EXPECT_EQ(arb.step(0b0100), 2);  // 2 arrives first and is granted
  // 1 and 3 arrive while 2 holds; 1 enqueues before 3 (same-cycle index
  // tie-break), then 0 arrives a cycle later.
  EXPECT_EQ(arb.step(0b1110), 2);
  EXPECT_EQ(arb.step(0b1111), 2);
  EXPECT_EQ(arb.step(0b1011), 1);  // 2 released: oldest waiter is 1
  EXPECT_EQ(arb.step(0b1001), 3);  // then 3
  EXPECT_EQ(arb.step(0b0001), 0);  // then 0
}

}  // namespace
}  // namespace rcarb::core
