#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

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

TEST(RoundRobinPreemption, HogIsPreemptedAfterWindow) {
  RoundRobinArbiter arb(3, RoundRobinOptions{/*max_hold_cycles=*/4});
  // Task 0 requests forever; task 1 joins at cycle 2 and never gives up.
  EXPECT_EQ(arb.step(0b001), 0);
  EXPECT_EQ(arb.step(0b001), 0);
  EXPECT_EQ(arb.step(0b011), 0);
  EXPECT_EQ(arb.step(0b011), 0);  // 4th granted cycle for task 0
  EXPECT_EQ(arb.step(0b011), 1) << "holder must be preempted";
  // Preemption only triggers when someone else waits.
  RoundRobinArbiter solo(3, RoundRobinOptions{2});
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(solo.step(0b001), 0) << "no waiter, no preemption";
}

TEST(RoundRobinPreemption, DisabledByDefault) {
  RoundRobinArbiter arb(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(arb.step(0b11), 0);
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
