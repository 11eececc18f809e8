#include <gtest/gtest.h>

#include <set>

#include "core/rr_fsm.hpp"
#include "support/check.hpp"
#include "synth/encoding.hpp"

namespace rcarb::synth {
namespace {

Fsm three_state_fsm() {
  Fsm fsm("m3");
  const auto s0 = fsm.add_state("s0");
  const auto s1 = fsm.add_state("s1");
  const auto s2 = fsm.add_state("s2");
  fsm.add_input("in");
  fsm.add_transition(s0, logic::Cube::literal(0, true), s1, 0);
  fsm.add_transition(s0, logic::Cube::literal(0, false), s0, 0);
  fsm.add_transition(s1, logic::Cube(), s2, 0);
  fsm.add_transition(s2, logic::Cube(), s0, 0);
  return fsm;
}

TEST(Encoding, OneHotCodes) {
  const StateCodes codes = encode_states(three_state_fsm(), Encoding::kOneHot);
  EXPECT_EQ(codes.num_bits, 3);
  EXPECT_EQ(codes.code[0], 0b001u);
  EXPECT_EQ(codes.code[1], 0b010u);
  EXPECT_EQ(codes.code[2], 0b100u);
}

TEST(Encoding, CompactCodes) {
  const StateCodes codes = encode_states(three_state_fsm(), Encoding::kCompact);
  EXPECT_EQ(codes.num_bits, 2);
  EXPECT_EQ(codes.code[0], 0u);
  EXPECT_EQ(codes.code[1], 1u);
  EXPECT_EQ(codes.code[2], 2u);
}

TEST(Encoding, GrayCodesDifferInOneBit) {
  Fsm fsm("m8");
  for (int i = 0; i < 8; ++i)
    fsm.add_state(std::string("s").append(std::to_string(i)));
  fsm.add_input("in");
  for (StateId s = 0; s < 8; ++s)
    fsm.add_transition(s, logic::Cube(), (s + 1) % 8, 0);
  const StateCodes codes = encode_states(fsm, Encoding::kGray);
  EXPECT_EQ(codes.num_bits, 3);
  for (std::size_t s = 0; s + 1 < 8; ++s) {
    const std::uint64_t diff = codes.code[s] ^ codes.code[s + 1];
    EXPECT_EQ(__builtin_popcountll(diff), 1)
        << "adjacent gray codes must differ in exactly one bit";
  }
}

TEST(Encoding, CodesAreUniqueAcrossSchemes) {
  for (const Encoding e :
       {Encoding::kOneHot, Encoding::kCompact, Encoding::kGray}) {
    const StateCodes codes = encode_states(three_state_fsm(), e);
    std::set<std::uint64_t> seen(codes.code.begin(), codes.code.end());
    EXPECT_EQ(seen.size(), codes.code.size()) << to_string(e);
  }
}

TEST(Encoding, StateCubeRecognizesExactlyTheState) {
  for (const Encoding e :
       {Encoding::kOneHot, Encoding::kCompact, Encoding::kGray}) {
    const StateCodes codes = encode_states(three_state_fsm(), e);
    for (std::size_t s = 0; s < codes.code.size(); ++s) {
      const logic::Cube cube = codes.state_cube(s, 0);
      for (std::size_t u = 0; u < codes.code.size(); ++u) {
        if (e == Encoding::kOneHot) {
          // One-hot recognizers are single-literal: they accept the state
          // itself and reject every other *valid* code.
          EXPECT_EQ(cube.eval(codes.code[u]), s == u) << to_string(e);
        } else {
          EXPECT_EQ(cube.eval(codes.code[u]), s == u) << to_string(e);
        }
      }
    }
  }
}

TEST(Encoding, OneHotRecognizerIsSingleLiteral) {
  const StateCodes codes = encode_states(three_state_fsm(), Encoding::kOneHot);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(codes.state_cube(s, 0).literal_count(), 1);
}

TEST(Encoding, DenseRecognizerUsesAllBits) {
  const StateCodes codes = encode_states(three_state_fsm(), Encoding::kCompact);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(codes.state_cube(s, 0).literal_count(), codes.num_bits);
}

TEST(Encoding, DecodeRoundTrips) {
  for (const Encoding e :
       {Encoding::kOneHot, Encoding::kCompact, Encoding::kGray}) {
    const StateCodes codes = encode_states(three_state_fsm(), e);
    for (std::size_t s = 0; s < codes.code.size(); ++s)
      EXPECT_EQ(codes.decode(codes.code[s]), s);
    EXPECT_EQ(codes.decode(0b111), StateCodes::npos);
  }
}

TEST(Encoding, StateCubeUsesFirstVarOffset) {
  const StateCodes codes = encode_states(three_state_fsm(), Encoding::kCompact);
  const logic::Cube cube = codes.state_cube(1, 5);
  EXPECT_TRUE(cube.has_var(5));
  EXPECT_TRUE(cube.has_var(6));
  EXPECT_FALSE(cube.has_var(0));
}

TEST(Encoding, SingleStateMachineHasOneBit) {
  Fsm fsm("m1");
  fsm.add_state("only");
  fsm.add_input("in");
  fsm.add_transition(0, logic::Cube(), 0, 0);
  for (const Encoding e : {Encoding::kCompact, Encoding::kGray}) {
    const StateCodes codes = encode_states(fsm, e);
    EXPECT_EQ(codes.num_bits, 1) << to_string(e);
  }
}

TEST(Encoding, ToStringNames) {
  EXPECT_STREQ(to_string(Encoding::kOneHot), "one-hot");
  EXPECT_STREQ(to_string(Encoding::kCompact), "compact");
  EXPECT_STREQ(to_string(Encoding::kGray), "gray");
}

}  // namespace
}  // namespace rcarb::synth
