#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "logic/truth_table.hpp"
#include "support/rng.hpp"

namespace rcarb::aig {
namespace {

TEST(Aig, ConstantFolding) {
  Aig g;
  const Lit a = g.add_input("a");
  EXPECT_EQ(g.land(a, kConstFalse), kConstFalse);
  EXPECT_EQ(g.land(a, kConstTrue), a);
  EXPECT_EQ(g.land(a, a), a);
  EXPECT_EQ(g.land(a, lit_not(a)), kConstFalse);
  EXPECT_EQ(g.num_ands(), 0u);
}

TEST(Aig, StructuralHashingSharesNodes) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit ab1 = g.land(a, b);
  const Lit ab2 = g.land(b, a);  // commuted
  EXPECT_EQ(ab1, ab2);
  EXPECT_EQ(g.num_ands(), 1u);
}

TEST(Aig, OrAndXorAndMuxSemantics) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit s = g.add_input("s");
  g.add_output("or", g.lor(a, b));
  g.add_output("xor", g.lxor(a, b));
  g.add_output("mux", g.mux(s, a, b));
  for (std::uint64_t p = 0; p < 8; ++p) {
    const bool av = p & 1, bv = (p >> 1) & 1, sv = (p >> 2) & 1;
    EXPECT_EQ(g.eval_output(0, p), av || bv);
    EXPECT_EQ(g.eval_output(1, p), av != bv);
    EXPECT_EQ(g.eval_output(2, p), sv ? av : bv);
  }
}

TEST(Aig, LandManyAndLorMany) {
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 5; ++i)
    ins.push_back(g.add_input(std::string("i").append(std::to_string(i))));
  g.add_output("and", g.land_many(ins));
  g.add_output("or", g.lor_many(ins));
  for (std::uint64_t p = 0; p < 32; ++p) {
    EXPECT_EQ(g.eval_output(0, p), p == 31);
    EXPECT_EQ(g.eval_output(1, p), p != 0);
  }
  Aig h;
  EXPECT_EQ(h.land_many({}), kConstTrue);
  EXPECT_EQ(h.lor_many({}), kConstFalse);
}

TEST(Aig, DepthOfBalancedTree) {
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 8; ++i)
    ins.push_back(g.add_input(std::string("i").append(std::to_string(i))));
  g.add_output("and", g.land_many(ins));
  EXPECT_EQ(g.depth(), 3);  // balanced 8-input AND
}

TEST(Aig, SimulateRunsPatternsInParallel) {
  Aig g;
  const Lit a = g.add_input("a");
  const Lit b = g.add_input("b");
  const Lit f = g.land(a, lit_not(b));
  g.add_output("f", f);
  // Pattern bit k: a = k&1, b = k&2.
  const std::vector<std::uint64_t> patterns{0b1010, 0b1100};
  const auto values = g.simulate(patterns);
  const std::uint64_t fv = values[lit_node(f)];
  for (int k = 0; k < 4; ++k) {
    const auto uk = static_cast<unsigned>(k);
    const bool av = (patterns[0] >> uk) & 1, bv = (patterns[1] >> uk) & 1;
    EXPECT_EQ(((fv >> uk) & 1) != 0, av && !bv) << "pattern " << k;
  }
}

TEST(AigProperty, FromCoverMatchesCover) {
  Rng rng(71);
  for (int trial = 0; trial < 150; ++trial) {
    const int nvars = 2 + static_cast<int>(rng.next_below(6));
    logic::Cover f(nvars);
    const int ncubes = 1 + static_cast<int>(rng.next_below(7));
    for (int i = 0; i < ncubes; ++i) {
      const std::uint64_t mask = rng.next_below(1ull << nvars);
      f.add(logic::Cube(mask, rng.next_below(1ull << nvars) & mask));
    }
    Aig g;
    std::vector<Lit> ins;
    for (int v = 0; v < nvars; ++v)
      ins.push_back(g.add_input(std::string("x").append(std::to_string(v))));
    g.add_output("f", g.from_cover(f, ins));
    for (std::uint64_t p = 0; p < (1ull << nvars); ++p)
      EXPECT_EQ(g.eval_output(0, p), f.eval(p));
  }
}

TEST(AigProperty, SharedPrefixesReduceNodeCount) {
  // Priority-scan covers share ~R prefixes; strashing must exploit that:
  // building N chains of length N must cost far fewer than N^2 ANDs twice.
  Aig g;
  std::vector<Lit> r;
  const int n = 10;
  for (int i = 0; i < n; ++i)
    r.push_back(g.add_input(std::string("r").append(std::to_string(i))));
  std::size_t first_count = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (int j = 0; j < n; ++j) {
      Lit chain = kConstTrue;
      for (std::size_t k = 0; k < static_cast<std::size_t>(j); ++k)
        chain = g.land(chain, lit_not(r[k]));
      (void)g.land(chain, r[static_cast<std::size_t>(j)]);
    }
    if (rep == 0) first_count = g.num_ands();
  }
  EXPECT_EQ(g.num_ands(), first_count) << "second round must be fully shared";
}

TEST(Aig, InputOrdinalAndNames) {
  Aig g;
  const Lit a = g.add_input("alpha");
  const Lit b = g.add_input("beta");
  EXPECT_EQ(g.input_ordinal(lit_node(a)), 0u);
  EXPECT_EQ(g.input_ordinal(lit_node(b)), 1u);
  EXPECT_EQ(g.input_name(1), "beta");
  g.add_output("out", b);
  EXPECT_EQ(g.output_name(0), "out");
  EXPECT_EQ(g.output_driver(0), b);
}

}  // namespace
}  // namespace rcarb::aig
