#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/hier.hpp"
#include "netlist/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "synth/lut_map.hpp"

namespace rcarb::synth {
namespace {

/// Builds a random AIG over `nvars` inputs with `nops` random operations,
/// registering `nouts` of the produced literals as outputs.
aig::Aig random_aig(Rng& rng, int nvars, int nops, int nouts) {
  aig::Aig g;
  std::vector<aig::Lit> pool;
  for (int v = 0; v < nvars; ++v)
    pool.push_back(g.add_input(std::string("x").append(std::to_string(v))));
  pool.push_back(aig::kConstTrue);
  for (int i = 0; i < nops; ++i) {
    aig::Lit a = pool[rng.next_below(pool.size())];
    aig::Lit b = pool[rng.next_below(pool.size())];
    if (rng.chance(1, 3)) a = aig::lit_not(a);
    if (rng.chance(1, 3)) b = aig::lit_not(b);
    pool.push_back(g.land(a, b));
  }
  for (int o = 0; o < nouts; ++o) {
    aig::Lit d = pool[pool.size() - 1 - rng.next_below(pool.size() / 2)];
    if (rng.chance(1, 4)) d = aig::lit_not(d);
    g.add_output(std::string("y").append(std::to_string(o)), d);
  }
  return g;
}

/// Maps the AIG and checks input-output equivalence exhaustively.
void check_mapping_equivalence(const aig::Aig& g, const MapOptions& options) {
  netlist::Netlist nl;
  std::vector<netlist::NetId> input_nets;
  for (std::size_t i = 0; i < g.num_inputs(); ++i)
    input_nets.push_back(nl.add_input(g.input_name(i)));
  MapStats stats;
  const auto out_nets = map_aig(g, options, nl, input_nets, "m_", &stats);
  ASSERT_EQ(out_nets.size(), g.num_outputs());
  netlist::Simulator sim(nl);
  const std::uint64_t rows = 1ull << g.num_inputs();
  for (std::uint64_t p = 0; p < rows; ++p) {
    for (std::size_t i = 0; i < g.num_inputs(); ++i)
      sim.set_input(input_nets[i], (p >> i) & 1);
    sim.settle();
    for (std::size_t o = 0; o < g.num_outputs(); ++o)
      EXPECT_EQ(sim.get(out_nets[o]), g.eval_output(o, p))
          << "output " << o << " pattern " << p;
  }
}

TEST(LutMap, MapsSimpleFunctions) {
  aig::Aig g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto c = g.add_input("c");
  g.add_output("f", g.lor(g.land(a, b), c));
  check_mapping_equivalence(g, {});
}

TEST(LutMap, SingleLutForFourInputFunction) {
  aig::Aig g;
  std::vector<aig::Lit> ins;
  for (int i = 0; i < 4; ++i) ins.push_back(g.add_input("i" + std::to_string(i)));
  g.add_output("f", g.land_many(ins));
  netlist::Netlist nl;
  std::vector<netlist::NetId> nets;
  for (int i = 0; i < 4; ++i) nets.push_back(nl.add_input("i" + std::to_string(i)));
  MapStats stats;
  map_aig(g, {}, nl, nets, "m_", &stats);
  EXPECT_EQ(stats.luts, 1u) << "a 4-input AND fits one 4-LUT";
  EXPECT_EQ(stats.depth, 1);
}

TEST(LutMap, ConstantAndPassthroughOutputs) {
  aig::Aig g;
  const auto a = g.add_input("a");
  g.add_output("const0", aig::kConstFalse);
  g.add_output("const1", aig::kConstTrue);
  g.add_output("pass", a);
  g.add_output("inv", aig::lit_not(a));
  check_mapping_equivalence(g, {});
}

TEST(LutMap, ComplementedOutputGetsInverter) {
  aig::Aig g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto f = g.land(a, b);
  g.add_output("nand", aig::lit_not(f));
  check_mapping_equivalence(g, {});
}

struct MapParam {
  std::uint64_t seed;
  int nvars;
  int nops;
  MapObjective objective;
};

// gtest names each case after the bytes of its parameter. Print them the
// way its default printer does, but with zeros for the padding: left as
// it is, the padding holds whatever the stack held, so the names changed
// from build to build and from run to run.
void PrintTo(const MapParam& p, std::ostream* os) {
  unsigned char bytes[sizeof(MapParam)] = {};
  std::memcpy(bytes + offsetof(MapParam, seed), &p.seed, sizeof p.seed);
  std::memcpy(bytes + offsetof(MapParam, nvars), &p.nvars, sizeof p.nvars);
  std::memcpy(bytes + offsetof(MapParam, nops), &p.nops, sizeof p.nops);
  std::memcpy(bytes + offsetof(MapParam, objective),
             &p.objective, sizeof p.objective);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class LutMapRandom : public ::testing::TestWithParam<MapParam> {};

TEST_P(LutMapRandom, MappingPreservesFunction) {
  const MapParam param = GetParam();
  Rng rng(param.seed);
  const aig::Aig g = random_aig(rng, param.nvars, param.nops, 3);
  MapOptions options;
  options.objective = param.objective;
  check_mapping_equivalence(g, options);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LutMapRandom,
    ::testing::Values(
        MapParam{1, 4, 10, MapObjective::kDepth},
        MapParam{2, 5, 20, MapObjective::kDepth},
        MapParam{3, 6, 40, MapObjective::kDepth},
        MapParam{4, 7, 60, MapObjective::kDepth},
        MapParam{5, 8, 90, MapObjective::kDepth},
        MapParam{6, 4, 10, MapObjective::kArea},
        MapParam{7, 5, 20, MapObjective::kArea},
        MapParam{8, 6, 40, MapObjective::kArea},
        MapParam{9, 7, 60, MapObjective::kArea},
        MapParam{10, 8, 90, MapObjective::kArea},
        MapParam{11, 9, 120, MapObjective::kDepth},
        MapParam{12, 10, 150, MapObjective::kArea}));

TEST(LutMap, DepthObjectiveNeverDeeperThanAreaObjective) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const aig::Aig g = random_aig(rng, 8, 80, 2);
    netlist::Netlist nl_d, nl_a;
    std::vector<netlist::NetId> in_d, in_a;
    for (std::size_t i = 0; i < g.num_inputs(); ++i) {
      in_d.push_back(nl_d.add_input(g.input_name(i)));
      in_a.push_back(nl_a.add_input(g.input_name(i)));
    }
    MapStats sd, sa;
    MapOptions od, oa;
    od.objective = MapObjective::kDepth;
    oa.objective = MapObjective::kArea;
    map_aig(g, od, nl_d, in_d, "m_", &sd);
    map_aig(g, oa, nl_a, in_a, "m_", &sa);
    EXPECT_LE(sd.depth, sa.depth);
  }
}

/// FNV-1a over everything a mapping emits: each LUT's inputs, mask and
/// output net in creation order, every net name, the returned output nets
/// and the LUT depth.
class NetlistHash {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char ch : s) {
      h_ ^= static_cast<unsigned char>(ch);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

enum class ArbAig : std::uint8_t { kFlat, kHier, kPrefix };

aig::Aig arbiter_aig(ArbAig kind, int n) {
  switch (kind) {
    case ArbAig::kFlat: return core::build_flat_onehot_aig(n);
    case ArbAig::kHier: return core::build_hierarchical_aig(n);
    case ArbAig::kPrefix: return core::build_prefix_aig(n);
  }
  return {};
}

/// Maps `g` into a fresh netlist and folds the result into `hash`.
void hash_mapping(const aig::Aig& g, const MapOptions& options,
                  NetlistHash& hash) {
  netlist::Netlist nl;
  std::vector<netlist::NetId> input_nets;
  for (std::size_t i = 0; i < g.num_inputs(); ++i)
    input_nets.push_back(nl.add_input(g.input_name(i)));
  MapStats stats;
  const auto out_nets = map_aig(g, options, nl, input_nets, "m_", &stats);
  for (const netlist::Lut& lut : nl.luts()) {
    hash.add(lut.inputs.size());
    for (const netlist::NetId in : lut.inputs) hash.add(in);
    hash.add(lut.mask);
    hash.add(lut.output);
  }
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net)
    hash.add(nl.net_name(net));
  for (const netlist::NetId net : out_nets) hash.add(net);
  hash.add(static_cast<std::uint64_t>(stats.depth));
}

// Every LUT, mask and net name the mapper emits for the three arbiter
// AIGs, pinned so a change to cut enumeration, ranking or the cover shows
// up here even when the LUT counts in the reports stay put.  Each sweep
// entry folds the 18 option sets {depth, area} x k in {2, 3, 4} x
// cuts_per_node in {1, 3, 8} for one (kind, N); the last three entries
// map at default options.
TEST(LutMap, MappedNetlistsArePinned) {
  struct Pin {
    ArbAig kind;
    int n;
    bool sweep;
    std::uint64_t hash;
  };
  const std::vector<Pin> pins = {
      {ArbAig::kFlat, 2, true, 0xc988a8559a29ee25ull},
      {ArbAig::kFlat, 5, true, 0x408a1ffe83a74459ull},
      {ArbAig::kFlat, 8, true, 0x82a43d2555ca5feeull},
      {ArbAig::kFlat, 16, true, 0x7c665b48682982d3ull},
      {ArbAig::kFlat, 33, true, 0xde931a79a3cbfc12ull},
      {ArbAig::kFlat, 64, true, 0x59aaa5afd323acfcull},
      {ArbAig::kFlat, 256, true, 0x2f37e592a195e8b8ull},
      {ArbAig::kHier, 2, true, 0x8533bbe394dca0efull},
      {ArbAig::kHier, 5, true, 0xed80e06807f80a8full},
      {ArbAig::kHier, 8, true, 0xd4db67819d5e4b58ull},
      {ArbAig::kHier, 16, true, 0x951a8b8430a6c3cfull},
      {ArbAig::kHier, 33, true, 0xafab2196a383167bull},
      {ArbAig::kHier, 64, true, 0x7a7186f020372752ull},
      {ArbAig::kHier, 256, true, 0x274f9bf7a73a6ff9ull},
      {ArbAig::kPrefix, 2, true, 0x7a5bfa34e9d5c2ffull},
      {ArbAig::kPrefix, 5, true, 0xb77a8684254aff27ull},
      {ArbAig::kPrefix, 8, true, 0x8325a1879aae607eull},
      {ArbAig::kPrefix, 16, true, 0x6284b299e4980a4eull},
      {ArbAig::kPrefix, 33, true, 0x5813cc609d86b0fbull},
      {ArbAig::kPrefix, 64, true, 0x5589f57faf9ebaeeull},
      {ArbAig::kPrefix, 256, true, 0xd4dc05b7c70feeb7ull},
      {ArbAig::kFlat, 64, false, 0x99df818619d9c48full},
      {ArbAig::kHier, 1024, false, 0x7762bc3099a498acull},
      {ArbAig::kPrefix, 1024, false, 0xb9305306cd298823ull},
  };
  for (const Pin& pin : pins) {
    const aig::Aig g = arbiter_aig(pin.kind, pin.n);
    NetlistHash hash;
    if (pin.sweep) {
      for (const MapObjective objective :
           {MapObjective::kDepth, MapObjective::kArea})
        for (const int k : {2, 3, 4})
          for (const int cuts : {1, 3, 8}) {
            MapOptions options;
            options.objective = objective;
            options.cut_size = k;
            options.cuts_per_node = cuts;
            hash_mapping(g, options, hash);
          }
    } else {
      hash_mapping(g, {}, hash);
    }
    EXPECT_EQ(hash.value(), pin.hash)
        << "kind " << static_cast<int>(pin.kind) << " n " << pin.n
        << (pin.sweep ? " (option sweep)" : " (default options)")
        << ": got 0x" << std::hex << hash.value() << "ull";
  }
}

TEST(LutMap, RejectsBadOptions) {
  aig::Aig g;
  g.add_input("a");
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  MapOptions options;
  options.cut_size = 7;
  EXPECT_THROW(map_aig(g, options, nl, {a}, "m_"), rcarb::CheckError);
  options = {};
  options.cuts_per_node = 0;
  EXPECT_THROW(map_aig(g, options, nl, {a}, "m_"), rcarb::CheckError);
  EXPECT_THROW(map_aig(g, {}, nl, {}, "m_"), rcarb::CheckError);
}

}  // namespace
}  // namespace rcarb::synth
