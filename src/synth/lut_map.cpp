#include "synth/lut_map.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "support/check.hpp"

namespace rcarb::synth {

namespace {

using aig::Aig;
using aig::Lit;

constexpr std::size_t kMaxLeaves = netlist::kMaxLutInputs;

/// A k-feasible cut: `size` sorted unique leaf node ids, plus a signature
/// with one bit per leaf.  Distinct leaves may share a bit, so a merge
/// whose signature union has more than k bits cannot fit in k leaves.
struct Cut {
  std::array<std::uint32_t, kMaxLeaves> leaves{};
  std::uint64_t sig = 0;
  std::uint32_t size = 0;
};

/// A node's cut while it is ranked, with the costs of implementing it.
struct Candidate {
  Cut cut;
  int depth = 0;
  double area_flow = 0.0;
};

/// Costs of a node's best cut, which its consumers' cuts build on.
struct NodeCost {
  int depth = 0;
  double area_flow = 0.0;
};

/// The signature bit of a leaf.  A multiplicative hash rather than the
/// low id bits: wide arbiters repeat their structure at strides of 64
/// nodes, and (id % 64) would give most of a cut's leaves the same bit.
std::uint64_t leaf_sig(std::uint32_t node) {
  return 1ull << ((node * 0x9E3779B97F4A7C15ull) >> 58);
}

Cut trivial_cut(std::uint32_t node) {
  Cut c;
  c.leaves[0] = node;
  c.sig = leaf_sig(node);
  c.size = 1;
  return c;
}

bool leaves_equal(const Cut& a, const Cut& b) {
  if (a.sig != b.sig || a.size != b.size) return false;
  for (std::uint32_t i = 0; i < a.size; ++i)
    if (a.leaves[i] != b.leaves[i]) return false;
  return true;
}

/// Merges two leaf sets into `out` if the union stays within k.
bool merge_leaves(const Cut& a, const Cut& b, std::uint32_t k, Cut& out) {
  const std::uint64_t sig = a.sig | b.sig;
  if (static_cast<std::uint32_t>(std::popcount(sig)) > k) return false;
  std::uint32_t i = 0, j = 0, m = 0;
  while (i < a.size || j < b.size) {
    std::uint32_t next;
    if (j >= b.size || (i < a.size && a.leaves[i] < b.leaves[j]))
      next = a.leaves[i++];
    else if (i >= a.size || b.leaves[j] < a.leaves[i])
      next = b.leaves[j++];
    else {
      next = a.leaves[i];
      ++i;
      ++j;
    }
    if (m == k) return false;
    out.leaves[m++] = next;
  }
  out.size = m;
  out.sig = sig;
  return true;
}

/// Truth tables of cut cones, all rows at once: each cone node carries a
/// 16-bit word whose bit r is the node's value on input row r.  Leaf i
/// starts as its projection pattern, so one walk of the cone yields the
/// LUT mask.  The memo is stamped with a per-walk epoch instead of cleared.
class ConeEvaluator {
 public:
  explicit ConeEvaluator(const Aig& aig)
      : aig_(aig), stamp_(aig.num_nodes(), 0), word_(aig.num_nodes(), 0) {}

  std::uint16_t truth_table(std::uint32_t root, const Cut& cut) {
    static constexpr std::array<std::uint16_t, 4> kProjection = {
        0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};
    static_assert(kMaxLeaves <= kProjection.size(),
                  "one projection pattern per LUT input");
    ++epoch_;
    for (std::uint32_t i = 0; i < cut.size; ++i) {
      stamp_[cut.leaves[i]] = epoch_;
      word_[cut.leaves[i]] = kProjection[i];
    }
    const std::uint32_t rows = 1u << cut.size;
    return static_cast<std::uint16_t>(walk(root) & ((1u << rows) - 1u));
  }

 private:
  std::uint32_t walk(std::uint32_t node) {
    if (node == 0) return 0;  // constant node, even when it is a leaf
    if (stamp_[node] == epoch_) return word_[node];
    RCARB_ASSERT(aig_.is_and(node), "cone walk reached an unexpected node");
    const Lit f0 = aig_.fanin0(node);
    const Lit f1 = aig_.fanin1(node);
    const std::uint32_t v0 =
        walk(aig::lit_node(f0)) ^ (aig::lit_compl(f0) ? 0xFFFFu : 0u);
    const std::uint32_t v1 =
        walk(aig::lit_node(f1)) ^ (aig::lit_compl(f1) ? 0xFFFFu : 0u);
    const auto v = static_cast<std::uint16_t>(v0 & v1);
    stamp_[node] = epoch_;
    word_[node] = v;
    return v;
  }

  const Aig& aig_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint16_t> word_;
  std::uint32_t epoch_ = 0;
};

}  // namespace

std::vector<netlist::NetId> map_aig(const Aig& aig, const MapOptions& options,
                                    netlist::Netlist& out,
                                    const std::vector<netlist::NetId>& input_nets,
                                    const std::string& prefix,
                                    MapStats* stats) {
  RCARB_CHECK(options.cut_size >= 2 &&
                  options.cut_size <=
                      static_cast<int>(netlist::kMaxLutInputs),
              "cut size out of range");
  RCARB_CHECK(options.cuts_per_node >= 1, "cuts_per_node must be positive");
  RCARB_CHECK(input_nets.size() == aig.num_inputs(),
              "input net count must match AIG inputs");

  const std::size_t n = aig.num_nodes();
  const auto k = static_cast<std::uint32_t>(options.cut_size);

  // ---- Phase 1: priority-cut enumeration, best cut per node. ----
  // All cuts live in one pool: node v's cuts are pool[offset[v],
  // offset[v + 1]), its best cut first and its trivial cut last.  A node
  // keeps at most cuts_per_node + 1 cuts; the reservation covers that up
  // to the default bound, and a larger bound grows the pool on demand.
  const auto cuts_per_node = static_cast<std::size_t>(options.cuts_per_node);
  const auto reserved_per_node = std::min(
      cuts_per_node, static_cast<std::size_t>(MapOptions{}.cuts_per_node));
  std::vector<Cut> pool;
  pool.reserve(n * (reserved_per_node + 1));
  std::vector<std::size_t> offset(n + 1, 0);
  std::vector<NodeCost> best(n);

  auto better = [&](const Candidate& a, const Candidate& b) {
    if (options.objective == MapObjective::kDepth) {
      if (a.depth != b.depth) return a.depth < b.depth;
      if (a.area_flow != b.area_flow) return a.area_flow < b.area_flow;
    } else {
      if (a.area_flow != b.area_flow) return a.area_flow < b.area_flow;
      if (a.depth != b.depth) return a.depth < b.depth;
    }
    return a.cut.size < b.cut.size;
  };

  std::vector<Candidate> cand;
  std::vector<std::uint32_t> order;
  for (std::uint32_t node = 0; node < n; ++node) {
    offset[node] = pool.size();
    if (node == 0 || aig.is_input(node)) {
      pool.push_back(trivial_cut(node));
      continue;
    }
    const std::uint32_t n0 = aig::lit_node(aig.fanin0(node));
    const std::uint32_t n1 = aig::lit_node(aig.fanin1(node));

    cand.clear();
    for (std::size_t a = offset[n0]; a < offset[n0 + 1]; ++a) {
      for (std::size_t b = offset[n1]; b < offset[n1 + 1]; ++b) {
        Candidate c;
        if (!merge_leaves(pool[a], pool[b], k, c.cut)) continue;
        bool duplicate = false;
        for (const Candidate& existing : cand)
          if (leaves_equal(existing.cut, c.cut)) {
            duplicate = true;
            break;
          }
        if (duplicate) continue;
        c.area_flow = 1.0;
        for (std::uint32_t i = 0; i < c.cut.size; ++i) {
          const NodeCost& leaf = best[c.cut.leaves[i]];
          c.depth = std::max(c.depth, leaf.depth + 1);
          c.area_flow += leaf.area_flow;
        }
        cand.push_back(c);
      }
    }
    RCARB_ASSERT(!cand.empty(), "AND node with no feasible cut");
    // Sorting indices with the same comparator yields the permutation a
    // sort of the candidates themselves would, without moving them.
    order.resize(cand.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return better(cand[a], cand[b]);
              });
    const std::size_t kept = std::min(cand.size(), cuts_per_node);
    for (std::size_t i = 0; i < kept; ++i) pool.push_back(cand[order[i]].cut);
    best[node] = {cand[order[0]].depth, cand[order[0]].area_flow};
    // Trivial cut participates in consumers' merges but is never selected
    // as the node's own implementation.
    pool.push_back(trivial_cut(node));
  }
  offset[n] = pool.size();

  // ---- Phase 2: cover from the outputs down, materializing LUTs. ----
  // plain_net[node]: net carrying the node's (uncomplemented) function.
  std::vector<netlist::NetId> plain_net(n, netlist::NetId(-1));
  std::vector<int> lut_level(n, 0);
  for (std::size_t i = 0; i < input_nets.size(); ++i)
    plain_net[i + 1] = input_nets[i];

  netlist::NetId const_net = netlist::NetId(-1);
  auto get_const_net = [&]() {
    if (const_net == netlist::NetId(-1))
      const_net = out.add_lut({}, 0, prefix + "const0");
    return const_net;
  };

  ConeEvaluator cones(aig);
  std::size_t fresh = 0;
  auto materialize = [&](auto&& self, std::uint32_t node) -> netlist::NetId {
    if (node == 0) return get_const_net();
    if (plain_net[node] != netlist::NetId(-1)) return plain_net[node];
    RCARB_ASSERT(aig.is_and(node), "materializing an unexpected node");
    const Cut& cut = pool[offset[node]];
    std::vector<netlist::NetId> ins;
    int level = 0;
    ins.reserve(cut.size);
    for (std::uint32_t i = 0; i < cut.size; ++i) {
      const std::uint32_t leaf = cut.leaves[i];
      ins.push_back(self(self, leaf));
      level = std::max(level, lut_level[leaf]);
    }
    const std::uint16_t mask = cones.truth_table(node, cut);
    const netlist::NetId net =
        out.add_lut(std::move(ins), mask, prefix + "n" + std::to_string(fresh++));
    plain_net[node] = net;
    lut_level[node] = level + 1;
    return net;
  };

  std::vector<netlist::NetId> output_nets;
  int max_level = 0;
  std::size_t luts_before = out.num_luts();
  for (std::size_t o = 0; o < aig.num_outputs(); ++o) {
    const Lit driver = aig.output_driver(o);
    const std::uint32_t node = aig::lit_node(driver);
    netlist::NetId net;
    int level;
    if (node == 0) {
      // Constant output: a 0-input LUT with the right constant.
      net = out.add_lut({}, aig::lit_compl(driver) ? std::uint16_t{1}
                                                   : std::uint16_t{0},
                        prefix + "const_out" + std::to_string(o));
      level = 0;
    } else {
      net = materialize(materialize, node);
      level = lut_level[node];
      if (aig::lit_compl(driver)) {
        net = out.add_lut({net}, 0b01,
                          prefix + "inv" + std::to_string(o));
        level += 1;
      }
    }
    output_nets.push_back(net);
    max_level = std::max(max_level, level);
  }

  if (stats != nullptr) {
    stats->luts = out.num_luts() - luts_before;
    stats->depth = max_level;
  }
  return output_nets;
}

}  // namespace rcarb::synth
