// Scalable round-robin arbiters beyond the flat 2N-state FSM.
//
// The paper's Fig. 5 arbiter rotates priority with a chain whose scan
// depth is O(N): fine at N = 10, hopeless at N = 1024.  This module adds
// the two standard large-N round-robin structures, each as a behavioral
// `core::Arbiter` *and* as an AIG generator that runs through the same
// synthesis -> LUT-map -> CLB-pack -> STA flow as the flat FSM:
//
//  * Hierarchical tree-of-arbiters ("Reconfigurable Parallel Architecture
//    of High Speed Round Robin Arbiter", PAPERS.md): 2- or 4-way
//    round-robin cells arranged in a tree.  Each node keeps a small
//    rotating pointer; a grant percolates root -> leaf in O(log N) levels
//    and the pointers along the winning path advance (ping-pong rotation),
//    so the subtree that just won drops to lowest priority.  A held-index
//    register pins the current holder while its request stays up (Fig. 8
//    release-by-deassert semantics, same as the flat FSM's Ci states).
//
//  * Parallel-prefix (Kogge-Stone thermometer-mask) arbiter: an N-bit
//    one-hot pointer marks the last grant; prefix/suffix OR networks mask
//    requests at-or-after the pointer and pick the first one in O(log N)
//    depth with every internal net at constant fanout.
//
// Both grant the same Fig. 8 contract as the flat FSM — at most one grant
// per cycle, a holder keeps its grant while requesting, rotation on
// release — but their rotation orders legitimately differ, so cross-kind
// tests pin each kind's sequence rather than expecting identity.
//
// Fairness: under continuous contention the flat FSM and the prefix
// arbiter bound the wait at N-1 other grants between two grants of the
// same port.  The tree composes per-level bounds: the exact bound for a
// leaf is (product of the child counts of the nodes on its root->leaf
// path) - 1, which equals N-1 when N is a power of the arity and can
// exceed it on ragged trees.  HierShape::waiting_bound reports the exact
// per-leaf value and the model checker asserts it (tests/test_hier.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/policy.hpp"

namespace rcarb::core {

/// The three synthesizable round-robin structures.
enum class ArbiterKind : std::uint8_t {
  kFlatFsm,       // Fig. 5 rotating-chain FSM (2N one-hot state bits)
  kHierarchical,  // tree-of-arbiters, ping-pong pointers
  kPrefix,        // Kogge-Stone thermometer-mask
};

[[nodiscard]] const char* to_string(ArbiterKind k);

/// Tree shape shared by the behavioral model and the AIG generator, so the
/// state-bit layout is bit-exact between them (SEU lockstep tests rely on
/// it).  Nodes are stored in pre-order; children of a node are either
/// another node (child >= 0: node index) or a leaf (child < 0: input
/// ~child).  State-bit order: each node's pointer bits LSB-first in node
/// order, then the held-index bits LSB-first, then the valid bit.
struct HierShape {
  struct Node {
    std::vector<int> child;   // >= 0: node index; < 0: leaf input ~child
    int ptr_bits = 0;         // ceil(log2(child count))
    int first_state_bit = 0;  // offset of this node's ptr bits
  };

  int n = 0;
  int arity = 0;
  std::vector<Node> nodes;  // pre-order; nodes[0] is the root (empty: n==1)
  int ptr_bits_total = 0;
  int held_bits = 0;  // ceil(log2(n)); 0 when n == 1
  /// Exact bounded-waiting bound per leaf under continuous contention:
  /// (product of real child counts on the root->leaf path) - 1.
  std::vector<std::uint64_t> bound;

  [[nodiscard]] int num_state_bits() const {
    return ptr_bits_total + held_bits + 1;  // +1: the holder-valid bit
  }
  [[nodiscard]] std::uint64_t waiting_bound(int input) const {
    return bound[static_cast<std::size_t>(input)];
  }
};

/// Builds the tree over n leaves with `arity`-way nodes (arity in [2, 4]);
/// ragged sizes split as evenly as possible and single-leaf groups attach
/// directly to the parent.
[[nodiscard]] HierShape make_hier_shape(int n, int arity);

/// Behavioral tree-of-arbiters.  Widths above 64 use step_wide(); the
/// word-based Arbiter::step() addresses ports 0..63 of a wider instance.
class HierarchicalArbiter final : public Arbiter {
 public:
  explicit HierarchicalArbiter(int n, int arity = 4);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

  /// One cycle over a words-encoded request vector (bit i of word i/64 =
  /// port i).  Returns the granted port or -1.
  int step_wide(const std::vector<std::uint64_t>& requests) override;

  /// Grants asserted by the last step, words-encoded (one-hot or empty).
  [[nodiscard]] const std::vector<std::uint64_t>& last_grant_words() const {
    return grant_;
  }

  [[nodiscard]] const HierShape& shape() const { return shape_; }
  [[nodiscard]] int num_state_bits() const { return shape_.num_state_bits(); }
  /// Packed state register in the canonical HierShape bit order.  Requires
  /// num_state_bits() <= 64 (the exhaustive model checker's sizes).
  [[nodiscard]] std::uint64_t state_bits() const;
  /// SEU injection: XOR one bit of the packed state register.
  void inject_state_bit(int bit);
  [[nodiscard]] std::uint64_t waiting_bound(int input) const {
    return shape_.waiting_bound(input);
  }

 protected:
  int do_step(std::uint64_t requests) override;

 private:
  int step_wide_impl(const std::vector<std::uint64_t>& requests);
  HierShape shape_;
  std::vector<int> ptr_;  // per node, in [0, 1 << ptr_bits)
  int held_ = 0;          // holder index, meaningful while valid_
  bool valid_ = false;
  std::vector<std::uint64_t> grant_;
  std::vector<std::uint64_t> req_scratch_;
  std::vector<char> any_scratch_;
};

/// Behavioral Kogge-Stone thermometer-mask arbiter.  The state is an
/// N-bit one-hot pointer at the last granted port (reset: port 0); grants
/// scan from the pointer, so a requesting holder is re-granted and the
/// pointer advances only when the grant moves.
class PrefixArbiter final : public Arbiter {
 public:
  explicit PrefixArbiter(int n);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

  int step_wide(const std::vector<std::uint64_t>& requests) override;
  [[nodiscard]] const std::vector<std::uint64_t>& last_grant_words() const {
    return grant_;
  }

  [[nodiscard]] int num_state_bits() const { return n_; }
  /// Packed pointer register (bit i = ptr_i).  Requires n <= 64.
  [[nodiscard]] std::uint64_t state_bits() const;
  void inject_state_bit(int bit);
  [[nodiscard]] std::uint64_t waiting_bound(int) const {
    return static_cast<std::uint64_t>(n_ - 1);
  }

 protected:
  int do_step(std::uint64_t requests) override;

 private:
  int step_wide_impl(const std::vector<std::uint64_t>& requests);
  std::vector<std::uint64_t> ptr_;
  std::vector<std::uint64_t> grant_;
  std::vector<std::uint64_t> req_scratch_;
};

/// Behavioral factory over the kind.  kFlatFsm returns the Fig. 5
/// RoundRobinArbiter; every kind accepts up to kMaxWideInputs.  `arity`
/// only affects kHierarchical.
[[nodiscard]] std::unique_ptr<Arbiter> make_scalable_arbiter(ArbiterKind kind,
                                                             int n,
                                                             int arity = 4);

// ---- AIG generators -------------------------------------------------------
//
// All three build the combinational next-state/grant cloud of a Mealy
// machine with inputs [req0..req(n-1), state0..state(b-1)] and outputs
// [ns0..ns(b-1), grant0..grant(n-1)], ready for
// synth::finish_machine_synthesis with the matching reset bits.  State-bit
// orders match the behavioral models bit-for-bit.

/// Tree-of-arbiters netlist for make_hier_shape(n, arity).  Reset: all
/// state bits zero (pointers at slot 0, no holder).
[[nodiscard]] aig::Aig build_hierarchical_aig(int n, int arity = 4);

/// Kogge-Stone prefix arbiter.  Reset: pointer one-hot at bit 0.
[[nodiscard]] aig::Aig build_prefix_aig(int n);

/// Width-unlimited flat Fig. 5 chain (one-hot, 2n state bits: bit i = Fi,
/// bit n+i = Ci): build_round_robin_chain (core/structural.hpp) over the
/// state bits, node for node build_round_robin_aig's one-hot netlist.
/// Reset: F0 (bit 0).
[[nodiscard]] aig::Aig build_flat_onehot_aig(int n);

/// Reset vector matching the kind's AIG state-bit layout.
[[nodiscard]] std::vector<bool> scalable_reset_bits(ArbiterKind kind, int n,
                                                    int arity = 4);

}  // namespace rcarb::core
