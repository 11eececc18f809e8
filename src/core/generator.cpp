#include "core/generator.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "core/policy.hpp"
#include "core/rr_fsm.hpp"
#include "core/structural.hpp"
#include "support/check.hpp"

namespace rcarb::core {

const char* to_string(GeneratorMode m) {
  switch (m) {
    case GeneratorMode::kStructural:
      return "structural";
    case GeneratorMode::kBehavioral:
      return "behavioral";
  }
  return "?";
}

namespace {

/// Times the synthesized netlist and fills the characteristics row.
void characterize(GeneratedArbiter& out, int n, synth::FlowKind flow,
                  const timing::DelayModel& model) {
  out.timing = timing::analyze(out.synth.netlist, model);
  out.chars.n = n;
  out.chars.encoding = out.synth.used_encoding;
  out.chars.flow = flow;
  out.chars.clbs = out.synth.clb.clbs;
  out.chars.luts = out.synth.clb.luts;
  out.chars.ffs = out.synth.clb.ffs;
  out.chars.lut_depth = out.synth.map.depth;
  out.chars.fmax_mhz = out.timing.fmax_mhz;
  out.chars.aig_ands = out.synth.aig_ands;
  out.chars.overhead_cycles = kProtocolOverheadCycles;
}

/// Folds every request that builds the same netlist onto one spec, and
/// rejects the specs no generator builds (see GeneratorSpec).
GeneratorSpec canonical(GeneratorSpec spec) {
  if (spec.kind != ArbiterKind::kFlatFsm) {
    RCARB_CHECK(spec.check == CheckMode::kNone,
                std::string("no generator replicates a ")
                    .append(to_string(spec.kind))
                    .append(" arbiter"));
    RCARB_CHECK(spec.flow == synth::FlowKind::kExpressLike &&
                    spec.encoding == synth::Encoding::kOneHot &&
                    spec.mode == GeneratorMode::kStructural,
                std::string(to_string(spec.kind))
                    .append(" arbiters are generated one-hot and "
                            "structural under the Express-like flow only"));
  }
  if (spec.kind != ArbiterKind::kHierarchical) spec.arity = 0;
  // The paper notes Synplify applied one-hot no matter what the VHDL asked.
  if (spec.flow == synth::FlowKind::kSynplifyLike)
    spec.encoding = synth::Encoding::kOneHot;
  if (spec.check != CheckMode::kNone)
    RCARB_CHECK(spec.flow == synth::FlowKind::kExpressLike &&
                    spec.mode == GeneratorMode::kStructural,
                "self-checking arbiters are generated structurally under "
                "the Express-like flow only");
  return spec;
}

/// The round-robin FSM under any flow, encoding and RTL mode.
GeneratedArbiter generate_round_robin(const GeneratorSpec& spec,
                                      const timing::DelayModel& model) {
  const int n = spec.n;
  const synth::Fsm fsm = build_round_robin_fsm(n);
  if (spec.mode == GeneratorMode::kBehavioral)
    return characterize_fsm(fsm, n, spec.flow, spec.encoding, model);
  const synth::StateCodes codes = synth::encode_states(fsm, spec.encoding);
  synth::MapOptions map_options;
  map_options.objective = spec.flow == synth::FlowKind::kSynplifyLike
                              ? synth::MapObjective::kArea
                              : synth::MapObjective::kDepth;
  GeneratedArbiter out;
  out.synth = synth::finish_machine_synthesis(
      build_round_robin_aig(n, codes), /*num_inputs=*/n, codes.num_bits,
      codes.code[fsm.reset_state()], map_options);
  out.synth.used_encoding = spec.encoding;
  characterize(out, n, spec.flow, model);
  return out;
}

/// Duplicate-and-compare or TMR-voted copies of the structural FSM AIG,
/// stitched with the comparator / voter.
GeneratedArbiter generate_self_checking(const GeneratorSpec& spec,
                                        const timing::DelayModel& model) {
  const int n = spec.n;
  const synth::Fsm fsm = build_round_robin_fsm(n);
  const synth::StateCodes codes = synth::encode_states(fsm, spec.encoding);
  const std::uint64_t code = codes.code[fsm.reset_state()];
  std::vector<bool> reset(static_cast<std::size_t>(codes.num_bits));
  for (std::size_t b = 0; b < reset.size(); ++b)
    reset[b] = ((code >> b) & 1u) != 0;
  // Every copy's register bank resets to the same per-copy code,
  // concatenated copy-major to match the AIG's state-input order.
  std::vector<bool> bank;
  for (int c = 0; c < num_copies(spec.check); ++c)
    bank.insert(bank.end(), reset.begin(), reset.end());

  synth::MapOptions map_options;
  map_options.objective = synth::MapObjective::kDepth;

  GeneratedArbiter out;
  out.synth = synth::finish_machine_synthesis(
      build_self_checking_aig(build_round_robin_aig(n, codes), n, reset,
                              spec.check),
      /*num_inputs=*/n, static_cast<int>(bank.size()), bank, map_options);
  out.synth.used_encoding = spec.encoding;
  characterize(out, n, synth::FlowKind::kExpressLike, model);
  return out;
}

/// The width-unlimited structures of core/hier.hpp, N in [1,
/// kMaxWideInputs]: the one-hot Fig. 5 chain, the `arity`-way tree and the
/// Kogge-Stone prefix.  Always one-hot and depth-oriented.
GeneratedArbiter generate_scalable(const GeneratorSpec& spec,
                                   const timing::DelayModel& model) {
  const aig::Aig comb = build_scalable_aig(spec.kind, spec.n, spec.arity);
  const std::vector<bool> reset =
      scalable_reset_bits(spec.kind, spec.n, spec.arity);
  synth::MapOptions map_options;
  map_options.objective = synth::MapObjective::kDepth;

  GeneratedArbiter out;
  out.synth = synth::finish_machine_synthesis(
      comb, /*num_inputs=*/spec.n, static_cast<int>(reset.size()), reset,
      map_options);
  out.synth.used_encoding = synth::Encoding::kOneHot;
  characterize(out, spec.n, synth::FlowKind::kExpressLike, model);
  return out;
}

/// Runs the generator for an already canonical spec.
GeneratedArbiter generate_canonical(const GeneratorSpec& spec,
                                    const timing::DelayModel& model) {
  if (spec.check != CheckMode::kNone)
    return generate_self_checking(spec, model);
  // The chain entry: the structural one-hot FSM under the Express-like
  // flow is the same netlist as the scalable flat chain, which has no
  // width limit (tests/test_hier.cpp checks the AIGs bit for bit).
  const bool chain = spec.flow == synth::FlowKind::kExpressLike &&
                     spec.encoding == synth::Encoding::kOneHot &&
                     spec.mode == GeneratorMode::kStructural;
  if (spec.kind != ArbiterKind::kFlatFsm || chain)
    return generate_scalable(spec, model);
  return generate_round_robin(spec, model);
}

}  // namespace

GeneratedArbiter generate(const GeneratorSpec& spec,
                          const timing::DelayModel& model) {
  return generate_canonical(canonical(spec), model);
}

GeneratedArbiter characterize_fsm(const synth::Fsm& fsm, int n,
                                  synth::FlowKind flow,
                                  synth::Encoding encoding,
                                  const timing::DelayModel& model) {
  GeneratedArbiter out;
  synth::FlowOptions options;
  options.kind = flow;
  options.encoding = encoding;
  out.synth = synth::synthesize_fsm(fsm, options);
  characterize(out, n, flow, model);
  return out;
}

namespace {

// Process-wide synthesis memo.  The mutex only guards the key->entry maps;
// each entry's synthesis runs under its own std::once_flag, so two sweep
// workers asking for *different* configurations synthesize concurrently
// while two workers asking for the *same* one share a single run (the
// second blocks in call_once until the first finishes).  Entries are
// heap-allocated so references stay stable as the maps rehash/rebalance.
struct MemoCounters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

MemoCounters& memo_counters() {
  static MemoCounters counters;
  return counters;
}

template <typename Key, typename Value>
class SynthMemo {
 public:
  template <typename MakeFn>
  const Value& get_or_synthesize(const Key& key, MakeFn&& make) {
    Entry* entry = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto [it, inserted] = entries_.try_emplace(key);
      if (inserted) {
        it->second = std::make_unique<Entry>();
        memo_counters().misses.fetch_add(1, std::memory_order_relaxed);
      } else {
        memo_counters().hits.fetch_add(1, std::memory_order_relaxed);
      }
      entry = it->second.get();
    }
    std::call_once(entry->once, [&] { entry->value = make(); });
    return entry->value;
  }

 private:
  struct Entry {
    std::once_flag once;
    Value value;
  };
  std::mutex mutex_;
  std::map<Key, std::unique_ptr<Entry>> entries_;
};

// The delay model participates in the key as its six raw parameters so two
// distinct models never alias to one characterization.
using ModelKey = std::tuple<double, double, double, double, double, double>;

ModelKey model_key(const timing::DelayModel& m) {
  return {m.lut_delay,       m.clk_to_q,         m.setup,
          m.net_base,        m.net_per_fanout,   m.clock_uncertainty};
}

using GenerateKey = std::pair<GeneratorSpec, ModelKey>;
using BehavioralKey = std::tuple<int, synth::Encoding, bool>;

SynthMemo<GenerateKey, GeneratedArbiter>& generate_memo() {
  static auto* memo = new SynthMemo<GenerateKey, GeneratedArbiter>();
  return *memo;
}

SynthMemo<BehavioralKey, synth::SynthResult>& behavioral_memo() {
  static auto* memo = new SynthMemo<BehavioralKey, synth::SynthResult>();
  return *memo;
}

}  // namespace

SynthMemoStats synth_memo_stats() {
  SynthMemoStats stats;
  stats.hits = memo_counters().hits.load(std::memory_order_relaxed);
  stats.misses = memo_counters().misses.load(std::memory_order_relaxed);
  return stats;
}

const GeneratedArbiter& generate_cached(const GeneratorSpec& spec,
                                        const timing::DelayModel& model) {
  const GeneratorSpec key = canonical(spec);
  return generate_memo().get_or_synthesize(
      GenerateKey{key, model_key(model)},
      [&] { return generate_canonical(key, model); });
}

const GeneratedArbiter& generate_scalable_cached(
    ArbiterKind kind, int n, int arity, const timing::DelayModel& model) {
  return generate_cached({.n = n, .kind = kind, .arity = arity}, model);
}

const synth::SynthResult& synthesize_round_robin_cached(int n,
                                                        synth::Encoding
                                                            encoding,
                                                        bool harden) {
  const BehavioralKey key{n, encoding, harden};
  return behavioral_memo().get_or_synthesize(key, [&] {
    synth::FlowOptions options;
    options.kind = synth::FlowKind::kExpressLike;
    options.encoding = encoding;
    options.harden = harden;
    return synth::synthesize_fsm(build_round_robin_fsm(n), options);
  });
}

}  // namespace rcarb::core
