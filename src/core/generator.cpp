#include "core/generator.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

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

}  // namespace

GeneratedArbiter generate_round_robin(int n, synth::FlowKind flow,
                                      synth::Encoding encoding,
                                      const timing::DelayModel& model,
                                      GeneratorMode mode) {
  GeneratedArbiter out;
  // The paper notes Synplify applied one-hot no matter what the VHDL asked.
  const synth::Encoding used = flow == synth::FlowKind::kSynplifyLike
                                   ? synth::Encoding::kOneHot
                                   : encoding;
  if (mode == GeneratorMode::kStructural) {
    const synth::Fsm fsm = build_round_robin_fsm(n);
    const synth::StateCodes codes = synth::encode_states(fsm, used);
    const aig::Aig comb = build_round_robin_aig(n, codes);
    synth::MapOptions map_options;
    map_options.objective = flow == synth::FlowKind::kSynplifyLike
                                ? synth::MapObjective::kArea
                                : synth::MapObjective::kDepth;
    out.synth = synth::finish_machine_synthesis(
        comb, /*num_inputs=*/n, codes.num_bits,
        codes.code[fsm.reset_state()], map_options);
    out.synth.used_encoding = used;
  } else {
    synth::FlowOptions options;
    options.kind = flow;
    options.encoding = encoding;
    out.synth = synth::synthesize_fsm(build_round_robin_fsm(n), options);
  }
  characterize(out, n, flow, model);
  return out;
}

GeneratedArbiter generate_self_checking(int n, CheckMode mode,
                                        synth::Encoding encoding,
                                        const timing::DelayModel& model) {
  const synth::Fsm fsm = build_round_robin_fsm(n);
  const synth::StateCodes codes = synth::encode_states(fsm, encoding);
  const std::uint64_t code = codes.code[fsm.reset_state()];
  std::vector<bool> reset(static_cast<std::size_t>(codes.num_bits));
  for (std::size_t b = 0; b < reset.size(); ++b)
    reset[b] = ((code >> b) & 1u) != 0;
  // Every copy's register bank resets to the same per-copy code,
  // concatenated copy-major to match the AIG's state-input order.
  std::vector<bool> bank;
  for (int c = 0; c < num_copies(mode); ++c)
    bank.insert(bank.end(), reset.begin(), reset.end());

  synth::MapOptions map_options;
  map_options.objective = synth::MapObjective::kDepth;

  GeneratedArbiter out;
  out.synth = synth::finish_machine_synthesis(
      build_self_checking_aig(build_round_robin_aig(n, codes), n, reset, mode),
      /*num_inputs=*/n, static_cast<int>(bank.size()), bank, map_options);
  out.synth.used_encoding = encoding;
  characterize(out, n, synth::FlowKind::kExpressLike, model);
  return out;
}

GeneratedArbiter generate_scalable(ArbiterKind kind, int n, int arity,
                                   const timing::DelayModel& model) {
  const aig::Aig comb = build_scalable_aig(kind, n, arity);
  const std::vector<bool> reset = scalable_reset_bits(kind, n, arity);
  synth::MapOptions map_options;
  map_options.objective = synth::MapObjective::kDepth;

  GeneratedArbiter out;
  out.synth = synth::finish_machine_synthesis(
      comb, /*num_inputs=*/n, static_cast<int>(reset.size()), reset,
      map_options);
  out.synth.used_encoding = synth::Encoding::kOneHot;
  characterize(out, n, synth::FlowKind::kExpressLike, model);
  return out;
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

using GenerateKey = std::tuple<int, synth::FlowKind, synth::Encoding,
                               GeneratorMode, ModelKey>;
using BehavioralKey = std::tuple<int, synth::Encoding, bool>;
using SelfCheckKey = std::tuple<int, CheckMode, synth::Encoding, ModelKey>;
using ScalableKey = std::tuple<ArbiterKind, int, int, ModelKey>;

SynthMemo<GenerateKey, GeneratedArbiter>& generate_memo() {
  static auto* memo = new SynthMemo<GenerateKey, GeneratedArbiter>();
  return *memo;
}

SynthMemo<BehavioralKey, synth::SynthResult>& behavioral_memo() {
  static auto* memo = new SynthMemo<BehavioralKey, synth::SynthResult>();
  return *memo;
}

SynthMemo<SelfCheckKey, GeneratedArbiter>& self_check_memo() {
  static auto* memo = new SynthMemo<SelfCheckKey, GeneratedArbiter>();
  return *memo;
}

SynthMemo<ScalableKey, GeneratedArbiter>& scalable_memo() {
  static auto* memo = new SynthMemo<ScalableKey, GeneratedArbiter>();
  return *memo;
}

}  // namespace

SynthMemoStats synth_memo_stats() {
  SynthMemoStats stats;
  stats.hits = memo_counters().hits.load(std::memory_order_relaxed);
  stats.misses = memo_counters().misses.load(std::memory_order_relaxed);
  return stats;
}

const GeneratedArbiter& generate_round_robin_cached(
    int n, synth::FlowKind flow, synth::Encoding encoding,
    const timing::DelayModel& model, GeneratorMode mode) {
  // Synplify forces one-hot, so fold the requested encoding into the one
  // actually used — otherwise the same netlist would be synthesized once
  // per requested-encoding value.
  const synth::Encoding used = flow == synth::FlowKind::kSynplifyLike
                                   ? synth::Encoding::kOneHot
                                   : encoding;
  const GenerateKey key{n, flow, used, mode, model_key(model)};
  return generate_memo().get_or_synthesize(
      key, [&] { return generate_round_robin(n, flow, used, model, mode); });
}

const GeneratedArbiter& generate_self_checking_cached(
    int n, CheckMode mode, synth::Encoding encoding,
    const timing::DelayModel& model) {
  const SelfCheckKey key{n, mode, encoding, model_key(model)};
  return self_check_memo().get_or_synthesize(
      key, [&] { return generate_self_checking(n, mode, encoding, model); });
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

const GeneratedArbiter& generate_scalable_cached(
    ArbiterKind kind, int n, int arity, const timing::DelayModel& model) {
  // The arity only shapes the hierarchical tree; normalize it for the
  // other kinds so they don't synthesize once per requested arity.
  const int used_arity = kind == ArbiterKind::kHierarchical ? arity : 0;
  const ScalableKey key{kind, n, used_arity, model_key(model)};
  return scalable_memo().get_or_synthesize(
      key, [&] { return generate_scalable(kind, n, arity, model); });
}

const ArbiterCharacteristics& PrecharCache::get(int n) {
  // Delegates to the process-wide memo: every PrecharCache instance with
  // the same flow/encoding/model shares one synthesis per N.
  return generate_round_robin_cached(n, flow_, encoding_, model_).chars;
}

}  // namespace rcarb::core
