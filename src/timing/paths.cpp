#include "timing/paths.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/obs.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/strfmt.h"

namespace smart::timing {

using netlist::Arc;
using netlist::ArcKind;
using netlist::Component;
using netlist::EdgeMap;
using netlist::NetId;
using netlist::Netlist;
using netlist::Phase;
using netlist::Stack;

namespace {

/// Safety bound on equivalence classes kept per (net, edge) node.
constexpr size_t kMaxClassesPerNode = 65536;

/// Incremental util::mix64 digest over small integer streams.
struct Hash {
  uint64_t h = util::kMix64Seed;
  void mix(uint64_t v) { h = util::mix64(h, v); }
  void mix_double(double d) { mix(util::bits_of(d)); }
};

/// Signature of the suffix chain `rest` extended by a step of signature
/// `step`. The step is the mixed-in value, so a loop over one child's
/// classes mixes the step's half once.
inline uint64_t extend(uint64_t rest, uint64_t step) {
  return util::mix64(rest, step);
}

void hash_stack(const Stack& s, Hash& h) {
  h.mix(static_cast<uint64_t>(s.op()) + 101);
  if (s.is_leaf()) {
    h.mix(static_cast<uint64_t>(s.label()) + 7);
    return;
  }
  h.mix(s.children().size());
  for (const auto& c : s.children()) hash_stack(c, h);
}

/// Structure+label signature of a component — identical for the regular
/// repetitions of a bit-sliced macro (same topology, same size labels).
uint64_t component_signature(const Component& comp) {
  Hash h;
  h.mix(comp.impl.index());
  if (const auto* g = comp.as_static()) {
    hash_stack(g->pulldown, h);
    h.mix(static_cast<uint64_t>(g->pmos_label));
  } else if (const auto* t = comp.as_transgate()) {
    h.mix(static_cast<uint64_t>(t->label));
  } else if (const auto* t3 = comp.as_tristate()) {
    h.mix(static_cast<uint64_t>(t3->nmos_label));
    h.mix(static_cast<uint64_t>(t3->pmos_label));
  } else if (const auto* d = comp.as_domino()) {
    hash_stack(d->pulldown, h);
    h.mix(static_cast<uint64_t>(d->precharge_label));
    h.mix(static_cast<uint64_t>(d->evaluate_label) + 3);
    h.mix_double(d->keeper_ratio);
  }
  return h.h;
}

/// Labels-only signature: components with the same size-label multiset are
/// interchangeable for constraint purposes once each node is modeled by its
/// worst-case pin-to-pin delay (paper §5.2); the pruning passes collapse
/// them, keeping the structurally worst representative.
uint64_t component_label_signature(const Component& comp) {
  Hash h;
  h.mix(comp.impl.index());
  std::vector<int> labels;
  auto add_stack = [&](const Stack& st) {
    std::vector<std::pair<NetId, netlist::LabelId>> leaves;
    st.collect_leaves(leaves);
    for (const auto& [n, l] : leaves) labels.push_back(l);
  };
  if (const auto* g = comp.as_static()) {
    add_stack(g->pulldown);
    labels.push_back(g->pmos_label);
  } else if (const auto* t = comp.as_transgate()) {
    labels.push_back(t->label);
  } else if (const auto* t3 = comp.as_tristate()) {
    labels.push_back(t3->nmos_label);
    labels.push_back(t3->pmos_label);
  } else if (const auto* d = comp.as_domino()) {
    add_stack(d->pulldown);
    labels.push_back(d->precharge_label);
    labels.push_back(d->evaluate_label);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  for (int l : labels) h.mix(static_cast<uint64_t>(l) + 13);
  return h.h;
}

/// Structural worst-case weight of a component (deepest stack), used to
/// pick the binding representative within a label-equivalence class.
int component_depth(const Component& comp) {
  if (const auto* g = comp.as_static()) return g->pulldown.max_depth();
  if (const auto* d = comp.as_domino())
    return d->pulldown.max_depth() + (d->evaluate_label >= 0 ? 1 : 0);
  return 1;
}

/// Structural depth of the pin `input` inside a component (0 = adjacent to
/// the output, larger = deeper in the stack => slower pin class).
int pin_depth_of(const Component& comp, NetId input) {
  const Stack* stack = nullptr;
  if (const auto* g = comp.as_static()) stack = &g->pulldown;
  if (const auto* d = comp.as_domino()) stack = &d->pulldown;
  if (stack != nullptr) {
    std::vector<std::pair<NetId, netlist::LabelId>> path;
    if (stack->worst_path_through(input, path)) {
      for (size_t i = 0; i < path.size(); ++i)
        if (path[i].first == input) return static_cast<int>(i);
    }
    return 0;
  }
  if (const auto* t = comp.as_transgate())
    return input == t->sel ? 1 : 0;
  if (const auto* t3 = comp.as_tristate())
    return input == t3->en ? 1 : 0;
  return 0;
}

/// Which hash variants a step contributes to; see PruneOptions.
struct StepSigs {
  uint64_t reg;       ///< full: structure + labels + depth + fanout
  uint64_t no_depth;  ///< precedence granularity
  uint64_t no_fan;    ///< dominance granularity (depth kept)
  uint64_t coarse;    ///< neither depth nor fanout
};

/// The chain-level signatures kept per suffix class. `no_fan` is omitted:
/// it is only consulted when precedence pruning is disabled, and is then
/// recomputed by walking the (short) chains of the surviving candidates
/// instead of being hashed into every one of the ~100k stored classes.
struct ChainSigs {
  uint64_t reg;
  uint64_t no_depth;
  uint64_t coarse;
};

/// A suffix equivalence class from some (net, edge) node toward the output
/// ports. Classes chain: one step plus a reference to a class of the step's
/// destination node, so creating a class is O(1) regardless of suffix
/// length — full step vectors are materialized only for the paths that
/// survive every pruning stage.
struct Suffix {
  ChainSigs sigs;  // combined over all steps
  PathStep step;   // first step of the chain (unset for the terminal class)
  uint32_t child_node = 0;   ///< (net, edge) key of the rest of the suffix
  int32_t child_index = -1;  ///< class index at child_node; -1 => terminal
  int32_t len = 0;           ///< number of steps in the chain
  long sum_depth = 0;
  long sum_fanout = 0;
};

/// Open-addressing digest set with generation-stamped clearing, so one
/// scratch table serves every node of a build without per-node
/// allocation. Sized ahead of time from the exact attempt bound.
class DedupTable {
 public:
  /// Prepares the table for up to `expect` insertions. Only the first
  /// power of two >= 2 * expect slots are probed, so a small node stays in
  /// cache after a large one has grown the table.
  void begin(size_t expect) {
    size_t want = 16;
    while (want < expect * 2) want <<= 1;
    if (want > slots_.size()) {
      slots_.assign(want, Slot{});
      gen_ = 1;
    } else if (++gen_ == 0) {
      for (Slot& slot : slots_) slot.gen = 0;
      gen_ = 1;
    }
    mask_ = want - 1;
  }

  /// True when `sig` was not present (and inserts it).
  bool insert(uint64_t sig) {
    bool inserted = false;
    id_of(sig, 0, &inserted);
    return inserted;
  }

  /// Maps `sig` to a dense id: existing id on repeat, `next_id` on first
  /// sight (and reports the insertion through `inserted`).
  uint32_t id_of(uint64_t sig, uint32_t next_id, bool* inserted) {
    for (size_t i = static_cast<size_t>(sig) & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.gen != gen_) {
        slot = Slot{sig, gen_, next_id};
        *inserted = true;
        return next_id;
      }
      if (slot.sig == sig) {
        *inserted = false;
        return slot.id;
      }
    }
  }

 private:
  /// Digest, generation stamp and id share a slot, so a probe touches one
  /// cache line.
  struct Slot {
    uint64_t sig = 0;
    uint32_t gen = 0;
    uint32_t id = 0;
  };
  std::vector<Slot> slots_;
  uint32_t gen_ = 0;
  size_t mask_ = 0;
};

/// Scratch of pareto_prune, reused across calls.
struct PruneScratch {
  DedupTable buckets;
  std::vector<int32_t> prev;  ///< previous item of the same bucket
  std::vector<int32_t> last;  ///< last item per bucket
  std::vector<uint8_t> dead;
};

/// Prunes `items` to the Pareto front of each bucket of equal `sig(item)`,
/// keeping survivors in order. Items are visited in order: one dominated by
/// an earlier live member of its bucket dies, otherwise it kills the
/// earlier live members it dominates. `dominates(a, b)` is true when a may
/// replace b. Buckets never interact.
template <typename T, typename SigFn, typename DominatesFn>
void pareto_prune(std::vector<T>& items, SigFn sig, DominatesFn dominates,
                  PruneScratch& sc) {
  const size_t n = items.size();
  sc.buckets.begin(n);
  sc.prev.assign(n, -1);
  sc.dead.assign(n, 0);
  sc.last.clear();
  for (size_t i = 0; i < n; ++i) {
    bool inserted = false;
    const uint32_t b = sc.buckets.id_of(
        sig(items[i]), static_cast<uint32_t>(sc.last.size()), &inserted);
    if (inserted) sc.last.push_back(-1);
    sc.prev[i] = sc.last[b];
    sc.last[b] = static_cast<int32_t>(i);
  }
  for (size_t i = 0; i < n; ++i) {
    bool drop = false;
    for (int32_t j = sc.prev[i]; j >= 0; j = sc.prev[j]) {
      if (!sc.dead[j] && dominates(items[j], items[i])) {
        drop = true;
        break;
      }
    }
    if (drop) {
      sc.dead[i] = 1;
      continue;
    }
    for (int32_t j = sc.prev[i]; j >= 0; j = sc.prev[j])
      if (!sc.dead[j] && dominates(items[i], items[j])) sc.dead[j] = 1;
  }
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!sc.dead[i]) {
      if (w != i) items[w] = std::move(items[i]);
      ++w;
    }
  }
  items.resize(w);
}

/// Sources of a phase: (net, rise?, arrival, slope) tuples.
struct Source {
  NetId net;
  bool rise;
  double arrival;
  double slope;
};

std::vector<Source> phase_sources(const Netlist& nl, Phase phase) {
  std::vector<Source> sources;
  for (const auto& p : nl.inputs()) {
    const double arr = phase == Phase::kEvaluate ? p.arrival_ps : 0.0;
    sources.push_back(Source{p.net, true, arr, p.slope_ps});
    sources.push_back(Source{p.net, false, arr, p.slope_ps});
  }
  for (size_t n = 0; n < nl.net_count(); ++n) {
    if (nl.net(static_cast<NetId>(n)).kind != netlist::NetKind::kClock)
      continue;
    sources.push_back(Source{static_cast<NetId>(n),
                             phase == Phase::kEvaluate, 0.0, -1.0});
  }
  return sources;
}

/// Source attributes (edge, phase, arrival, slope) distinguish classes at
/// every granularity.
uint64_t source_hash(const Source& src, Phase phase) {
  Hash h;
  h.mix(static_cast<uint64_t>(src.rise));
  h.mix(static_cast<uint64_t>(phase));
  h.mix_double(src.arrival);
  h.mix_double(src.slope);
  return h.h;
}

/// Index of a phase in per-phase arrays.
size_t phase_index(Phase phase) {
  return phase == Phase::kEvaluate ? 0 : 1;
}

/// Key of a (net, edge) node.
uint32_t node_key(NetId net, bool rise) {
  return static_cast<uint32_t>(net) * 2 + (rise ? 1u : 0u);
}

/// Calls `fn(arc_index, arc, edge_map, child)` for every edge-annotated
/// successor `child` of the (net, edge) node `node` in `phase`, in arc
/// order. `maps` is caller scratch.
template <typename Fn>
void for_each_successor(const Netlist& nl, Phase phase, uint32_t node,
                        std::vector<EdgeMap>& maps, Fn fn) {
  const auto& arcs = nl.arcs_from(static_cast<NetId>(node / 2));
  const bool rise = (node & 1u) != 0;
  for (size_t ai = 0; ai < arcs.size(); ++ai) {
    netlist::arc_edge_maps(nl, arcs[ai], phase, maps);
    for (const EdgeMap& em : maps)
      if (em.in_rise == rise)
        fn(ai, arcs[ai], em, node_key(arcs[ai].to, em.out_rise));
  }
}

/// Children-first order of the nodes of an acyclic graph reachable from
/// `roots`: every node follows all of its successors, so a DP over the
/// order only reads finished children. `succ(node, out)` appends the
/// successors of `node` to `out`.
template <typename SuccFn>
std::vector<uint32_t> post_order(size_t n_nodes,
                                 const std::vector<uint32_t>& roots,
                                 SuccFn succ) {
  std::vector<uint8_t> state(n_nodes, 0);  // 0 new, 1 open, 2 done
  std::vector<uint32_t> order;
  std::vector<uint32_t> stack;
  std::vector<uint32_t> kids;
  for (const uint32_t root : roots) {
    if (state[root] != 0) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const uint32_t n = stack.back();
      if (state[n] == 0) {
        state[n] = 1;
        kids.clear();
        succ(n, kids);
        for (uint32_t k : kids)
          if (state[k] == 0) stack.push_back(k);
      } else {
        if (state[n] == 1) {
          state[n] = 2;
          order.push_back(n);
        }
        stack.pop_back();
      }
    }
  }
  return order;
}

/// Children-first order of the (net, edge) nodes a phase's sources reach.
std::vector<uint32_t> phase_order(const Netlist& nl, Phase phase,
                                  const std::vector<Source>& sources) {
  std::vector<uint32_t> roots;
  roots.reserve(sources.size());
  for (const Source& src : sources)
    roots.push_back(node_key(src.net, src.rise));
  std::vector<EdgeMap> maps;
  return post_order(nl.net_count() * 2, roots,
                    [&](uint32_t node, std::vector<uint32_t>& out) {
                      for_each_successor(
                          nl, phase, node, maps,
                          [&](size_t, const Arc&, const EdgeMap&,
                              uint32_t child) { out.push_back(child); });
                    });
}

std::vector<uint8_t> output_mask(const Netlist& nl) {
  std::vector<uint8_t> is_output(nl.net_count(), 0);
  for (const auto& p : nl.outputs()) is_output[static_cast<size_t>(p.net)] = 1;
  return is_output;
}

constexpr uint64_t kTerminalSeed = 0x7e34a1ULL;

/// Nodes built between two deadline polls of Extractor::build.
constexpr size_t kDeadlinePollNodes = 64;

class Extractor {
 public:
  Extractor(const Netlist& nl, const PruneOptions& opt) : nl_(nl), opt_(opt) {
    Hash th;
    th.mix(kTerminalSeed);
    terminal_sig_ = th.h;
    const size_t n_comps = nl.comp_count();
    comp_sigs_.resize(n_comps);
    comp_label_sigs_.resize(n_comps);
    comp_depth_.resize(n_comps);
    for (size_t c = 0; c < n_comps; ++c) {
      const Component& comp = nl_.comp(static_cast<int>(c));
      comp_sigs_[c] = component_signature(comp);
      comp_label_sigs_[c] = component_label_signature(comp);
      comp_depth_[c] = component_depth(comp);
    }
    // Pin depths per (net, arc) slot, so the build never re-walks a
    // component stack.
    pin_depth_.resize(nl.net_count());
    for (size_t n = 0; n < nl.net_count(); ++n) {
      const auto& arcs = nl_.arcs_from(static_cast<NetId>(n));
      auto& depths = pin_depth_[n];
      depths.resize(arcs.size());
      for (size_t ai = 0; ai < arcs.size(); ++ai)
        depths[ai] = pin_depth_of(nl_.comp(arcs[ai].comp), arcs[ai].from);
    }
    output_load_.assign(nl.net_count(), -1.0);
    for (const auto& p : nl.outputs())
      output_load_[static_cast<size_t>(p.net)] = p.load_ff;
  }

  /// Builds the suffix-class memo of a phase bottom-up over the subgraph
  /// reachable from the phase's sources: a node only reads its children's
  /// finished slots and writes its own.
  void build(Phase phase, const std::vector<Source>& sources) {
    auto& memo = memo_[phase_index(phase)];
    if (!memo.empty()) return;
    memo.assign(nl_.net_count() * 2, {});
    auto& order = order_[phase_index(phase)];
    order = phase_order(nl_, phase, sources);
    BuildScratch& sc = scratch();
    for (size_t i = 0; i < order.size(); ++i) {
      // A served request with an exhausted budget must stop extracting,
      // not finish the build.
      if (i % kDeadlinePollNodes == 0 &&
          util::deadline_expired(opt_.deadline))
        throw util::TimeoutError("path extraction deadline exceeded (build)");
      build_node(phase, order[i], sc);
    }
  }

  const std::vector<Suffix>& classes(Phase phase, uint32_t node) const {
    return memo_[phase_index(phase)][node];
  }

  const Suffix* suffix_at(Phase phase, uint32_t node, size_t index) const {
    return &memo_[phase_index(phase)][node][index];
  }

  const Suffix* next_suffix(Phase phase, const Suffix* s) const {
    return suffix_at(phase, s->child_node,
                     static_cast<size_t>(s->child_index));
  }

  /// Stepwise domination, the one test behind the node-level precedence
  /// prune and both global prune stages (paper §5.2: "compare the fanout
  /// space of two nodes when determining the dominance relationship"):
  /// class `a` of phase `pa` may replace class `b` of phase `pb` only when
  /// a is at least as slow at *every* step — deeper stack, deeper pin, and
  /// at least as much fanout — so dropping b cannot lose the binding
  /// constraint. The summed aggregates give an exact O(1) pre-filter
  /// (per-step >= implies summed >=).
  bool dominates(Phase pa, const Suffix& a, Phase pb, const Suffix& b) const {
    if (a.len != b.len) return false;
    if (a.sum_depth < b.sum_depth || a.sum_fanout < b.sum_fanout)
      return false;
    const Suffix* sa = &a;
    const Suffix* sb = &b;
    while (sa->len > 0) {
      if (sa->step.comp_depth < sb->step.comp_depth ||
          sa->step.pin_depth < sb->step.pin_depth ||
          sa->step.fanout < sb->step.fanout)
        return false;
      sa = next_suffix(pa, sa);
      sb = next_suffix(pb, sb);
    }
    return true;
  }

  /// Appends the chained steps of class (node, index) to `out`.
  void materialize(Phase phase, uint32_t node, size_t index,
                   std::vector<PathStep>* out) const {
    const Suffix* s = suffix_at(phase, node, index);
    out->reserve(out->size() + static_cast<size_t>(s->len));
    while (s->len > 0) {
      out->push_back(s->step);
      s = next_suffix(phase, s);
    }
  }

  /// Chain fold of the dominance-granularity (`no_fan`) signature; only
  /// evaluated for surviving candidates when precedence pruning is off.
  uint64_t chain_no_fan_sig(Phase phase, uint32_t node, size_t index) const {
    std::vector<const PathStep*> chain;
    const Suffix* s = suffix_at(phase, node, index);
    chain.reserve(static_cast<size_t>(s->len));
    while (s->len > 0) {
      chain.push_back(&s->step);
      s = next_suffix(phase, s);
    }
    uint64_t sig = terminal_sig_;
    for (size_t i = chain.size(); i-- > 0;)
      sig = extend(sig, step_sigs(*chain[i]).no_fan);
    return sig;
  }

  /// The paper's after-regularity count: distinct (source, regularity
  /// class) pairs of the *unpruned* suffix-class universe of the built
  /// `phases`. Node-level precedence pruning keeps most of those classes
  /// from ever being stored, so this count-only pass walks build()'s
  /// post-order again but keeps only each class's regularity signature,
  /// with the same per-node dedup and cap. Like candidate collection, it
  /// dedups the (source, class) digests within a phase. `seen` is caller
  /// scratch.
  size_t count_regularity_classes(const std::vector<Phase>& phases,
                                  DedupTable& seen) {
    BuildScratch& sc = scratch();
    size_t count = 0;
    for (const Phase phase : phases) {
      std::vector<std::vector<uint64_t>> sigs(nl_.net_count() * 2);
      for (const uint32_t node : order_[phase_index(phase)]) {
        const size_t bound = live_steps(phase, node, sigs, sc);
        if (bound == 0) continue;
        sc.dedup.begin(bound);
        auto& own = sigs[node];
        own.reserve(std::min(bound, kMaxClassesPerNode));
        auto add = [&](uint64_t sig) {
          if (!sc.dedup.insert(sig)) return;
          if (own.size() >= kMaxClassesPerNode) {
            overflowed_ = true;
            return;
          }
          own.push_back(sig);
        };
        if (is_output_node(node)) add(terminal_sig_);
        for (const LiveStep& ls : sc.steps) {
          const size_t comp = static_cast<size_t>(ls.step.arc.comp);
          const uint64_t step =
              reg_of(step_base(ls.step, comp_sigs_[comp]), ls.step);
          for (const uint64_t csig : sigs[ls.child]) add(extend(csig, step));
        }
      }
      const std::vector<Source> sources = phase_sources(nl_, phase);
      size_t total = 0;
      for (const Source& src : sources)
        total += sigs[node_key(src.net, src.rise)].size();
      seen.begin(total);
      for (const Source& src : sources) {
        const uint64_t sh = source_hash(src, phase);
        const uint32_t node = node_key(src.net, src.rise);
        const auto& own = sigs[node];
        // Skip the terminal (length-0) class, as candidate collection does.
        for (size_t k = is_output_node(node) ? 1 : 0; k < own.size(); ++k)
          if (seen.insert(util::mix64(own[k], sh))) ++count;
      }
    }
    return count;
  }

  bool overflowed() const { return overflowed_; }
  long class_attempts() const { return attempts_; }
  long classes_stored() const { return stored_; }

 private:
  /// A step from a node to a successor whose memo slot is non-empty.
  struct LiveStep {
    PathStep step;
    uint32_t child;
  };
  /// Per-thread scratch reused across the nodes of a build and across
  /// extractions: the dedup tables and buffers are generation-cleared /
  /// assigned at each use, so retained capacity cannot affect results — it
  /// only avoids reallocating multi-hundred-KB tables per build.
  struct BuildScratch {
    std::vector<EdgeMap> maps;
    std::vector<LiveStep> steps;  ///< one node's live steps
    DedupTable dedup;  ///< reg-sig dedup of one node's classes
    PruneScratch prune;  ///< node-level precedence prune
  };
  static BuildScratch& scratch() {
    static thread_local BuildScratch sc;
    return sc;
  }

  bool is_output_node(uint32_t node) const {
    return output_load_[static_cast<size_t>(node / 2)] >= 0.0;
  }

  /// Fills sc.steps with the steps from `node` whose child slot in `memo`
  /// is non-empty, in successor order, and returns the exact bound on the
  /// node's class attempts: one terminal class plus one attempt per
  /// (step, child class) pair.
  template <typename Memo>
  size_t live_steps(Phase phase, uint32_t node, const Memo& memo,
                    BuildScratch& sc) const {
    sc.steps.clear();
    size_t bound = is_output_node(node) ? 1 : 0;
    for_each_successor(
        nl_, phase, node, sc.maps,
        [&](size_t ai, const Arc& a, const EdgeMap& em, uint32_t child) {
          if (memo[child].empty()) return;
          bound += memo[child].size();
          const PathStep step{
              .arc = a,
              .in_rise = em.in_rise,
              .out_rise = em.out_rise,
              .pin_depth = pin_depth_[node / 2][ai],
              .comp_depth = comp_depth_[static_cast<size_t>(a.comp)],
              .fanout = static_cast<int>(nl_.arcs_from(a.to).size())};
          sc.steps.push_back(LiveStep{step, child});
        });
    return bound;
  }

  /// A step's digest over component signature `comp_sig`: arc kind,
  /// edges, port load and, without regularity, the net identities.
  Hash step_base(const PathStep& step, uint64_t comp_sig) const {
    Hash h;
    h.mix(comp_sig);
    h.mix(static_cast<uint64_t>(step.arc.kind) + 17);
    h.mix(static_cast<uint64_t>(step.in_rise) * 2 +
          static_cast<uint64_t>(step.out_rise));
    const double load = output_load_[static_cast<size_t>(step.arc.to)];
    if (load >= 0.0) h.mix_double(load);  // port loads differentiate
    if (!opt_.regularity) {
      // Without regularity every net identity is distinct: no collapsing.
      h.mix(static_cast<uint64_t>(step.arc.from) + 0x9e3779b9ULL);
      h.mix(static_cast<uint64_t>(step.arc.to) + 0x85ebca6bULL);
    }
    return h;
  }

  /// The regularity signature: the full-structure base plus pin depth and
  /// fanout.
  static uint64_t reg_of(Hash fine, const PathStep& step) {
    fine.mix(static_cast<uint64_t>(step.pin_depth) + 29);
    fine.mix(static_cast<uint64_t>(step.fanout) + 31);
    return fine.h;
  }

  StepSigs step_sigs(const PathStep& step) const {
    // Full-structure base: exact stack shape + labels (regularity level).
    const Hash fine =
        step_base(step, comp_sigs_[static_cast<size_t>(step.arc.comp)]);
    // Labels-only base: worst-case node model level (precedence/dominance).
    const Hash label_base =
        step_base(step, comp_label_sigs_[static_cast<size_t>(step.arc.comp)]);
    StepSigs s;
    s.reg = reg_of(fine, step);
    Hash h_nd = label_base;
    h_nd.mix(static_cast<uint64_t>(step.fanout) + 31);
    s.no_depth = h_nd.h;
    Hash h_nf = fine;
    h_nf.mix(static_cast<uint64_t>(step.pin_depth) + 29);
    s.no_fan = h_nf.h;
    s.coarse = label_base.h;
    return s;
  }

  /// Computes the suffix classes of one (net, edge) node. Children are
  /// finished (earlier in the post-order); only this node's slot is written.
  void build_node(Phase phase, uint32_t node, BuildScratch& sc) {
    auto& memo = memo_[phase_index(phase)];
    auto& classes = memo[node];
    // Size the dedup table and the class vector in one shot.
    const size_t bound = live_steps(phase, node, memo, sc);
    if (bound == 0) return;
    sc.dedup.begin(bound);
    classes.reserve(std::min(bound, kMaxClassesPerNode));

    auto add_class = [&](Suffix&& s) {
      ++attempts_;
      if (sc.dedup.insert(s.sigs.reg)) {
        if (classes.size() >= kMaxClassesPerNode) {
          overflowed_ = true;
          return;
        }
        classes.push_back(std::move(s));
      }
    };

    if (is_output_node(node)) {
      Suffix terminal;
      terminal.sigs = ChainSigs{terminal_sig_, terminal_sig_, terminal_sig_};
      add_class(std::move(terminal));
    }

    for (const LiveStep& ls : sc.steps) {
      const auto& child = memo[ls.child];
      const StepSigs ssig = step_sigs(ls.step);
      const long depth_add = ls.step.pin_depth + 16L * ls.step.comp_depth;
      for (size_t ci = 0; ci < child.size(); ++ci) {
        const Suffix& cs = child[ci];
        Suffix s;
        s.sigs = ChainSigs{extend(cs.sigs.reg, ssig.reg),
                           extend(cs.sigs.no_depth, ssig.no_depth),
                           extend(cs.sigs.coarse, ssig.coarse)};
        s.step = ls.step;
        s.child_node = ls.child;
        s.child_index = static_cast<int32_t>(ci);
        s.len = cs.len + 1;
        s.sum_depth = cs.sum_depth + depth_add;
        s.sum_fanout = cs.sum_fanout + ls.step.fanout;
        add_class(std::move(s));
      }
    }
    stored_ += static_cast<long>(classes.size());
    // Node-level precedence prune: collapse this node's classes to the
    // per-bucket (no-depth signature) Pareto fronts before any parent
    // extends them. Sound because stepwise domination is transitive and
    // preserved under prefix extension — a class dominated here would have
    // produced only globally-dominated candidates — so the global stages
    // see exactly the same survivors while the per-node class lists (and
    // every downstream stage) stay near the final-front size instead of
    // the full regularity universe.
    if (opt_.precedence && classes.size() > 1)
      pareto_prune(
          classes, [](const Suffix& c) { return c.sigs.no_depth; },
          [&](const Suffix& a, const Suffix& b) {
            return dominates(phase, a, phase, b);
          },
          sc.prune);
  }

  const Netlist& nl_;
  const PruneOptions& opt_;
  uint64_t terminal_sig_ = 0;
  std::vector<uint64_t> comp_sigs_;
  std::vector<uint64_t> comp_label_sigs_;
  std::vector<int> comp_depth_;
  std::vector<std::vector<int>> pin_depth_;
  std::vector<double> output_load_;
  std::vector<std::vector<Suffix>> memo_[2];  ///< per phase, per node
  std::vector<uint32_t> order_[2];  ///< build()'s post-order per phase
  bool overflowed_ = false;
  long attempts_ = 0;
  long stored_ = 0;
};

}  // namespace

int Path::domino_stages() const {
  int n = 0;
  for (const auto& s : steps)
    if (s.arc.kind == ArcKind::kDominoEval ||
        s.arc.kind == ArcKind::kDominoClkEval)
      ++n;
  return n;
}

std::vector<Path> PathExtractor::extract(const PruneOptions& opt,
                                         PathStats* stats) const {
  SMART_CHECK(nl_->finalized(), "netlist must be finalized");
  obs::Span span("timing.extract");
  auto& tel = obs::Telemetry::instance();
  // With tracing on, the §5.2 statistics are always collected so the
  // per-stage reduction factors land in the metrics export even when the
  // caller did not ask for them.
  PathStats local_stats;
  if (stats == nullptr && tel.enabled()) stats = &local_stats;
  std::optional<obs::Span> prep_span;
  if (tel.enabled()) prep_span.emplace("timing.extract.prepare");
  Extractor ex(*nl_, opt);
  prep_span.reset();

  // Stage 1: regularity classes (always computed; with regularity disabled
  // the signatures include net identities, so nothing collapses). A
  // candidate is pure metadata — a (source, suffix class) reference plus
  // its prune signatures; Path objects with step vectors exist only for
  // the final survivors.
  struct Candidate {
    uint64_t no_depth_sig;
    uint64_t coarse_sig;
    uint32_t node;  ///< suffix-class reference
    uint32_t cls;
    uint32_t source;  ///< index into the phase's source list
    Phase phase;
  };
  std::vector<Candidate> candidates;
  std::vector<Source> sources_by_phase[2];
  auto source_of = [&](const Candidate& c) -> const Source& {
    return sources_by_phase[phase_index(c.phase)][c.source];
  };
  // Reused across extract() calls on this thread; begin() generation-clears
  // the tables, so retained capacity only saves repeated large allocations.
  static thread_local DedupTable seen;
  static thread_local PruneScratch prune_scratch;
  // The precharge phase only exists for dynamic logic.
  std::vector<Phase> phases = {Phase::kEvaluate};
  for (const auto& comp : nl_->comps())
    if (comp.as_domino() != nullptr) {
      phases.push_back(Phase::kPrecharge);
      break;
    }
  for (const Phase phase : phases) {
    if (util::deadline_expired(opt.deadline))
      throw util::TimeoutError("path extraction deadline exceeded (phase)");
    auto& sources = sources_by_phase[phase_index(phase)];
    sources = phase_sources(*nl_, phase);
    {
      obs::Span build_span("timing.extract.build");
      ex.build(phase, sources);
    }
    obs::Span collect_span("timing.extract.collect");
    size_t total = 0;
    for (const Source& src : sources)
      total += ex.classes(phase, node_key(src.net, src.rise)).size();
    candidates.reserve(candidates.size() + total);
    // A candidate's digest mixes in the source hash, which mixes in the
    // phase, so the phases never share a candidate: dedup within a phase.
    seen.begin(total);
    for (size_t si = 0; si < sources.size(); ++si) {
      const Source& src = sources[si];
      const uint64_t sh = source_hash(src, phase);
      const uint32_t node = node_key(src.net, src.rise);
      const auto& classes = ex.classes(phase, node);
      for (size_t ci = 0; ci < classes.size(); ++ci) {
        const Suffix& s = classes[ci];
        if (s.len == 0) continue;  // input wired straight to output
        if (!seen.insert(util::mix64(s.sigs.reg, sh))) continue;
        candidates.push_back(Candidate{
            util::mix64(s.sigs.no_depth, sh), util::mix64(s.sigs.coarse, sh),
            node, static_cast<uint32_t>(ci), static_cast<uint32_t>(si),
            phase});
      }
    }
  }

  if (stats) {
    obs::Span stats_span("timing.extract.stats");
    stats->raw_topological = count_topological_paths();
    stats->raw_edge_paths = 0.0;
    for (const Phase phase : phases)
      stats->raw_edge_paths += count_edge_paths(phase);
    // Without node-level precedence pruning the class memo is the whole
    // regularity universe, and the candidates are its (source, class)
    // pairs.
    stats->after_regularity = opt.precedence
                                  ? ex.count_regularity_classes(phases, seen)
                                  : candidates.size();
  }
  if (ex.overflowed())
    util::log_warn("path extraction hit the per-node class cap; "
                   "constraint set is a subset");

  auto dominates = [&ex](const Candidate& a, const Candidate& b) {
    return ex.dominates(a.phase, *ex.suffix_at(a.phase, a.node, a.cls),
                        b.phase, *ex.suffix_at(b.phase, b.node, b.cls));
  };
  // One prune stage: the Pareto front of each bucket of candidates with
  // equal signature, survivors in arrival order.
  auto pareto_stage = [&](uint64_t Candidate::*key) {
    if (util::deadline_expired(opt.deadline))
      throw util::TimeoutError("path pruning deadline exceeded");
    pareto_prune(
        candidates, [key](const Candidate& c) { return c.*key; }, dominates,
        prune_scratch);
  };

  // Stage 2: precedence — collapse pin classes within label-equivalent
  // structures, keeping the slow-pin Pareto front.
  if (opt.precedence) {
    obs::Span prune_span("timing.extract.prune_precedence");
    pareto_stage(&Candidate::no_depth_sig);
  }
  if (stats) stats->after_precedence = candidates.size();

  // Stage 3: dominance — collapse fanout variants, keeping the
  // heaviest-loaded Pareto front. Without a preceding precedence stage the
  // depth-preserving (`no_fan`) granularity applies; its signatures are
  // folded lazily over the surviving chains here.
  if (opt.dominance) {
    obs::Span prune_span("timing.extract.prune_dominance");
    if (!opt.precedence) {
      for (Candidate& c : candidates) {
        // Reuse the coarse slot: precedence is off, so the stored coarse
        // signature has no further consumer.
        c.coarse_sig =
            util::mix64(ex.chain_no_fan_sig(c.phase, c.node, c.cls),
                        source_hash(source_of(c), c.phase));
      }
    }
    pareto_stage(&Candidate::coarse_sig);
  }
  if (stats) stats->after_dominance = candidates.size();

  // Materialize Path objects (with exact-length step vectors) for the
  // survivors only.
  std::vector<Path> paths(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    const Source& src = source_of(c);
    Path& p = paths[i];
    p.start = src.net;
    p.start_rise = src.rise;
    p.start_arrival = src.arrival;
    p.start_slope = src.slope;
    p.phase = c.phase;
    ex.materialize(c.phase, c.node, c.cls, &p.steps);
  }
  if (stats) stats->final_paths = paths.size();

  if (stats != nullptr && tel.enabled()) {
    // Per-stage reduction factors of the three §5.2 pruning techniques.
    // Stages chain raw -> regularity -> precedence -> dominance; a disabled
    // stage passes its input through, so its factor reports as 1.
    auto ratio = [](double from, double to) {
      return to > 0.0 ? from / to : 0.0;
    };
    const double raw = stats->raw_topological;
    const double reg = static_cast<double>(stats->after_regularity);
    const double pre = static_cast<double>(stats->after_precedence);
    const double dom = static_cast<double>(stats->after_dominance);
    const double fin = static_cast<double>(stats->final_paths);
    tel.counter_add("timing.paths.raw_topological", raw);
    tel.counter_add("timing.paths.raw_edge", stats->raw_edge_paths);
    tel.counter_add("timing.paths.after_regularity", reg);
    tel.counter_add("timing.paths.after_precedence", pre);
    tel.counter_add("timing.paths.after_dominance", dom);
    tel.counter_add("timing.paths.final", fin);
    tel.gauge_set("timing.prune.regularity.reduction", ratio(raw, reg));
    tel.gauge_set("timing.prune.precedence.reduction", ratio(reg, pre));
    tel.gauge_set("timing.prune.dominance.reduction", ratio(pre, dom));
    tel.gauge_set("timing.prune.reduction", ratio(raw, fin));
    tel.counter_add("timing.extract.calls");
    tel.counter_add("timing.extract.class_attempts",
                    static_cast<double>(ex.class_attempts()));
    tel.counter_add("timing.extract.classes_stored",
                    static_cast<double>(ex.classes_stored()));
    span.arg("raw_topological", raw);
    span.arg("final_paths", fin);
  }
  return paths;
}

double PathExtractor::count_topological_paths() const {
  SMART_CHECK(nl_->finalized(), "netlist must be finalized");
  const size_t n_nets = nl_->net_count();
  // Sources: the input ports, then the clock nets, each net once.
  std::vector<uint32_t> roots;
  std::vector<uint8_t> is_root(n_nets, 0);
  auto add_root = [&](NetId n) {
    if (is_root[static_cast<size_t>(n)]) return;
    is_root[static_cast<size_t>(n)] = 1;
    roots.push_back(static_cast<uint32_t>(n));
  };
  for (const auto& p : nl_->inputs()) add_root(p.net);
  for (size_t n = 0; n < n_nets; ++n)
    if (nl_->net(static_cast<NetId>(n)).kind == netlist::NetKind::kClock)
      add_root(static_cast<NetId>(n));

  // count[n] = number of distinct net paths from n to any output port.
  const std::vector<uint8_t> is_output = output_mask(*nl_);
  std::vector<double> count(n_nets, 0.0);
  const auto order = post_order(
      n_nets, roots, [&](uint32_t n, std::vector<uint32_t>& out) {
        for (const Arc& a : nl_->arcs_from(static_cast<NetId>(n)))
          out.push_back(static_cast<uint32_t>(a.to));
      });
  for (const uint32_t n : order) {
    double c = is_output[n] ? 1.0 : 0.0;
    for (const Arc& a : nl_->arcs_from(static_cast<NetId>(n)))
      c += count[static_cast<size_t>(a.to)];
    count[n] = c;
  }

  double total = 0.0;
  for (const uint32_t r : roots) total += count[r];
  return total;
}

double PathExtractor::count_edge_paths(Phase phase) const {
  SMART_CHECK(nl_->finalized(), "netlist must be finalized");
  const std::vector<Source> sources = phase_sources(*nl_, phase);
  const std::vector<uint8_t> is_output = output_mask(*nl_);
  // count[node] = number of edge-annotated paths from node to any output.
  std::vector<double> count(nl_->net_count() * 2, 0.0);
  std::vector<EdgeMap> maps;
  for (const uint32_t node : phase_order(*nl_, phase, sources)) {
    double c = is_output[node / 2] ? 1.0 : 0.0;
    for_each_successor(
        *nl_, phase, node, maps,
        [&](size_t, const Arc&, const EdgeMap&, uint32_t child) {
          c += count[child];
        });
    count[node] = c;
  }

  double total = 0.0;
  for (const Source& src : sources) total += count[node_key(src.net, src.rise)];
  return total;
}

}  // namespace smart::timing
