#include "timing/paths.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "obs/obs.h"
#include "util/check.h"
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

// ---- 64-bit mixing over small integer streams ----
// Only digest equality is ever consulted (class dedup, prune buckets), so
// the mixers just need good avalanche; murmur-style finalization per word
// replaces the original byte-at-a-time FNV loop on the extraction hot path.

struct Hash {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  void mix(uint64_t v) {
    v *= 0xff51afd7ed558ccdULL;
    v ^= v >> 33;
    v *= 0xc4ceb9fe1a85ec53ULL;
    v ^= v >> 33;
    h = (h ^ v) * 0x2545f4914f6cdd1dULL;
    h ^= h >> 29;
  }
  void mix_double(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
};

/// Non-commutative combine of two already-mixed digests; the workhorse of
/// suffix-chain hashing (called once per stored signature per class).
inline uint64_t mix2(uint64_t x, uint64_t y) {
  uint64_t v = x ^ (y + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2));
  v *= 0xff51afd7ed558ccdULL;
  v ^= v >> 33;
  return v;
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
  /// Prepares the table for up to `expect` insertions.
  void begin(size_t expect) {
    size_t want = 16;
    while (want < expect * 2) want <<= 1;
    if (want > sigs_.size()) {
      sigs_.assign(want, 0);
      gens_.assign(want, 0);
      gen_ = 1;
    } else if (++gen_ == 0) {
      std::fill(gens_.begin(), gens_.end(), 0u);
      gen_ = 1;
    }
    mask_ = sigs_.size() - 1;
  }

  /// True when `sig` was not present (and inserts it).
  bool insert(uint64_t sig) {
    size_t i = static_cast<size_t>(sig) & mask_;
    for (;;) {
      if (gens_[i] != gen_) {
        gens_[i] = gen_;
        sigs_[i] = sig;
        return true;
      }
      if (sigs_[i] == sig) return false;
      i = (i + 1) & mask_;
    }
  }

  /// Maps `sig` to a dense id: existing id on repeat, `next_id` on first
  /// sight (and reports the insertion through `inserted`).
  uint32_t id_of(uint64_t sig, uint32_t next_id, bool* inserted) {
    size_t i = static_cast<size_t>(sig) & mask_;
    for (;;) {
      if (gens_[i] != gen_) {
        gens_[i] = gen_;
        sigs_[i] = sig;
        ids_[i] = next_id;
        *inserted = true;
        return next_id;
      }
      if (sigs_[i] == sig) {
        *inserted = false;
        return ids_[i];
      }
      i = (i + 1) & mask_;
    }
  }

  /// Enables id_of for the current generation (begin() first).
  void with_ids() {
    if (ids_.size() < sigs_.size()) ids_.resize(sigs_.size());
  }

 private:
  std::vector<uint64_t> sigs_;
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> gens_;
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
  sc.buckets.with_ids();
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

}  // namespace

int Path::domino_stages() const {
  int n = 0;
  for (const auto& s : steps)
    if (s.arc.kind == ArcKind::kDominoEval ||
        s.arc.kind == ArcKind::kDominoClkEval)
      ++n;
  return n;
}

namespace {

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

constexpr uint64_t kTerminalSeed = 0x7e34a1ULL;

/// Nodes built between two deadline polls of Extractor::build.
constexpr size_t kDeadlinePollNodes = 64;

class Extractor {
 public:
  /// `count_universe` additionally tracks, per node, the regularity
  /// signatures of the *unpruned* class universe, so PathStats can report
  /// the paper's after-regularity count even though node-level precedence
  /// pruning (below) never materializes most of those classes.
  Extractor(const Netlist& nl, const PruneOptions& opt, bool count_universe)
      : nl_(nl), opt_(opt), count_universe_(count_universe) {
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

  static uint32_t node_key(NetId net, bool rise) {
    return static_cast<uint32_t>(net) * 2 + (rise ? 1u : 0u);
  }

  /// Builds the suffix-class memo of a phase bottom-up over the subgraph
  /// reachable from the phase's sources: a node only reads its children's
  /// finished slots and writes its own.
  void build(Phase phase) {
    auto& memo = memo_of(phase);
    if (!memo.empty()) return;
    const size_t n_nodes = nl_.net_count() * 2;
    memo.assign(n_nodes, {});
    if (count_universe_) sig_memo_of(phase).assign(n_nodes, {});

    // Iterative DFS post-order from the phase sources: children precede
    // parents, bounding the build to the subgraph the sources can see.
    std::vector<uint8_t> state(n_nodes, 0);
    std::vector<uint32_t> order;
    std::vector<uint32_t> stack;
    std::vector<EdgeMap> maps;
    std::vector<uint32_t> kids;
    auto children = [&](uint32_t node, std::vector<uint32_t>& out) {
      out.clear();
      const NetId net = static_cast<NetId>(node / 2);
      const bool rise = (node & 1u) != 0;
      for (const Arc& a : nl_.arcs_from(net)) {
        bool footed = true;
        if (const auto* dg = nl_.comp(a.comp).as_domino())
          footed = dg->evaluate_label >= 0;
        netlist::arc_edge_maps(a.kind, phase, footed, maps);
        for (const EdgeMap& em : maps) {
          if (em.in_rise != rise) continue;
          out.push_back(node_key(a.to, em.out_rise));
        }
      }
    };
    for (const Source& src : phase_sources(nl_, phase)) {
      const uint32_t root = node_key(src.net, src.rise);
      if (state[root] != 0) continue;
      stack.push_back(root);
      while (!stack.empty()) {
        const uint32_t n = stack.back();
        if (state[n] == 0) {
          state[n] = 1;
          children(n, kids);
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

    // Reused across extractions: the dedup tables and buffers are
    // generation-cleared / assigned at each use, so retained capacity
    // cannot affect results — it only avoids reallocating multi-hundred-KB
    // tables per build.
    static thread_local BuildScratch sc;
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
    return memo_of(phase)[node];
  }

  /// Regularity signatures of the unpruned universe at a node (requires
  /// count_universe). When the node is an output sink, index 0 is the
  /// terminal (length-0) class.
  const std::vector<uint64_t>& universe_sigs(Phase phase,
                                             uint32_t node) const {
    return sig_memo_of(phase)[node];
  }

  bool node_has_terminal(uint32_t node) const {
    return output_load_[static_cast<size_t>(node / 2)] >= 0.0;
  }

  const Suffix* suffix_at(Phase phase, uint32_t node, size_t index) const {
    return &memo_of(phase)[node][index];
  }

  const Suffix* next_suffix(Phase phase, const Suffix* s) const {
    return &memo_of(phase)[s->child_node][static_cast<size_t>(s->child_index)];
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
      sig = mix2(step_sigs(*chain[i]).no_fan, sig);
    return sig;
  }

  bool overflowed() const { return overflowed_; }
  long class_attempts() const { return attempts_; }
  long classes_stored() const { return stored_; }

  StepSigs step_sigs(const PathStep& step) const {
    // Full-structure base: exact stack shape + labels (regularity level).
    Hash fine;
    fine.mix(comp_sigs_[static_cast<size_t>(step.arc.comp)]);
    // Labels-only base: worst-case node model level (precedence/dominance).
    Hash label_base;
    label_base.mix(comp_label_sigs_[static_cast<size_t>(step.arc.comp)]);
    for (Hash* h : {&fine, &label_base}) {
      h->mix(static_cast<uint64_t>(step.arc.kind) + 17);
      h->mix(static_cast<uint64_t>(step.in_rise) * 2 +
             static_cast<uint64_t>(step.out_rise));
      const double load = output_load_[static_cast<size_t>(step.arc.to)];
      if (load >= 0.0) h->mix_double(load);  // port loads differentiate
      if (!opt_.regularity) {
        // Without regularity every net identity is distinct: no collapsing.
        h->mix(static_cast<uint64_t>(step.arc.from) + 0x9e3779b9ULL);
        h->mix(static_cast<uint64_t>(step.arc.to) + 0x85ebca6bULL);
      }
    }
    StepSigs s;
    Hash h_reg = fine;
    h_reg.mix(static_cast<uint64_t>(step.pin_depth) + 29);
    h_reg.mix(static_cast<uint64_t>(step.fanout) + 31);
    s.reg = h_reg.h;
    Hash h_nd = label_base;
    h_nd.mix(static_cast<uint64_t>(step.fanout) + 31);
    s.no_depth = h_nd.h;
    Hash h_nf = fine;
    h_nf.mix(static_cast<uint64_t>(step.pin_depth) + 29);
    s.no_fan = h_nf.h;
    s.coarse = label_base.h;
    return s;
  }

 private:
  /// Per-thread scratch reused across the nodes of a build.
  struct BuildScratch {
    std::vector<EdgeMap> maps;
    DedupTable dedup;        ///< reg-sig dedup of the stored classes
    DedupTable count_dedup;  ///< reg-sig dedup of the unpruned universe
    PruneScratch prune;      ///< node-level precedence prune
  };

  /// Stepwise domination of two suffix classes of the same node (see the
  /// candidate-level `dominates` in extract(): a may replace b only when a
  /// is at least as slow at every step).
  bool suffix_dominates(Phase phase, const Suffix& a, const Suffix& b) const {
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
      sa = next_suffix(phase, sa);
      sb = next_suffix(phase, sb);
    }
    return true;
  }

  /// Node-level precedence prune: collapse this node's classes to the
  /// per-bucket (no-depth signature) Pareto fronts before any parent
  /// extends them. Sound because stepwise domination is transitive and
  /// preserved under prefix extension — a class dominated here would have
  /// produced only globally-dominated candidates — so the global stages see
  /// exactly the same survivors while the per-node class lists (and every
  /// downstream stage) stay near the final-front size instead of the full
  /// regularity universe.
  void prune_node(Phase phase, std::vector<Suffix>& classes,
                  BuildScratch& sc) {
    pareto_prune(
        classes, [](const Suffix& c) { return c.sigs.no_depth; },
        [&](const Suffix& a, const Suffix& b) {
          return suffix_dominates(phase, a, b);
        },
        sc.prune);
  }

  /// Computes the suffix classes of one (net, edge) node. Children are
  /// finished (earlier in the post-order); only this node's slot is written.
  void build_node(Phase phase, uint32_t node, BuildScratch& sc) {
    auto& memo = memo_of(phase);
    auto& classes = memo[node];
    auto& maps = sc.maps;
    const NetId net = static_cast<NetId>(node / 2);
    const bool rise = (node & 1u) != 0;
    const bool is_output = output_load_[static_cast<size_t>(net)] >= 0.0;
    const auto& arcs = nl_.arcs_from(net);
    auto& sig_memo = sig_memo_of(phase);

    // Exact attempt bounds: one terminal class plus one attempt per
    // (arc, edge-map, child class) triple — size the dedup tables and the
    // class vectors in one shot.
    size_t bound = is_output ? 1 : 0;
    size_t count_bound = count_universe_ ? bound : 0;
    for (const Arc& a : arcs) {
      bool footed = true;
      if (const auto* dg = nl_.comp(a.comp).as_domino())
        footed = dg->evaluate_label >= 0;
      netlist::arc_edge_maps(a.kind, phase, footed, maps);
      for (const EdgeMap& em : maps) {
        if (em.in_rise != rise) continue;
        const uint32_t child = node_key(a.to, em.out_rise);
        bound += memo[child].size();
        if (count_universe_) count_bound += sig_memo[child].size();
      }
    }
    if (bound == 0 && count_bound == 0) return;
    sc.dedup.begin(bound);
    classes.reserve(std::min(bound, kMaxClassesPerNode));
    std::vector<uint64_t>* all_sigs = nullptr;
    if (count_universe_) {
      all_sigs = &sig_memo[node];
      sc.count_dedup.begin(count_bound);
      all_sigs->reserve(std::min(count_bound, kMaxClassesPerNode));
    }

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
    auto add_count_sig = [&](uint64_t sig) {
      if (sc.count_dedup.insert(sig)) {
        if (all_sigs->size() >= kMaxClassesPerNode) {
          overflowed_ = true;
          return;
        }
        all_sigs->push_back(sig);
      }
    };

    if (is_output) {
      Suffix terminal;
      terminal.sigs = ChainSigs{terminal_sig_, terminal_sig_, terminal_sig_};
      add_class(std::move(terminal));
      if (count_universe_) add_count_sig(terminal_sig_);
    }

    for (size_t ai = 0; ai < arcs.size(); ++ai) {
      const Arc& a = arcs[ai];
      bool footed = true;
      if (const auto* dg = nl_.comp(a.comp).as_domino())
        footed = dg->evaluate_label >= 0;
      netlist::arc_edge_maps(a.kind, phase, footed, maps);
      for (const EdgeMap& em : maps) {
        if (em.in_rise != rise) continue;
        const uint32_t child_node = node_key(a.to, em.out_rise);
        const auto& child = memo[child_node];
        PathStep step;
        step.arc = a;
        step.in_rise = em.in_rise;
        step.out_rise = em.out_rise;
        step.pin_depth = pin_depth_[static_cast<size_t>(net)][ai];
        step.comp_depth = comp_depth_[static_cast<size_t>(a.comp)];
        step.fanout = static_cast<int>(nl_.arcs_from(a.to).size());
        const StepSigs ssig = step_sigs(step);
        const long depth_add = step.pin_depth + 16L * step.comp_depth;
        for (size_t ci = 0; ci < child.size(); ++ci) {
          const Suffix& cs = child[ci];
          Suffix s;
          s.sigs = ChainSigs{mix2(ssig.reg, cs.sigs.reg),
                             mix2(ssig.no_depth, cs.sigs.no_depth),
                             mix2(ssig.coarse, cs.sigs.coarse)};
          s.step = step;
          s.child_node = child_node;
          s.child_index = static_cast<int32_t>(ci);
          s.len = cs.len + 1;
          s.sum_depth = cs.sum_depth + depth_add;
          s.sum_fanout = cs.sum_fanout + step.fanout;
          add_class(std::move(s));
        }
        if (count_universe_)
          for (const uint64_t csig : sig_memo[child_node])
            add_count_sig(mix2(ssig.reg, csig));
      }
    }
    stored_ += static_cast<long>(classes.size());
    if (opt_.precedence && classes.size() > 1)
      prune_node(phase, classes, sc);
  }

  std::vector<std::vector<Suffix>>& memo_of(Phase phase) {
    return phase == Phase::kEvaluate ? memo_eval_ : memo_pre_;
  }
  const std::vector<std::vector<Suffix>>& memo_of(Phase phase) const {
    return phase == Phase::kEvaluate ? memo_eval_ : memo_pre_;
  }
  std::vector<std::vector<uint64_t>>& sig_memo_of(Phase phase) {
    return phase == Phase::kEvaluate ? sig_memo_eval_ : sig_memo_pre_;
  }
  const std::vector<std::vector<uint64_t>>& sig_memo_of(Phase phase) const {
    return phase == Phase::kEvaluate ? sig_memo_eval_ : sig_memo_pre_;
  }

  const Netlist& nl_;
  const PruneOptions& opt_;
  bool count_universe_ = false;
  uint64_t terminal_sig_ = 0;
  std::vector<uint64_t> comp_sigs_;
  std::vector<uint64_t> comp_label_sigs_;
  std::vector<int> comp_depth_;
  std::vector<std::vector<int>> pin_depth_;
  std::vector<double> output_load_;
  std::vector<std::vector<Suffix>> memo_eval_;
  std::vector<std::vector<Suffix>> memo_pre_;
  std::vector<std::vector<uint64_t>> sig_memo_eval_;
  std::vector<std::vector<uint64_t>> sig_memo_pre_;
  bool overflowed_ = false;
  long attempts_ = 0;
  long stored_ = 0;
};

}  // namespace

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
  // Node-level precedence pruning collapses the class memo as it builds, so
  // the regularity-universe size must be tracked on the side when stats ask
  // for it.
  const bool count_universe = stats != nullptr && opt.precedence;
  std::optional<obs::Span> prep_span;
  if (tel.enabled()) prep_span.emplace("timing.extract.prepare");
  Extractor ex(*nl_, opt, count_universe);
  prep_span.reset();

  // Stage 1: regularity classes (always computed; with regularity disabled
  // the signatures include net identities, so nothing collapses). A
  // candidate is pure metadata — a (source, suffix class) reference plus
  // its prune signatures; Path objects with step vectors exist only for
  // the final survivors.
  struct Candidate {
    uint64_t no_depth_sig;
    uint64_t coarse_sig;
    long sum_depth;
    long sum_fanout;
    uint32_t node;  ///< suffix-class reference
    uint32_t cls;
    int32_t len;
    uint32_t source;  ///< index into the phase's source list
    Phase phase;
  };
  std::vector<Candidate> candidates;
  std::vector<Source> sources_by_phase[2];
  auto src_hash = [&](const Source& src, Phase phase) {
    Hash src_h;
    src_h.mix(static_cast<uint64_t>(src.rise));
    src_h.mix(static_cast<uint64_t>(phase));
    src_h.mix_double(src.arrival);
    src_h.mix_double(src.slope);
    return src_h.h;
  };
  // Reused across extract() calls on this thread; begin() generation-clears
  // the tables, so retained capacity only saves repeated large allocations.
  static thread_local DedupTable seen;
  static thread_local PruneScratch prune_scratch;
  bool has_domino = false;
  for (const auto& comp : nl_->comps())
    if (comp.as_domino() != nullptr) has_domino = true;
  for (Phase phase : {Phase::kEvaluate, Phase::kPrecharge}) {
    // The precharge phase only exists for dynamic logic.
    if (phase == Phase::kPrecharge && !has_domino) continue;
    if (util::deadline_expired(opt.deadline))
      throw util::TimeoutError("path extraction deadline exceeded (phase)");
    {
      obs::Span build_span("timing.extract.build");
      ex.build(phase);
    }
    obs::Span collect_span("timing.extract.collect");
    const size_t phase_idx = phase == Phase::kEvaluate ? 0 : 1;
    sources_by_phase[phase_idx] = phase_sources(*nl_, phase);
    const auto& sources = sources_by_phase[phase_idx];
    size_t total = 0;
    for (const Source& src : sources)
      total += ex.classes(phase, Extractor::node_key(src.net, src.rise)).size();
    candidates.reserve(candidates.size() + total);
    seen.begin(candidates.size() + total);
    // Re-seed the dedup set with earlier phases' winners (begin() clears).
    for (const auto& c : candidates) {
      const auto& src =
          sources_by_phase[c.phase == Phase::kEvaluate ? 0 : 1][c.source];
      seen.insert(mix2(ex.suffix_at(c.phase, c.node, c.cls)->sigs.reg,
                       src_hash(src, c.phase)));
    }
    for (size_t si = 0; si < sources.size(); ++si) {
      const Source& src = sources[si];
      // Source attributes (edge, phase, arrival, slope) distinguish
      // classes at every granularity.
      const uint64_t sh = src_hash(src, phase);
      const uint32_t node = Extractor::node_key(src.net, src.rise);
      const auto& classes = ex.classes(phase, node);
      for (size_t ci = 0; ci < classes.size(); ++ci) {
        const Suffix& s = classes[ci];
        if (s.len == 0) continue;  // input wired straight to output
        if (!seen.insert(mix2(s.sigs.reg, sh))) continue;
        candidates.push_back(Candidate{
            mix2(s.sigs.no_depth, sh), mix2(s.sigs.coarse, sh), s.sum_depth,
            s.sum_fanout, node, static_cast<uint32_t>(ci), s.len,
            static_cast<uint32_t>(si), phase});
      }
    }
  }
  if (ex.overflowed())
    util::log_warn("path extraction hit the per-node class cap; "
                   "constraint set is a subset");

  if (stats) {
    obs::Span stats_span("timing.extract.stats");
    stats->raw_topological = count_topological_paths();
    stats->raw_edge_paths =
        count_edge_paths(Phase::kEvaluate) +
        (has_domino ? count_edge_paths(Phase::kPrecharge) : 0.0);
    if (count_universe) {
      // Distinct (source, regularity class) pairs of the unpruned universe:
      // the same dedup candidate collection applies, replayed over the
      // side-tracked signature memo. A set's size is insertion-order
      // independent, so one pass over both phases matches the per-phase
      // collection above.
      size_t total = 0;
      for (Phase phase : {Phase::kEvaluate, Phase::kPrecharge}) {
        const auto& sources =
            sources_by_phase[phase == Phase::kEvaluate ? 0 : 1];
        for (const Source& src : sources)
          total += ex.universe_sigs(phase,
                                    Extractor::node_key(src.net, src.rise))
                       .size();
      }
      seen.begin(total);
      size_t reg_count = 0;
      for (Phase phase : {Phase::kEvaluate, Phase::kPrecharge}) {
        const size_t phase_idx = phase == Phase::kEvaluate ? 0 : 1;
        for (const Source& src : sources_by_phase[phase_idx]) {
          const uint64_t sh = src_hash(src, phase);
          const uint32_t node = Extractor::node_key(src.net, src.rise);
          const auto& sigs = ex.universe_sigs(phase, node);
          // Skip the terminal (length-0) class, as candidate collection does.
          const size_t k0 = ex.node_has_terminal(node) ? 1 : 0;
          for (size_t k = k0; k < sigs.size(); ++k)
            if (seen.insert(mix2(sigs[k], sh))) ++reg_count;
        }
      }
      stats->after_regularity = reg_count;
    } else {
      stats->after_regularity = candidates.size();
    }
  }

  // Pairwise domination (paper §5.2: "compare the fanout space of two
  // nodes when determining the dominance relationship"): path A may replace
  // path B only when A is at least as slow at *every* step — deeper stack,
  // deeper pin, and at least as much fanout — so dropping B cannot lose
  // the binding constraint. Walks the suffix chains directly; the summed
  // aggregates give an exact O(1) pre-filter (per-step >= implies
  // summed >=).
  auto dominates = [&ex](const Candidate& a, const Candidate& b) {
    if (a.len != b.len) return false;
    if (a.sum_depth < b.sum_depth || a.sum_fanout < b.sum_fanout)
      return false;
    const Suffix* sa = ex.suffix_at(a.phase, a.node, a.cls);
    const Suffix* sb = ex.suffix_at(b.phase, b.node, b.cls);
    while (sa->len > 0) {
      if (sa->step.comp_depth < sb->step.comp_depth ||
          sa->step.pin_depth < sb->step.pin_depth ||
          sa->step.fanout < sb->step.fanout)
        return false;
      sa = ex.next_suffix(a.phase, sa);
      sb = ex.next_suffix(b.phase, sb);
    }
    return true;
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
        const auto& src =
            sources_by_phase[c.phase == Phase::kEvaluate ? 0 : 1][c.source];
        // Reuse the coarse slot: precedence is off, so the stored coarse
        // signature has no further consumer.
        c.coarse_sig = mix2(ex.chain_no_fan_sig(c.phase, c.node, c.cls),
                            src_hash(src, c.phase));
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
    const auto& src =
        sources_by_phase[c.phase == Phase::kEvaluate ? 0 : 1][c.source];
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
    tel.gauge_set("timing.paths.raw_topological", raw);
    tel.gauge_set("timing.paths.raw_edge", stats->raw_edge_paths);
    tel.gauge_set("timing.paths.after_regularity", reg);
    tel.gauge_set("timing.paths.after_precedence", pre);
    tel.gauge_set("timing.paths.after_dominance", dom);
    tel.gauge_set("timing.paths.final", fin);
    tel.gauge_set("timing.prune.regularity.reduction", ratio(raw, reg));
    tel.gauge_set("timing.prune.precedence.reduction", ratio(reg, pre));
    tel.gauge_set("timing.prune.dominance.reduction", ratio(pre, dom));
    tel.gauge_set("timing.prune.reduction", ratio(raw, fin));
    tel.counter_add("timing.extract.calls");
    tel.gauge_set("timing.extract.class_attempts",
                  static_cast<double>(ex.class_attempts()));
    tel.gauge_set("timing.extract.classes_stored",
                  static_cast<double>(ex.classes_stored()));
    span.arg("raw_topological", raw);
    span.arg("final_paths", fin);
  }
  return paths;
}

double PathExtractor::count_topological_paths() const {
  SMART_CHECK(nl_->finalized(), "netlist must be finalized");
  const size_t n_nets = nl_->net_count();
  // count[n] = number of distinct net paths from n to any output port,
  // computed in reverse topological order via memoized recursion.
  std::vector<double> count(n_nets, -1.0);
  std::vector<bool> is_output(n_nets, false);
  for (const auto& p : nl_->outputs())
    is_output[static_cast<size_t>(p.net)] = true;

  // Iterative DFS-based memoization (netlist is a DAG).
  std::vector<int> state(n_nets, 0);
  std::vector<NetId> order;
  std::vector<NetId> stack;
  for (size_t s = 0; s < n_nets; ++s) {
    if (state[s] != 0) continue;
    stack.push_back(static_cast<NetId>(s));
    while (!stack.empty()) {
      const NetId n = stack.back();
      if (state[static_cast<size_t>(n)] == 0) {
        state[static_cast<size_t>(n)] = 1;
        for (const Arc& a : nl_->arcs_from(n))
          if (state[static_cast<size_t>(a.to)] == 0) stack.push_back(a.to);
      } else {
        if (state[static_cast<size_t>(n)] == 1) {
          state[static_cast<size_t>(n)] = 2;
          order.push_back(n);
        }
        stack.pop_back();
      }
    }
  }
  for (const NetId n : order) {
    double c = is_output[static_cast<size_t>(n)] ? 1.0 : 0.0;
    for (const Arc& a : nl_->arcs_from(n)) {
      if (count[static_cast<size_t>(a.to)] > 0.0)
        c += count[static_cast<size_t>(a.to)];
    }
    count[static_cast<size_t>(n)] = c;
  }

  double total = 0.0;
  std::vector<bool> counted(n_nets, false);
  for (const auto& p : nl_->inputs()) {
    if (counted[static_cast<size_t>(p.net)]) continue;
    counted[static_cast<size_t>(p.net)] = true;
    total += count[static_cast<size_t>(p.net)];
  }
  for (size_t n = 0; n < n_nets; ++n) {
    if (nl_->net(static_cast<NetId>(n)).kind == netlist::NetKind::kClock &&
        !counted[n])
      total += count[n];
  }
  return total;
}

double PathExtractor::count_edge_paths(Phase phase) const {
  SMART_CHECK(nl_->finalized(), "netlist must be finalized");
  const size_t n_nodes = nl_->net_count() * 2;
  std::vector<double> count(n_nodes, -1.0);
  std::vector<bool> is_output(nl_->net_count(), false);
  for (const auto& p : nl_->outputs())
    is_output[static_cast<size_t>(p.net)] = true;

  std::vector<EdgeMap> maps;
  // Memoized recursion (explicit stack) over (net, edge) nodes.
  struct Frame {
    size_t node;
    bool expanded;
  };
  std::vector<Frame> stack;
  auto children = [&](size_t node, std::vector<size_t>& out) {
    out.clear();
    const NetId net = static_cast<NetId>(node / 2);
    const bool rise = (node % 2) == 1;
    for (const Arc& a : nl_->arcs_from(net)) {
      bool footed = true;
      if (const auto* dg = nl_->comp(a.comp).as_domino())
        footed = dg->evaluate_label >= 0;
      netlist::arc_edge_maps(a.kind, phase, footed, maps);
      for (const EdgeMap& em : maps) {
        if (em.in_rise != rise) continue;
        out.push_back(static_cast<size_t>(a.to) * 2 + (em.out_rise ? 1 : 0));
      }
    }
  };
  std::vector<size_t> kids;
  for (size_t start = 0; start < n_nodes; ++start) {
    if (count[start] >= 0.0) continue;
    stack.push_back(Frame{start, false});
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      if (count[f.node] >= 0.0) continue;
      children(f.node, kids);
      if (!f.expanded) {
        stack.push_back(Frame{f.node, true});
        for (size_t k : kids)
          if (count[k] < 0.0) stack.push_back(Frame{k, false});
        continue;
      }
      double c = is_output[f.node / 2] ? 1.0 : 0.0;
      for (size_t k : kids) c += std::max(count[k], 0.0);
      count[f.node] = c;
    }
  }

  double total = 0.0;
  for (const Source& src : phase_sources(*nl_, phase)) {
    const size_t node =
        static_cast<size_t>(src.net) * 2 + (src.rise ? 1 : 0);
    total += std::max(count[node], 0.0);
  }
  return total;
}

}  // namespace smart::timing
