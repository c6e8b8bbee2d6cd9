// The layered branch-and-bound core shared by the exact solver
// (offline/optimal.cpp) and the robust interval solver
// (offline/robust_optimal.cpp). Internal to src/offline/.
//
// Both searches walk the same state space. A state is one packed uint32
// span in a per-layer arena:
//
//   [config multiset: m sorted words, black = num_colors]
//   [per color: bucket count L, then L buckets (rel, n_0, ..., n_{S-1})]
//
// with S = kSides pending counts per bucket: S = 1 for the exact solver (the
// count), S = 2 for the robust one (the [lo, hi] envelopes of
// offline/interval_state.h). Counts are non-decreasing across sides, and a
// bucket is stored while its last side is nonzero. Every side pays the same
// reconfigurations and its own drops, so a node's accumulated cost is one
// number per side; the admissible bound prunes on side 0.
//
// Expansion. A child's section for color c depends only on the parent and
// on e, c's multiplicity in the child's config (0 <= e <= m): each side
// executes its e earliest-deadline jobs, survivors age one round (rel == 1
// drops at the color's weight), and round-(k+1) arrivals append at rel = D_c.
// The same holds for the section's drop cost per side, its heuristic leg
// (the color is in the child's config exactly when e > 0), and its hash. So
// each parent fills one TransitionTable over every (c, e) pair, and the
// configurations are enumerated as per-color multiplicities, with cost,
// heuristic and hash summed along the recursion. The reconfiguration term is
// separable too: Δ·(m − Σ_c min(e_c, parent multiplicity of c)), black
// included. A leaf runs the `g + h > incumbent` test before building
// anything; a surviving child is assembled with one copy per color and
// interned under the summed section hashes.
//
// Hashes. The intern hash only picks probe slots; every hit is confirmed by
// memcmp. It is the mixed sum of the child's per-(c, e) section hashes, a
// function of the child span alone, whichever parent produced it. The shard
// hash is different: HashSpan over the m config words picks which of
// kNumShards merge tables a state lands in, and the shard order is the
// canonical layer order. Parent indices, and through them the exact
// solver's reconstructed schedules, depend on that order, so it must not
// change.
//
// Determinism. Chunks expand fixed index ranges into private stores; shards
// merge them with an order-free reduction (Traits::Absorb), sort
// span-lexicographically and apply dominance. Layer content and order, and
// every counter, are identical for every thread count.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"
#include "offline/lower_bound.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "util/check.h"

namespace rrs {
namespace offline {
namespace search {

inline constexpr uint32_t kNoIndex = 0xffffffffu;
// Merge shards per layer. Fixed (not derived from the pool size) so the
// canonical layer order — shard by config hash, span-lexicographic inside a
// shard — is identical for every thread count.
inline constexpr uint32_t kNumShards = 32;
// Dominance is quadratic per config group; each state is checked against at
// most this many earlier groupmates, which keeps the pass linear-ish while
// still catching the dense equal-config clusters where dominance pays.
inline constexpr uint32_t kDominanceScanCap = 32;

// Leaves copy child sections in blocks of this many words; the table's
// words and the child buffer carry that much slack past their last section.
inline constexpr uint32_t kCopyBlock = 8;

inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// FNV-1a over the words with a final avalanche: the shard split uses the
// high bits, so they need mixing.
inline uint64_t HashSpan(const uint32_t* p, uint32_t n) {
  uint64_t h = 1469598103934665603ULL ^ (uint64_t{n} << 32);
  for (uint32_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

// Which of kNumShards merge tables a state with these config words joins.
inline uint32_t ShardOf(const uint32_t* config, uint32_t m) {
  return static_cast<uint32_t>(HashSpan(config, m) >> 59);
}

// The problem both searches run, in per-side form.
template <uint32_t kSides>
struct Problem {
  uint32_t m = 1;
  uint32_t num_colors = 0;
  uint64_t delta = 0;
  Round horizon = 0;
  std::vector<uint64_t> drop_cost;  // per color
  std::vector<uint32_t> delay;      // per color, D_c
  // Arrivals per side at [round * num_colors + color], rounds 0..horizon.
  std::vector<std::array<uint32_t, kSides>> arrivals;
  // Certified upper bound; children with side-0 g + h above it are pruned.
  uint64_t incumbent = ~uint64_t{0};
  uint64_t max_states = 0;
  bool prune_bound = true;
  bool prune_dominance = true;
  // Keep every layer (parent links for reconstruction).
  bool keep_history = false;
  ThreadPool* pool = nullptr;

  const std::array<uint32_t, kSides>* arrivals_at(Round k) const {
    return arrivals.data() + static_cast<size_t>(k) * num_colors;
  }
};

// Admissible completion bound of one color's section, evaluated on side 0:
// the capacity-relaxed EDF drops (the color owns all m resources,
// reconfiguration free — CapacityRelaxedDrops, Hall's condition), and for a
// color outside the config, min(drop everything, one reconfiguration +
// relaxed drops). Each color's term charges only that color's drops and a
// reconfiguration to that color, so the sum over colors never exceeds any
// completion's true remaining cost.
template <uint32_t kSides>
uint64_t SectionLeg(const uint32_t* buckets, uint32_t len, bool in_config,
                    uint32_t m, uint64_t w, uint64_t delta) {
  if (len == 0) return 0;
  constexpr size_t kStride = 1 + kSides;
  const std::span<const uint32_t> words(buckets, kStride * len);
  uint64_t leg;
  if constexpr (kSides == 1) {
    leg = CapacityRelaxedDrops(words, m) * w;
  } else {
    leg = CapacityRelaxedDropsEnvelope(words, m, /*pessimistic=*/false) * w;
  }
  if (in_config) return leg;
  uint64_t pend = 0;
  for (uint32_t i = 0; i < len; ++i) pend += buckets[kStride * i + 1];
  return std::min(pend * w, delta + leg);
}

// Heuristic of a whole packed state: the sum of its sections' legs.
template <uint32_t kSides>
uint64_t StateHeuristic(const Problem<kSides>& p, const uint32_t* span) {
  uint64_t h = 0;
  size_t pos = p.m;
  for (uint32_t c = 0; c < p.num_colors; ++c) {
    const uint32_t len = span[pos++];
    const bool in_config =
        std::find(span, span + p.m, c) != span + p.m;
    h += SectionLeg<kSides>(span + pos, len, in_config, p.m, p.drop_cost[c],
                            p.delta);
    pos += (1 + kSides) * static_cast<size_t>(len);
  }
  return h;
}

// One child section per (color, e): its words (the bucket count, then the
// buckets), the drop cost per side, the heuristic leg, and its hash.
template <uint32_t kSides>
struct Transition {
  uint64_t hash = 0;
  std::array<uint64_t, kSides> drop{};
  uint64_t leg = 0;
  uint32_t offset = 0;  // into TransitionTable::words
  uint32_t len = 0;     // section words, including the bucket count
};

// The per-parent table of every child section, indexed [c * (m + 1) + e];
// row num_colors is black, which has no section.
template <uint32_t kSides>
struct TransitionTable {
  std::vector<Transition<kSides>> entries;
  std::vector<uint32_t> words;
  uint32_t max_child_words = 0;  // m + the longest section of each color

  const Transition<kSides>& at(uint32_t c, uint32_t e, uint32_t m) const {
    return entries[static_cast<size_t>(c) * (m + 1) + e];
  }

  // `sections[c]` points at color c's parent buckets (`lens[c]` of them);
  // `max_e[c]` bounds the multiplicities to tabulate (0 for colors that
  // cannot enter the child's config). `next` are the round-(k+1) arrivals.
  void Build(const Problem<kSides>& p, const uint32_t* const* sections,
             const uint32_t* lens, const uint32_t* max_e,
             const std::array<uint32_t, kSides>* next) {
    constexpr size_t kStride = 1 + kSides;
    const uint32_t m = p.m;
    const size_t size = static_cast<size_t>(p.num_colors + 1) * (m + 1);
    if (salts.size() != size) {
      // Added to a section's word hash so the config words, which the
      // multiplicities determine, enter the child's hash too.
      salts.resize(size);
      for (size_t i = 0; i < size; ++i) salts[i] = Mix64(i + 1);
    }
    entries.resize(size);
    words.clear();
    max_child_words = m;
    for (uint32_t c = 0; c < p.num_colors; ++c) {
      const uint32_t* rle = sections[c];
      const uint32_t len = lens[c];
      const uint64_t w = p.drop_cost[c];
      uint64_t pend_last = 0;
      for (uint32_t i = 0; i < len; ++i) {
        pend_last += rle[kStride * i + kSides];
      }
      uint32_t longest = 0;
      uint64_t words_hash = 0;
      for (uint32_t e = 0; e <= max_e[c]; ++e) {
        Transition<kSides>& t = entries[static_cast<size_t>(c) * (m + 1) + e];
        if (e >= 2 && e - 1 >= pend_last) {
          // e - 1 executions already cleared every side, and both are in
          // the config: the same section as e - 1.
          t = entries[static_cast<size_t>(c) * (m + 1) + e - 1];
          t.hash = words_hash + salts[static_cast<size_t>(c) * (m + 1) + e];
          continue;
        }
        t.offset = static_cast<uint32_t>(words.size());
        t.drop.fill(0);
        words.push_back(0);
        uint32_t out_len = 0;
        std::array<uint32_t, kSides> remaining;
        remaining.fill(e);
        for (uint32_t i = 0; i < len; ++i) {
          const uint32_t* b = rle + kStride * i;
          std::array<uint32_t, kSides> n;
          for (uint32_t s = 0; s < kSides; ++s) {
            const uint32_t take = std::min(remaining[s], b[1 + s]);
            remaining[s] -= take;
            n[s] = b[1 + s] - take;
          }
          if (n[kSides - 1] == 0) continue;  // every side is empty
          if (b[0] == 1) {
            // Dropped in round k+1's drop phase, at the color's weight.
            for (uint32_t s = 0; s < kSides; ++s) t.drop[s] += n[s] * w;
            continue;
          }
          words.push_back(b[0] - 1);
          words.insert(words.end(), n.begin(), n.end());
          ++out_len;
        }
        if (next[c][kSides - 1] != 0) {
          // Arrivals join at rel = D_c, strictly above every survivor.
          words.push_back(p.delay[c]);
          words.insert(words.end(), next[c].begin(), next[c].end());
          ++out_len;
        }
        words[t.offset] = out_len;
        t.len = static_cast<uint32_t>(words.size()) - t.offset;
        t.leg = p.prune_bound ? SectionLeg<kSides>(words.data() + t.offset + 1,
                                                   out_len, e > 0, m, w, p.delta)
                              : 0;
        words_hash = HashSpan(words.data() + t.offset, t.len);
        t.hash = words_hash + salts[static_cast<size_t>(c) * (m + 1) + e];
        longest = std::max(longest, t.len);
      }
      max_child_words += longest;
    }
    words.resize(words.size() + kCopyBlock);  // slack for block copies
    for (uint32_t e = 0; e <= m; ++e) {
      Transition<kSides>& t =
          entries[static_cast<size_t>(p.num_colors) * (m + 1) + e];
      t = Transition<kSides>{};
      t.hash = salts[static_cast<size_t>(p.num_colors) * (m + 1) + e];
    }
  }

 private:
  std::vector<uint64_t> salts;  // per (c, e), same indexing as entries
};

template <uint32_t kSides>
struct Node {
  uint64_t hash = 0;
  std::array<uint64_t, kSides> cost{};
  uint32_t offset = 0;  // into the owning store's arena
  uint32_t len = 0;     // span length in words
  uint32_t parent = kNoIndex;  // index into the previous layer's nodes
};

// Arena + node list + open-addressing intern table. Single-writer; chunk
// expansion and shard merge each own one, so the hot path takes no locks and
// performs no per-state heap allocation (arena/node vectors grow amortized).
template <class Traits>
struct NodeStore {
  using NodeT = Node<Traits::kSides>;
  std::vector<uint32_t> arena;
  std::vector<NodeT> nodes;
  std::vector<uint32_t> slots;  // node indices; kNoIndex = empty
  uint64_t mask = 0;

  const uint32_t* span(const NodeT& n) const { return arena.data() + n.offset; }

  void Reset(size_t expected) {
    arena.clear();
    nodes.clear();
    size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    slots.assign(cap, kNoIndex);
    mask = cap - 1;
  }

  void Rehash() {
    size_t cap = slots.size() * 2;
    slots.assign(cap, kNoIndex);
    mask = cap - 1;
    for (uint32_t i = 0; i < nodes.size(); ++i) {
      uint64_t pos = nodes[i].hash & mask;
      while (slots[pos] != kNoIndex) pos = (pos + 1) & mask;
      slots[pos] = i;
    }
  }

  // Interns a state; a repeat is folded into the kept node by
  // Traits::Absorb, an order-free reduction, so the surviving entry is
  // independent of insertion order — the root of thread-count determinism.
  void Intern(const NodeT& in, const uint32_t* sp) {
    uint64_t pos = in.hash & mask;
    for (;;) {
      const uint32_t idx = slots[pos];
      if (idx == kNoIndex) break;
      NodeT& n = nodes[idx];
      if (n.hash == in.hash && n.len == in.len &&
          std::memcmp(arena.data() + n.offset, sp,
                      in.len * sizeof(uint32_t)) == 0) {
        Traits::Absorb(n, in);
        return;
      }
      pos = (pos + 1) & mask;
    }
    NodeT n = in;
    n.offset = static_cast<uint32_t>(arena.size());
    arena.insert(arena.end(), sp, sp + in.len);
    slots[pos] = static_cast<uint32_t>(nodes.size());
    nodes.push_back(n);
    if (nodes.size() * 4 >= slots.size() * 3) Rehash();
  }
};

// A finalized layer: nodes in canonical order (config-hash shard, then
// span-lexicographic) over one contiguous arena.
template <uint32_t kSides>
struct Layer {
  std::vector<uint32_t> arena;
  std::vector<Node<kSides>> nodes;

  const uint32_t* span(const Node<kSides>& n) const {
    return arena.data() + n.offset;
  }
};

// What one search run leaves behind for its solver to turn into a result.
template <uint32_t kSides>
struct Outcome {
  bool exhausted = false;
  uint64_t states_expanded = 0;
  uint64_t states_generated = 0;
  uint64_t pruned_bound = 0;
  uint64_t pruned_dominated = 0;
  uint64_t max_layer_width = 0;
  obs::LogHistogram layer_widths;
  // The final layer, or the frontier on exhaustion.
  Layer<kSides> last;
  // Layers 0..k-1 before `last`, when Problem::keep_history is set.
  std::vector<Layer<kSides>> history;
  // On exhaustion: min over the frontier of side-0 cost + heuristic.
  uint64_t frontier_bound = ~uint64_t{0};
};

// The search itself. Traits supplies kSides and the three rules that differ
// between solvers:
//   Absorb(kept, repeat)      — fold a repeat of an interned state;
//   GroupBefore(a, b)         — strict weak order inside an equal-config
//                               group so that every possible dominator
//                               precedes its victims (ties keep lexicographic
//                               order);
//   Dominates(sa, a, sb, b, m, num_colors) — a makes b redundant.
template <class Traits>
class LayeredSearch {
 public:
  static constexpr uint32_t kSides = Traits::kSides;
  using NodeT = Node<kSides>;
  using Cost = std::array<uint64_t, kSides>;

  explicit LayeredSearch(const Problem<kSides>& problem) : p_(problem) {}

  Outcome<kSides> Run() const;

 private:
  // Per-chunk expansion context: an intern store, the shard partition of its
  // nodes, tallies, and all scratch — everything a worker touches is
  // chunk-local.
  struct ExpandCtx {
    NodeStore<Traits> store;
    std::array<std::vector<uint32_t>, kNumShards> by_shard;
    uint64_t generated = 0;
    uint64_t pruned = 0;

    TransitionTable<kSides> table;
    std::vector<const uint32_t*> sections;  // per color, into the parent
    std::vector<uint32_t> lens;             // per color: bucket count
    std::vector<uint32_t> max_e;            // per color: multiplicity bound
    std::vector<uint32_t> parent_mult;      // per color + black
    std::vector<uint32_t> alphabet;         // candidate config colors, sorted
    std::vector<uint32_t> mult;             // per color + black, at the leaf
    std::vector<uint32_t> child;            // child span under construction
  };

  // Sums carried down the configuration recursion.
  struct Partial {
    Cost drop{};
    uint64_t h = 0;
    uint64_t hash = 0;
    uint32_t overlap = 0;
  };

  void MakeInitialLayer(Layer<kSides>& layer) const;
  void ExpandChunk(const Layer<kSides>& cur, size_t lo, size_t hi, Round k,
                   ExpandCtx& ctx) const;
  void ExpandParent(const Layer<kSides>& cur, uint32_t parent_index, Round k,
                    ExpandCtx& ctx) const;
  void Enumerate(const NodeT& parent, uint32_t parent_index, size_t i,
                 uint32_t remaining, const Partial& acc, ExpandCtx& ctx) const;
  // acc plus color c at multiplicity e (recorded in ctx.mult).
  Partial Add(const Partial& acc, uint32_t c, uint32_t e,
              ExpandCtx& ctx) const;
  void Leaf(const NodeT& parent, uint32_t parent_index, const Partial& acc,
            ExpandCtx& ctx) const;
  uint64_t MergeShard(const std::vector<ExpandCtx>& chunks, uint32_t shard,
                      NodeStore<Traits>& out) const;
  uint64_t FrontierBound(const Layer<kSides>& layer, size_t threads) const;

  template <typename Fn>
  void ForIndices(int64_t n, Fn&& fn) const {
    if (p_.pool == nullptr) {
      for (int64_t i = 0; i < n; ++i) fn(i);
    } else {
      ParallelFor(*p_.pool, 0, n, fn);
    }
  }

  const Problem<kSides>& p_;
};

template <class Traits>
void LayeredSearch<Traits>::MakeInitialLayer(Layer<kSides>& layer) const {
  std::vector<uint32_t> span(p_.m, p_.num_colors);
  const std::array<uint32_t, kSides>* first = p_.arrivals_at(0);
  for (uint32_t c = 0; c < p_.num_colors; ++c) {
    if (first[c][kSides - 1] == 0) {
      span.push_back(0);
    } else {
      span.push_back(1);
      span.push_back(p_.delay[c]);
      span.insert(span.end(), first[c].begin(), first[c].end());
    }
  }
  NodeT root;
  root.hash = HashSpan(span.data(), static_cast<uint32_t>(span.size()));
  root.len = static_cast<uint32_t>(span.size());
  layer.arena = std::move(span);
  layer.nodes = {root};
}

template <class Traits>
void LayeredSearch<Traits>::ExpandParent(const Layer<kSides>& cur,
                                         uint32_t parent_index, Round k,
                                         ExpandCtx& ctx) const {
  const NodeT& node = cur.nodes[parent_index];
  const uint32_t* span = cur.span(node);
  const uint32_t m = p_.m;
  const uint32_t black = p_.num_colors;

  for (uint32_t r = 0; r < m; ++r) ++ctx.parent_mult[span[r]];
  size_t pos = m;
  for (uint32_t c = 0; c < p_.num_colors; ++c) {
    const uint32_t len = span[pos++];
    ctx.lens[c] = len;
    ctx.sections[c] = span + pos;
    pos += (1 + kSides) * static_cast<size_t>(len);
  }

  // Alphabet: current colors ∪ colors with pending work (reconfiguring to
  // an idle color is dominated; "keep" is covered by the current colors).
  // Ascending, black last, so writing each color e times gives the sorted
  // config multiset.
  ctx.alphabet.clear();
  for (uint32_t c = 0; c <= black; ++c) {
    const bool pending = c < black && ctx.lens[c] != 0;
    const bool candidate = ctx.parent_mult[c] != 0 || pending;
    if (candidate) ctx.alphabet.push_back(c);
    if (c < black) ctx.max_e[c] = candidate ? m : 0;
  }

  ctx.table.Build(p_, ctx.sections.data(), ctx.lens.data(), ctx.max_e.data(),
                  p_.arrivals_at(k + 1));
  if (ctx.child.size() < ctx.table.max_child_words + kCopyBlock) {
    ctx.child.resize(ctx.table.max_child_words + kCopyBlock);
  }

  // Colors outside the alphabet (black included) stay at e = 0 in every
  // child. Their terms still count: the hash must not depend on the parent.
  Partial base;
  for (uint32_t c = 0; c <= black; ++c) {
    const bool fixed = c < black ? ctx.max_e[c] == 0 : ctx.parent_mult[c] == 0;
    if (!fixed) continue;
    const Transition<kSides>& t = ctx.table.at(c, 0, m);
    for (uint32_t s = 0; s < kSides; ++s) base.drop[s] += t.drop[s];
    base.h += t.leg;
    base.hash += t.hash;
  }
  Enumerate(node, parent_index, 0, m, base, ctx);

  for (uint32_t r = 0; r < m; ++r) ctx.parent_mult[span[r]] = 0;
  for (uint32_t c : ctx.alphabet) ctx.mult[c] = 0;
}

// Chooses the multiplicity of alphabet[i]; the last alphabet color takes
// whatever remains, so every size-m multiset is visited exactly once. The
// last two levels are one loop, so a leaf costs no call.
template <class Traits>
void LayeredSearch<Traits>::Enumerate(const NodeT& parent,
                                      uint32_t parent_index, size_t i,
                                      uint32_t remaining, const Partial& acc,
                                      ExpandCtx& ctx) const {
  const uint32_t c = ctx.alphabet[i];
  if (i + 1 == ctx.alphabet.size()) {
    Leaf(parent, parent_index, Add(acc, c, remaining, ctx), ctx);
    return;
  }
  const bool next_last = i + 2 == ctx.alphabet.size();
  const uint32_t c_last = ctx.alphabet[ctx.alphabet.size() - 1];
  for (uint32_t e = 0; e <= remaining; ++e) {
    const Partial next = Add(acc, c, e, ctx);
    if (next_last) {
      Leaf(parent, parent_index, Add(next, c_last, remaining - e, ctx), ctx);
    } else {
      Enumerate(parent, parent_index, i + 1, remaining - e, next, ctx);
    }
  }
}

template <class Traits>
auto LayeredSearch<Traits>::Add(const Partial& acc, uint32_t c, uint32_t e,
                                ExpandCtx& ctx) const -> Partial {
  const Transition<kSides>& t = ctx.table.at(c, e, p_.m);
  Partial next = acc;
  for (uint32_t s = 0; s < kSides; ++s) next.drop[s] += t.drop[s];
  next.h += t.leg;
  next.hash += t.hash;
  next.overlap += std::min(e, ctx.parent_mult[c]);
  ctx.mult[c] = e;
  return next;
}

// One configuration: the bound test from the summed terms, then, for a
// survivor, the child span and its interning.
template <class Traits>
void LayeredSearch<Traits>::Leaf(const NodeT& parent, uint32_t parent_index,
                                 const Partial& acc, ExpandCtx& ctx) const {
  const uint32_t m = p_.m;
  const uint64_t reconfig = p_.delta * (m - acc.overlap);
  NodeT child;
  for (uint32_t s = 0; s < kSides; ++s) {
    child.cost[s] = parent.cost[s] + reconfig + acc.drop[s];
  }
  ++ctx.generated;
  if (p_.prune_bound && child.cost[0] + acc.h > p_.incumbent) {
    ++ctx.pruned;
    return;
  }
  uint32_t* out = ctx.child.data();
  for (uint32_t c : ctx.alphabet) {
    for (uint32_t e = ctx.mult[c]; e > 0; --e) *out++ = c;
  }
  for (uint32_t c = 0; c < p_.num_colors; ++c) {
    const Transition<kSides>& t = ctx.table.at(c, ctx.mult[c], m);
    const uint32_t* from = ctx.table.words.data() + t.offset;
    // Fixed-size blocks, overrunning into the slack both buffers carry:
    // sections are a few words, and a variable-length copy per section
    // costs more than the words.
    for (uint32_t i = 0; i < t.len; i += kCopyBlock) {
      std::memcpy(out + i, from + i, kCopyBlock * sizeof(uint32_t));
    }
    out += t.len;
  }
  child.hash = Mix64(acc.hash);
  child.len = static_cast<uint32_t>(out - ctx.child.data());
  child.parent = parent_index;
  ctx.store.Intern(child, ctx.child.data());
}

template <class Traits>
void LayeredSearch<Traits>::ExpandChunk(const Layer<kSides>& cur, size_t lo,
                                        size_t hi, Round k,
                                        ExpandCtx& ctx) const {
  ctx.store.Reset((hi - lo) * 4);
  for (auto& list : ctx.by_shard) list.clear();
  ctx.generated = 0;
  ctx.pruned = 0;
  ctx.sections.resize(p_.num_colors);
  ctx.lens.resize(p_.num_colors);
  ctx.max_e.resize(p_.num_colors);
  ctx.parent_mult.assign(p_.num_colors + 1, 0);
  ctx.mult.assign(p_.num_colors + 1, 0);

  for (size_t i = lo; i < hi; ++i) {
    ExpandParent(cur, static_cast<uint32_t>(i), k, ctx);
  }
  // Partition by config shard: states sharing a config land in the same
  // shard, which makes config groups contiguous after the per-shard
  // lexicographic sort — dominance needs that.
  for (uint32_t i = 0; i < ctx.store.nodes.size(); ++i) {
    ctx.by_shard[ShardOf(ctx.store.span(ctx.store.nodes[i]), p_.m)]
        .push_back(i);
  }
}

// Merges one shard's candidates from every chunk, sorts
// span-lexicographically, and applies the dominance rule. Returns the number
// of dominated states removed.
template <class Traits>
uint64_t LayeredSearch<Traits>::MergeShard(
    const std::vector<ExpandCtx>& chunks, uint32_t shard,
    NodeStore<Traits>& out) const {
  size_t expected = 0;
  for (const ExpandCtx& ctx : chunks) expected += ctx.by_shard[shard].size();
  if (expected == 0) {
    // Thin layers leave most shards empty; skip the table reset entirely —
    // at 32 shards x horizon layers the resets would dominate small solves.
    out.arena.clear();
    out.nodes.clear();
    return 0;
  }
  out.Reset(expected + 1);
  for (const ExpandCtx& ctx : chunks) {
    for (uint32_t idx : ctx.by_shard[shard]) {
      const NodeT& n = ctx.store.nodes[idx];
      out.Intern(n, ctx.store.span(n));
    }
  }

  std::sort(out.nodes.begin(), out.nodes.end(),
            [&](const NodeT& a, const NodeT& b) {
              return std::lexicographical_compare(
                  out.span(a), out.span(a) + a.len, out.span(b),
                  out.span(b) + b.len);
            });

  if (!p_.prune_dominance || out.nodes.size() < 2) return 0;

  // Config groups are contiguous after the sort (the span starts with the
  // config words). Within a group, order so every possible dominator comes
  // first and kill any state an earlier survivor dominates.
  std::vector<NodeT>& nodes = out.nodes;
  std::vector<uint8_t> dead(nodes.size(), 0);
  std::vector<uint32_t> group;
  uint64_t removed = 0;
  const uint32_t m = p_.m;
  auto same_config = [&](const NodeT& a, const NodeT& b) {
    return std::memcmp(out.span(a), out.span(b), m * sizeof(uint32_t)) == 0;
  };

  size_t g0 = 0;
  while (g0 < nodes.size()) {
    size_t g1 = g0 + 1;
    while (g1 < nodes.size() && same_config(nodes[g0], nodes[g1])) ++g1;
    if (g1 - g0 >= 2) {
      group.resize(g1 - g0);
      for (size_t i = 0; i < group.size(); ++i) {
        group[i] = static_cast<uint32_t>(g0 + i);
      }
      // Stable by construction: ties fall back to the index, i.e. to
      // lexicographic order.
      std::sort(group.begin(), group.end(), [&](uint32_t a, uint32_t b) {
        if (Traits::GroupBefore(nodes[a], nodes[b])) return true;
        if (Traits::GroupBefore(nodes[b], nodes[a])) return false;
        return a < b;
      });
      for (size_t j = 1; j < group.size(); ++j) {
        const NodeT& b = nodes[group[j]];
        uint32_t scanned = 0;
        for (size_t i = 0; i < j && scanned < kDominanceScanCap; ++i) {
          if (dead[group[i]]) continue;
          ++scanned;
          const NodeT& a = nodes[group[i]];
          if (Traits::Dominates(out.span(a), a, out.span(b), b, m,
                                p_.num_colors)) {
            dead[group[j]] = 1;
            ++removed;
            break;
          }
        }
      }
    }
    g0 = g1;
  }
  if (removed != 0) {
    size_t w = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!dead[i]) nodes[w++] = nodes[i];
    }
    nodes.resize(w);
  }
  return removed;
}

// Min over the layer of side-0 cost plus the state heuristic, in fixed
// chunks so the reduction is thread-count independent.
template <class Traits>
uint64_t LayeredSearch<Traits>::FrontierBound(const Layer<kSides>& layer,
                                              size_t threads) const {
  const size_t width = layer.nodes.size();
  std::vector<uint64_t> chunk_min(
      std::max<size_t>(1, std::min<size_t>(width, 4 * (threads + 1))),
      ~uint64_t{0});
  const size_t num_chunks = chunk_min.size();
  ForIndices(static_cast<int64_t>(num_chunks), [&](int64_t i) {
    const size_t lo = width * static_cast<size_t>(i) / num_chunks;
    const size_t hi = width * (static_cast<size_t>(i) + 1) / num_chunks;
    uint64_t best = ~uint64_t{0};
    for (size_t j = lo; j < hi; ++j) {
      const NodeT& n = layer.nodes[j];
      best = std::min(best,
                      n.cost[0] + StateHeuristic<kSides>(p_, layer.span(n)));
    }
    chunk_min[static_cast<size_t>(i)] = best;
  });
  uint64_t frontier = ~uint64_t{0};
  for (uint64_t v : chunk_min) frontier = std::min(frontier, v);
  return frontier;
}

template <class Traits>
auto LayeredSearch<Traits>::Run() const -> Outcome<kSides> {
  Outcome<kSides> out;
  const size_t threads = p_.pool == nullptr ? 0 : p_.pool->thread_count();

  Layer<kSides>& cur = out.last;
  MakeInitialLayer(cur);

  std::vector<ExpandCtx> chunks;
  std::vector<NodeStore<Traits>> shard_out(kNumShards);
  Layer<kSides> next;  // ping-pongs with cur so layer buffers are reused

  for (Round k = 0; k < p_.horizon; ++k) {
    const size_t width = cur.nodes.size();
    out.layer_widths.Record(width);
    out.max_layer_width = std::max<uint64_t>(out.max_layer_width, width);
    if (out.states_expanded + width > p_.max_states) {
      out.exhausted = true;
      break;
    }
    out.states_expanded += width;

    // Chunked expansion: fixed ranges; the chunk count only affects work
    // partitioning, never the merged layer (Absorb is order-free).
    const size_t num_chunks = std::clamp<size_t>(
        width / 64, 1, std::max<size_t>(1, 4 * (threads + 1)));
    chunks.resize(num_chunks);
    ForIndices(static_cast<int64_t>(num_chunks), [&](int64_t i) {
      const size_t lo = width * static_cast<size_t>(i) / num_chunks;
      const size_t hi = width * (static_cast<size_t>(i) + 1) / num_chunks;
      ExpandChunk(cur, lo, hi, k, chunks[static_cast<size_t>(i)]);
    });
    for (const ExpandCtx& ctx : chunks) {
      out.states_generated += ctx.generated;
      out.pruned_bound += ctx.pruned;
    }

    // Sharded merge + canonical sort + dominance, then one contiguous next
    // layer in shard order.
    std::array<uint64_t, kNumShards> dominated{};
    ForIndices(kNumShards, [&](int64_t s) {
      dominated[static_cast<size_t>(s)] =
          MergeShard(chunks, static_cast<uint32_t>(s),
                     shard_out[static_cast<size_t>(s)]);
    });
    for (uint64_t d : dominated) out.pruned_dominated += d;

    size_t total_nodes = 0, total_words = 0;
    std::array<size_t, kNumShards> node_base{}, word_base{};
    for (uint32_t s = 0; s < kNumShards; ++s) {
      node_base[s] = total_nodes;
      word_base[s] = total_words;
      total_nodes += shard_out[s].nodes.size();
      for (const NodeT& n : shard_out[s].nodes) total_words += n.len;
    }
    RRS_CHECK_GT(total_nodes, 0u) << "empty layer despite admissible pruning";

    next.arena.resize(total_words);
    next.nodes.resize(total_nodes);
    ForIndices(kNumShards, [&](int64_t si) {
      const uint32_t s = static_cast<uint32_t>(si);
      size_t word = word_base[s];
      size_t slot = node_base[s];
      for (const NodeT& n : shard_out[s].nodes) {
        NodeT copy = n;
        copy.offset = static_cast<uint32_t>(word);
        std::memcpy(next.arena.data() + word, shard_out[s].span(n),
                    n.len * sizeof(uint32_t));
        word += n.len;
        next.nodes[slot++] = copy;
      }
    });

    if (p_.keep_history) {
      out.history.push_back(std::move(cur));
      cur = std::move(next);
      next = Layer<kSides>{};
    } else {
      std::swap(cur, next);  // keep both buffers alive for reuse
    }
  }

  if (out.exhausted) {
    out.frontier_bound = FrontierBound(cur, threads);
  } else {
    out.layer_widths.Record(cur.nodes.size());
    out.max_layer_width =
        std::max<uint64_t>(out.max_layer_width, cur.nodes.size());
  }
  return out;
}

}  // namespace search
}  // namespace offline
}  // namespace rrs
