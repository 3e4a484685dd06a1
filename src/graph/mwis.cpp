#include "graph/mwis.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"

namespace specmatch::graph {

std::string_view to_string(MwisAlgorithm algorithm) {
  switch (algorithm) {
    case MwisAlgorithm::kGwmin:
      return "gwmin";
    case MwisAlgorithm::kGwmin2:
      return "gwmin2";
    case MwisAlgorithm::kExact:
      return "exact";
  }
  return "unknown";
}

double set_weight(std::span<const double> weights,
                  const DynamicBitset& members) {
  double total = 0.0;
  members.for_each_set([&](std::size_t v) { total += weights[v]; });
  return total;
}

void MwisScratch::reserve(std::size_t n, std::size_t heap_entries) {
  viable.assign_zero(n);
  chosen.assign_zero(n);
  removed.reserve(n);
  touched.reserve(n);
  mark.reserve(n);
  deg.reserve(n);
  version.reserve(n);
  heap.reserve(heap_entries);
}

namespace {

/// Per-solve work counters, accumulated locally (plain increments on the
/// pick loop) and flushed to the metrics registry once per solve_mwis call.
/// A null pointer (metrics disabled) keeps the loops free of even the
/// increment.
struct GreedyWork {
  std::uint64_t picks = 0;       ///< vertices chosen into the set
  std::uint64_t heap_pops = 0;   ///< entries popped
  std::uint64_t stale_pops = 0;  ///< version-stale skips
};

/// GWMIN pick score: w(v) / (deg_R(v) + 1), with deg_R an O(deg) row walk.
struct GwminScanScore {
  const InterferenceGraph& graph;
  std::span<const double> weights;

  double operator()(std::size_t v, const DynamicBitset& remaining) const {
    const double deg = static_cast<double>(
        graph.degree_in(static_cast<BuyerId>(v), remaining));
    return weights[v] / (deg + 1.0);
  }
};

/// GWMIN2 pick score: w(v) / (w(v) + w(N_R(v))). for_each_neighbor_in visits
/// the surviving neighbours in ascending order, so the floating-point sum —
/// and the score — is the same bits wherever it is computed.
struct Gwmin2ScanScore {
  const InterferenceGraph& graph;
  std::span<const double> weights;

  double operator()(std::size_t v, const DynamicBitset& remaining) const {
    double nbr_weight = 0.0;
    graph.for_each_neighbor_in(
        static_cast<BuyerId>(v), remaining,
        [&](std::size_t u) { nbr_weight += weights[u]; });
    return weights[v] / (weights[v] + nbr_weight);
  }
};

// Incremental policies. init(v) scores a candidate at the start of a solve
// and rescore(v) a survivor after a pick removed some of its neighbours;
// both return false instead of a score when v has no neighbour left in
// `remaining`, and the skeleton then takes v without a heap entry.
// lose_neighbor(w) is called once per (removed vertex, surviving
// neighbour w) pair before any rescore of the pick.

/// Incremental GWMIN state: deg_R(v) is kept exact (an integer) under batch
/// removals, so a rescore is one division with the same operands the rescan
/// reference would produce — bit-identical by construction, and the update
/// work totals O(edges) over a whole solve instead of O(picks x candidates)
/// score recomputations. The degree array is borrowed from the caller's
/// scratch; only candidates' entries are written and read.
struct GwminIncremental {
  const InterferenceGraph& graph;
  std::span<const double> weights;
  std::vector<std::uint32_t>& deg;

  void prepare(std::size_t n) {
    if (deg.size() < n) deg.resize(n);
  }

  bool init(std::size_t v, const DynamicBitset& remaining, double& score) {
    deg[v] = static_cast<std::uint32_t>(
        graph.degree_in(static_cast<BuyerId>(v), remaining));
    return rescore(v, remaining, score);
  }

  void lose_neighbor(std::size_t w) { --deg[w]; }

  bool rescore(std::size_t v, const DynamicBitset&, double& score) const {
    if (deg[v] == 0) return false;
    score = weights[v] / (static_cast<double>(deg[v]) + 1.0);
    return true;
  }
};

/// Incremental GWMIN2 state: the neighbour-weight sum cannot be maintained
/// by floating-point subtraction without drifting off the reference bits, so
/// touched survivors are re-summed — but only they are (the sum over
/// N_R(v) is unchanged for everyone else), in Gwmin2ScanScore's ascending
/// order.
struct Gwmin2Incremental {
  const InterferenceGraph& graph;
  std::span<const double> weights;

  void prepare(std::size_t) {}

  bool init(std::size_t v, const DynamicBitset& remaining, double& score) {
    return rescore(v, remaining, score);
  }

  void lose_neighbor(std::size_t) {}

  bool rescore(std::size_t v, const DynamicBitset& remaining,
               double& score) const {
    double nbr_weight = 0.0;
    bool any = false;
    graph.for_each_neighbor_in(static_cast<BuyerId>(v), remaining,
                               [&](std::size_t u) {
                                 nbr_weight += weights[u];
                                 any = true;
                               });
    if (!any) return false;
    score = weights[v] / (weights[v] + nbr_weight);
    return true;
  }
};

// Max-heap order on score; equal scores surface the lowest index first,
// matching the strict-greater scan of the rescan reference.
struct WorseEntry {
  bool operator()(const MwisScratch::HeapEntry& a,
                  const MwisScratch::HeapEntry& b) const {
    if (a.score != b.score) return a.score < b.score;
    return a.vertex > b.vertex;
  }
};

/// Incremental greedy skeleton: repeatedly pick the remaining candidate with
/// the highest score (ties to the lowest index) and remove its closed
/// neighbourhood — but instead of rescanning every candidate's score per
/// pick, keep scores in a lazy max-heap. After choosing v, both GWMIN scores
/// depend only on the candidate's neighbourhood inside `remaining`, so only
/// survivors adjacent to a removed vertex can change; the policy rescores
/// exactly those, with values bit-identical to a full rescan (same operands,
/// same summation order). Stale heap entries are skipped via a per-vertex
/// version counter; the heap order is a strict total order on current
/// entries, so the pop sequence does not depend on push order or on the
/// heap's internal arrangement.
///
/// A vertex with no neighbour in `remaining` — a candidate isolated among
/// the candidates, or a survivor whose last neighbour a pick removed — is
/// taken at once with no heap entry: no pick can remove it, and taking it
/// removes nobody else and changes no other score, so the rescan reference
/// picks it too, at some point, without altering the rest of its sequence.
///
/// Per pick the work is the picked vertex's row, the removed vertices'
/// rows and the touched survivors' rescores: the closed neighbourhood and
/// the touched set live in short lists (a per-pick stamp dedupes touched),
/// and the loop ends on a live count, so no pick sweeps the n-bit sets.
/// Per-vertex arrays are written only at candidates.
/// `kCounting` is a compile-time switch so the metrics-off instantiation
/// carries no per-pop counter updates.
template <bool kCounting, typename Policy>
void greedy(const InterferenceGraph& graph, Policy policy, MwisScratch& s,
            GreedyWork* work = nullptr) {
  const std::size_t n = graph.num_vertices();
  DynamicBitset& remaining = s.viable;
  s.chosen.assign_zero(n);
  if (s.version.size() < n) s.version.resize(n);
  if (s.mark.size() < n) s.mark.resize(n);
  policy.prepare(n);
  s.heap.clear();

  // Isolated candidates go straight to `chosen` and stay in `remaining`
  // until the scoring pass is over: no candidate is their neighbour, so
  // they change no other candidate's score.
  std::uint64_t taken = 0;
  remaining.for_each_set([&](std::size_t v) {
    double score;
    if (!policy.init(v, remaining, score)) {
      s.chosen.set(v);
      ++taken;
      return;
    }
    s.version[v] = 0;
    s.mark[v] = 0;
    s.heap.push_back({score, static_cast<std::uint32_t>(v), 0});
  });
  if (taken > 0) remaining -= s.chosen;
  std::make_heap(s.heap.begin(), s.heap.end(), WorseEntry{});

  // Lazy-deletion compaction threshold (see the end of the loop).
  const std::size_t compact_above = 2 * s.heap.size() + 16;
  std::size_t live = s.heap.size();
  std::uint32_t pick_stamp = 0;
  while (live > 0) {
    // Every remaining vertex always has one current entry queued, so the
    // heap cannot run dry before `live` does.
    SPECMATCH_DCHECK(!s.heap.empty());
    std::pop_heap(s.heap.begin(), s.heap.end(), WorseEntry{});
    const MwisScratch::HeapEntry top = s.heap.back();
    s.heap.pop_back();
    if constexpr (kCounting) ++work->heap_pops;
    const std::size_t v = top.vertex;
    if (!remaining.test(v) || top.version != s.version[v]) {  // stale
      if constexpr (kCounting) ++work->stale_pops;
      continue;
    }

    ++taken;
    s.chosen.set(v);
    remaining.reset(v);
    s.removed.clear();
    // Each row lists a neighbour once, so clearing it mid-walk cannot hide
    // another neighbour from the walk's membership test.
    graph.for_each_neighbor_in(static_cast<BuyerId>(v), remaining,
                               [&](std::size_t u) {
                                 remaining.reset(u);
                                 s.removed.push_back(
                                     static_cast<std::uint32_t>(u));
                               });
    live -= 1 + s.removed.size();

    // v's own row has no survivor left; walk the removed neighbours'.
    ++pick_stamp;
    s.touched.clear();
    for (const std::uint32_t u : s.removed) {
      graph.for_each_neighbor_in(static_cast<BuyerId>(u), remaining,
                                 [&](std::size_t w) {
                                   policy.lose_neighbor(w);
                                   if (s.mark[w] != pick_stamp) {
                                     s.mark[w] = pick_stamp;
                                     s.touched.push_back(
                                         static_cast<std::uint32_t>(w));
                                   }
                                 });
    }
    for (const std::uint32_t w : s.touched) {
      double score;
      if (!policy.rescore(w, remaining, score)) {
        ++taken;
        s.chosen.set(w);
        remaining.reset(w);
        --live;
        continue;
      }
      s.heap.push_back({score, w, ++s.version[w]});
      std::push_heap(s.heap.begin(), s.heap.end(), WorseEntry{});
    }

    // Lazy-deletion compaction: when the accumulated stale debt outgrows the
    // live set, drop every superseded entry and re-heapify. The pick
    // sequence is unchanged (the order is strict on current entries). This
    // is what bounds the heap by max degree instead of by edge count (see
    // MwisScratch::heap_bound): without it a big sparse graph's heap would
    // grow toward n + E entries.
    if (s.heap.size() > compact_above) {
      s.heap.erase(
          std::remove_if(s.heap.begin(), s.heap.end(),
                         [&](const MwisScratch::HeapEntry& e) {
                           return !remaining.test(e.vertex) ||
                                  e.version != s.version[e.vertex];
                         }),
          s.heap.end());
      std::make_heap(s.heap.begin(), s.heap.end(), WorseEntry{});
    }
  }
  if constexpr (kCounting) work->picks = taken;
}

/// Scan-mode greedy, the body of the solve_mwis_rescan test oracle:
/// recompute every remaining candidate's score per pick. Picks the identical
/// vertex sequence as the incremental skeleton: both take the highest score
/// with ties to the lowest index, and the score values agree bit-for-bit.
template <typename ScoreFn>
void greedy_scan(const InterferenceGraph& graph, const ScoreFn& score,
                 MwisScratch& s) {
  DynamicBitset& remaining = s.viable;
  s.chosen.assign_zero(graph.num_vertices());
  while (remaining.any()) {
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_v = remaining.size();
    remaining.for_each_set([&](std::size_t v) {
      const double s_v = score(v, remaining);
      if (s_v > best_score) {  // strict: ties resolve to the lowest index
        best_score = s_v;
        best_v = v;
      }
    });
    s.chosen.set(best_v);
    remaining.reset(best_v);
    graph.remove_neighbors_from(static_cast<BuyerId>(best_v), remaining);
  }
}

/// Fills `scratch.viable` with candidates minus non-positive-weight vertices:
/// they can only dilute a coalition.
void viable_candidates(std::span<const double> weights,
                       const DynamicBitset& candidates, MwisScratch& scratch) {
  scratch.viable = candidates;
  candidates.for_each_set([&](std::size_t v) {
    if (weights[v] <= 0.0) scratch.viable.reset(v);
  });
}

void check_inputs(const InterferenceGraph& graph,
                  std::span<const double> weights,
                  const DynamicBitset& candidates) {
  SPECMATCH_CHECK_MSG(weights.size() == graph.num_vertices(),
                      "weights size " << weights.size() << " != vertices "
                                      << graph.num_vertices());
  SPECMATCH_CHECK(candidates.size() == graph.num_vertices());
}

struct ExactSearch {
  const InterferenceGraph& graph;
  std::span<const double> weights;
  std::uint64_t nodes = 0;
  double best_weight = 0.0;
  DynamicBitset best;

  void run(DynamicBitset remaining, DynamicBitset chosen, double weight) {
    ++nodes;
    if (weight > best_weight) {
      best_weight = weight;
      best = chosen;
    }
    // Admissible bound: take every remaining vertex.
    double bound = weight;
    remaining.for_each_set([&](std::size_t v) { bound += weights[v]; });
    if (bound <= best_weight) return;

    // Branch on the remaining vertex with the highest degree inside
    // `remaining` (fail-first: it prunes the most).
    std::size_t pivot = remaining.size();
    std::size_t pivot_degree = 0;
    bool have_pivot = false;
    remaining.for_each_set([&](std::size_t v) {
      const std::size_t d = graph.degree_in(static_cast<BuyerId>(v), remaining);
      if (!have_pivot || d > pivot_degree) {
        have_pivot = true;
        pivot = v;
        pivot_degree = d;
      }
    });
    if (!have_pivot) return;

    // Include pivot.
    {
      DynamicBitset next = remaining;
      next.reset(pivot);
      graph.remove_neighbors_from(static_cast<BuyerId>(pivot), next);
      DynamicBitset with = chosen;
      with.set(pivot);
      run(std::move(next), std::move(with), weight + weights[pivot]);
    }
    // Exclude pivot.
    {
      DynamicBitset next = remaining;
      next.reset(pivot);
      run(std::move(next), std::move(chosen), weight);
    }
  }
};

}  // namespace

const DynamicBitset& solve_mwis(const InterferenceGraph& graph,
                                std::span<const double> weights,
                                const DynamicBitset& candidates,
                                MwisAlgorithm algorithm, MwisScratch& scratch,
                                MwisStats* stats) {
  check_inputs(graph, weights, candidates);
  viable_candidates(weights, candidates, scratch);

  GreedyWork work;
  GreedyWork* wp = metrics::enabled() ? &work : nullptr;
  // Dispatch once on (algorithm, counting); the counting=false
  // instantiations are the uninstrumented loops, so metrics-off runs pay
  // nothing inside the pick loop.
  const auto run_greedy = [&](auto policy) {
    if (wp != nullptr)
      greedy<true>(graph, std::move(policy), scratch, wp);
    else
      greedy<false>(graph, std::move(policy), scratch);
  };
  bool solved = false;
  switch (algorithm) {
    case MwisAlgorithm::kGwmin:
      run_greedy(GwminIncremental{graph, weights, scratch.deg});
      solved = true;
      break;
    case MwisAlgorithm::kGwmin2:
      run_greedy(Gwmin2Incremental{graph, weights});
      solved = true;
      break;
    case MwisAlgorithm::kExact: {
      ExactSearch search{graph, weights, 0, 0.0,
                         DynamicBitset(graph.num_vertices())};
      search.run(scratch.viable, DynamicBitset(graph.num_vertices()), 0.0);
      if (stats != nullptr) stats->nodes_explored = search.nodes;
      if (wp != nullptr)
        metrics::count("mwis.exact_nodes",
                       static_cast<std::int64_t>(search.nodes));
      work.picks = search.best.count();
      scratch.chosen = search.best;
      solved = true;
      break;
    }
  }
  SPECMATCH_CHECK_MSG(solved, "unreachable MWIS algorithm");
  if (wp != nullptr) {
    metrics::count("mwis.calls");
    metrics::count("mwis.picks", static_cast<std::int64_t>(work.picks));
    if (algorithm != MwisAlgorithm::kExact) {
      metrics::count("mwis.heap_pops",
                     static_cast<std::int64_t>(work.heap_pops));
      metrics::count("mwis.stale_pops",
                     static_cast<std::int64_t>(work.stale_pops));
    }
  }
  return scratch.chosen;
}

DynamicBitset solve_mwis(const InterferenceGraph& graph,
                         std::span<const double> weights,
                         const DynamicBitset& candidates,
                         MwisAlgorithm algorithm, MwisStats* stats) {
  MwisScratch scratch;
  solve_mwis(graph, weights, candidates, algorithm, scratch, stats);
  return std::move(scratch.chosen);
}

DynamicBitset solve_mwis_rescan(const InterferenceGraph& graph,
                                std::span<const double> weights,
                                const DynamicBitset& candidates,
                                MwisAlgorithm algorithm) {
  check_inputs(graph, weights, candidates);
  SPECMATCH_CHECK_MSG(algorithm != MwisAlgorithm::kExact,
                      "the rescan reference only exists for the greedy "
                      "algorithms");
  MwisScratch scratch;
  viable_candidates(weights, candidates, scratch);
  if (algorithm == MwisAlgorithm::kGwmin)
    greedy_scan(graph, GwminScanScore{graph, weights}, scratch);
  else
    greedy_scan(graph, Gwmin2ScanScore{graph, weights}, scratch);
  return std::move(scratch.chosen);
}

}  // namespace specmatch::graph
