// Maximum-weight independent set (MWIS) solvers.
//
// A seller's "most-preferred coalition" (Algorithm 1, line 12) is the MWIS of
// her candidate buyers on her channel's interference graph, weighted by
// offered prices. The paper adopts the linear-time greedy algorithms of
// Sakai, Togasaki & Yamazaki (Discrete Applied Mathematics 126, 2003); we
// implement GWMIN and GWMIN2 plus an exact branch-and-bound solver used for
// cross-checks and the seller-policy ablation bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bitset.hpp"
#include "graph/interference_graph.hpp"

namespace specmatch::graph {

enum class MwisAlgorithm : std::uint8_t {
  kGwmin,   ///< greedily pick argmax w(v) / (deg_R(v) + 1)
  kGwmin2,  ///< greedily pick argmax w(v) / (w(v) + w(N_R(v)))
  kExact,   ///< branch & bound (exponential worst case; ablation only)
};

std::string_view to_string(MwisAlgorithm algorithm);

/// Statistics of one solver invocation (exact solver reports search size).
struct MwisStats {
  std::uint64_t nodes_explored = 0;
};

/// Reusable per-solve scratch for the greedy solvers. Results never depend
/// on prior contents: the bitsets are reassigned per solve and the
/// per-vertex arrays are written at a solve's candidates before they are
/// read, so one scratch can serve any sequence of solves. No step of a solve
/// sweeps all n vertices per pick — the per-pick state is the short
/// `removed`/`touched` lists — so a solve costs what its candidates cost
/// plus a few n/64-word bitset passes. Once reserve() has been called with
/// large-enough bounds, a greedy solve performs zero heap allocations. The
/// exact solver is exempt (its branch-and-bound recursion allocates per
/// node; it is ablation-only).
struct MwisScratch {
  /// Lazy max-heap entry: (score, vertex) plus the vertex's version stamp at
  /// push time, so superseded entries are skipped on pop.
  struct HeapEntry {
    double score;
    std::uint32_t vertex;
    std::uint32_t version;
  };

  DynamicBitset viable;  ///< remaining candidates during the solve
  DynamicBitset chosen;  ///< the result set (referenced by the return value)
  std::vector<std::uint32_t> removed;  ///< closed neighbourhood of a pick
  std::vector<std::uint32_t> touched;  ///< survivors to rescore after it
  std::vector<std::uint32_t> mark;     ///< pick stamp that dedupes touched
  std::vector<std::uint32_t> deg;      ///< GWMIN: exact deg_R(v)
  std::vector<std::uint32_t> version;  ///< lazy-heap staleness stamps
  std::vector<HeapEntry> heap;         ///< lazy max-heap storage

  /// Pre-sizes every container for an n-vertex graph whose solve holds at
  /// most `heap_entries` heap entries; pass heap_bound() below for
  /// a bound that guarantees allocation-free solves.
  void reserve(std::size_t n, std::size_t heap_entries);

  /// Largest heap the incremental greedy can hold on an n-vertex graph with
  /// `edges` edges and max degree `max_degree`. Two bounds, take the min:
  /// total pushes are n + E (every rescore push pairs with an edge from a
  /// removed vertex to a survivor, each edge at most once per solve), and
  /// lazy compaction (see greedy() in mwis.cpp) caps the live heap at
  /// 2m + 16 entries for m <= n heap-entered candidates, plus one pick's
  /// worth of pushes — at most (max_degree + 1) removals, each rescoring at
  /// most max_degree survivors. The degree bound is what keeps per-lane
  /// scratch small on big sparse graphs (E can be millions while max_degree
  /// is a few hundred).
  static std::size_t heap_bound(std::size_t n, std::size_t edges,
                                std::size_t max_degree) {
    const std::size_t by_edges = n + edges;
    const std::size_t by_degree =
        2 * n + 16 + max_degree * (max_degree + 1);
    return by_edges < by_degree ? by_edges : by_degree;
  }
};

/// Scratch-reusing solve_mwis: identical results to the allocating overload
/// below, with all working state (including the returned set, which lives in
/// `scratch.chosen` and is valid until the next solve on that scratch) taken
/// from `scratch`.
const DynamicBitset& solve_mwis(const InterferenceGraph& graph,
                                std::span<const double> weights,
                                const DynamicBitset& candidates,
                                MwisAlgorithm algorithm, MwisScratch& scratch,
                                MwisStats* stats = nullptr);

/// Returns an independent subset of `candidates` (bit j set iff vertex j may
/// be chosen) with large total weight. Ties between equal scores break toward
/// the lowest vertex index, which makes every caller deterministic.
///
/// `weights` must have one entry per graph vertex; non-candidate entries are
/// ignored. Vertices with weight <= 0 are never selected by the greedy
/// algorithms and never improve the exact objective, so they are dropped.
DynamicBitset solve_mwis(const InterferenceGraph& graph,
                         std::span<const double> weights,
                         const DynamicBitset& candidates,
                         MwisAlgorithm algorithm, MwisStats* stats = nullptr);

/// Test/bench-only reference for kGwmin and kGwmin2: the pre-incremental
/// greedy that rescans every candidate's score per pick. solve_mwis
/// maintains scores lazily (only vertices adjacent to a removed vertex are
/// rescored; candidates with no candidate neighbour are taken without a
/// heap entry) and must return the identical set — asserted by the
/// equivalence property tests and timed against this baseline by the perf
/// harness.
/// Rejects kExact.
DynamicBitset solve_mwis_rescan(const InterferenceGraph& graph,
                                std::span<const double> weights,
                                const DynamicBitset& candidates,
                                MwisAlgorithm algorithm);

/// Total weight of the set bits of `members`.
double set_weight(std::span<const double> weights,
                  const DynamicBitset& members);

}  // namespace specmatch::graph
