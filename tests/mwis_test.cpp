#include "graph/mwis.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace specmatch::graph {
namespace {

using testutil::bits;

DynamicBitset all(std::size_t n) {
  DynamicBitset b(n);
  for (std::size_t i = 0; i < n; ++i) b.set(i);
  return b;
}

class MwisAlgorithmsTest : public ::testing::TestWithParam<MwisAlgorithm> {};

TEST_P(MwisAlgorithmsTest, EmptyGraphTakesEverything) {
  const auto g = empty(6);
  const std::vector<double> w = {1, 2, 3, 4, 5, 6};
  const auto result = solve_mwis(g, w, all(6), GetParam());
  EXPECT_EQ(result.count(), 6u);
}

TEST_P(MwisAlgorithmsTest, CompleteGraphTakesHeaviestVertex) {
  const auto g = complete(5);
  const std::vector<double> w = {1, 9, 3, 4, 5};
  const auto result = solve_mwis(g, w, all(5), GetParam());
  EXPECT_EQ(result, bits(5, {1}));
}

TEST_P(MwisAlgorithmsTest, RespectsCandidateMask) {
  const auto g = empty(5);
  const std::vector<double> w = {5, 5, 5, 5, 5};
  const auto result = solve_mwis(g, w, bits(5, {1, 3}), GetParam());
  EXPECT_EQ(result, bits(5, {1, 3}));
}

TEST_P(MwisAlgorithmsTest, ResultIsAlwaysIndependentSubsetOfCandidates) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    Rng graph_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const auto g = erdos_renyi(n, 0.3, graph_rng);
    std::vector<double> w(n);
    for (auto& x : w) x = rng.uniform();
    DynamicBitset candidates(n);
    for (std::size_t i = 0; i < n; ++i)
      if (rng.bernoulli(0.7)) candidates.set(i);
    const auto result = solve_mwis(g, w, candidates, GetParam());
    EXPECT_TRUE(result.is_subset_of(candidates));
    EXPECT_TRUE(g.is_independent(result));
  }
}

TEST_P(MwisAlgorithmsTest, ZeroWeightVerticesAreNeverChosen) {
  const auto g = empty(4);
  const std::vector<double> w = {0.0, 1.0, -2.0, 3.0};
  const auto result = solve_mwis(g, w, all(4), GetParam());
  EXPECT_EQ(result, bits(4, {1, 3}));
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MwisAlgorithmsTest,
                         ::testing::Values(MwisAlgorithm::kGwmin,
                                           MwisAlgorithm::kGwmin2,
                                           MwisAlgorithm::kExact),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(MwisExactTest, PathGraphKnownOptimum) {
  // Path 0-1-2-3-4 with weights 1,10,1,10,1 -> optimum {1,3} = 20.
  const auto g = path(5);
  const std::vector<double> w = {1, 10, 1, 10, 1};
  const auto result = solve_mwis(g, w, all(5), MwisAlgorithm::kExact);
  EXPECT_EQ(result, bits(5, {1, 3}));
}

TEST(MwisExactTest, OddCycleKnownOptimum) {
  // C5 with uniform weights: maximum independent set has size 2.
  const auto g = cycle(5);
  const std::vector<double> w(5, 1.0);
  const auto result = solve_mwis(g, w, all(5), MwisAlgorithm::kExact);
  EXPECT_EQ(result.count(), 2u);
}

TEST(MwisExactTest, ReportsSearchNodes) {
  const auto g = cycle(6);
  const std::vector<double> w(6, 1.0);
  MwisStats stats;
  (void)solve_mwis(g, w, all(6), MwisAlgorithm::kExact, &stats);
  EXPECT_GT(stats.nodes_explored, 0u);
}

TEST(MwisGreedyTest, GwminPrefersLowDegreeHighWeight) {
  // Star: center 0 with weight 5, leaves 1..4 weight 2 each. GWMIN scores:
  // center 5/5 = 1, leaf 2/2 = 1 -> tie resolves to vertex 0... center wins
  // ties by index, leaving {0}. Raise one leaf to break the tie properly.
  InterferenceGraph g(5);
  for (BuyerId leaf = 1; leaf < 5; ++leaf) g.add_edge(0, leaf);
  const std::vector<double> w = {5, 2.1, 2, 2, 2};
  const auto result = solve_mwis(g, w, all(5), MwisAlgorithm::kGwmin);
  EXPECT_EQ(result, bits(5, {1, 2, 3, 4}));
}

TEST(MwisGreedyTest, TieBreaksTowardLowestIndex) {
  const auto g = complete(3);
  const std::vector<double> w = {2, 2, 2};
  EXPECT_EQ(solve_mwis(g, w, all(3), MwisAlgorithm::kGwmin), bits(3, {0}));
  EXPECT_EQ(solve_mwis(g, w, all(3), MwisAlgorithm::kGwmin2), bits(3, {0}));
}

TEST(MwisGreedyTest, WeightSizeMismatchThrows) {
  const auto g = empty(3);
  const std::vector<double> w = {1, 2};
  EXPECT_THROW((void)solve_mwis(g, w, all(3), MwisAlgorithm::kGwmin),
               CheckError);
}

// Property sweep: greedy solutions are never better than exact, and exact is
// never worse than any single vertex.
class GreedyVsExactTest : public ::testing::TestWithParam<double> {};

TEST_P(GreedyVsExactTest, GreedyBoundedByExact) {
  const double density = GetParam();
  Rng rng(91);
  Summary ratio;
  for (int trial = 0; trial < 25; ++trial) {
    Rng graph_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const auto g = erdos_renyi(18, density, graph_rng);
    std::vector<double> w(18);
    for (auto& x : w) x = rng.uniform(0.01, 1.0);
    const auto exact =
        set_weight(w, solve_mwis(g, w, all(18), MwisAlgorithm::kExact));
    for (auto alg : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
      const auto greedy = set_weight(w, solve_mwis(g, w, all(18), alg));
      EXPECT_LE(greedy, exact + 1e-9);
      EXPECT_GT(greedy, 0.0);
      ratio.add(greedy / exact);
    }
  }
  // The GWMIN family is near-optimal on sparse random graphs.
  EXPECT_GT(ratio.mean(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Densities, GreedyVsExactTest,
                         ::testing::Values(0.1, 0.3, 0.6));

/// A graph over n vertices with `edges` uniformly random edges (duplicates
/// merge), built straight into CSR form; ids are 32-bit above n = 65536.
InterferenceGraph random_graph(std::size_t n, std::size_t edges, Rng& rng) {
  std::vector<std::pair<BuyerId, BuyerId>> edge_list;
  edge_list.reserve(edges);
  const auto hi = static_cast<std::int64_t>(n) - 1;
  while (edge_list.size() < edges) {
    const auto a = static_cast<BuyerId>(rng.uniform_int(0, hi));
    const auto b = static_cast<BuyerId>(rng.uniform_int(0, hi));
    if (a != b) edge_list.emplace_back(a, b);
  }
  return InterferenceGraph::from_edges(n, edge_list);
}

/// Weights with ties (small integers, so equal GWMIN scores are common) and
/// about one in six vertices at a non-positive weight.
std::vector<double> tied_weights(std::size_t n, Rng& rng) {
  std::vector<double> w(n);
  for (auto& x : w) x = static_cast<double>(rng.uniform_int(-1, 4));
  return w;
}

DynamicBitset random_candidates(std::size_t n, double density, Rng& rng) {
  DynamicBitset c(n);
  for (std::size_t v = 0; v < n; ++v)
    if (rng.bernoulli(density)) c.set(v);
  return c;
}

// The incremental solver must return the rescan oracle's set bit for bit:
// candidate densities from 1% to 100% on graphs sparse enough to leave many
// candidates isolated (taken without a heap entry) and dense enough that
// picks strand survivors (taken once their residual degree reaches 0), with
// tied and non-positive weights, at both CSR id widths. One scratch serves
// every solve, so no result may depend on what an earlier, larger or
// smaller solve left in it.
TEST(MwisEquivalenceTest, MatchesRescanOracleAcrossCandidateDensities) {
  struct Case {
    std::size_t n;
    std::size_t edges;
    std::vector<double> densities;
  };
  const Case cases[] = {
      {60, 40, {0.05, 0.3, 1.0}},
      {60, 600, {0.05, 0.3, 1.0}},
      {400, 300, {0.01, 0.1, 0.5, 1.0}},
      {400, 4000, {0.01, 0.1, 0.5, 1.0}},
      {2000, 40000, {0.01, 0.05, 0.2, 1.0}},
      {70000, 280000, {0.01, 0.05}},  // 32-bit ids
  };
  MwisScratch scratch;
  Rng rng(2003);
  for (const Case& c : cases) {
    const auto g = random_graph(c.n, c.edges, rng);
    EXPECT_EQ(g.csr_export().narrow, c.n <= 65536);
    for (const double density : c.densities) {
      for (int trial = 0; trial < 2; ++trial) {
        std::vector<double> w = tied_weights(c.n, rng);
        if (trial == 1)
          for (auto& x : w) x = x <= 0.0 ? x : rng.uniform(0.01, 10.0);
        const auto candidates = random_candidates(c.n, density, rng);
        for (auto alg : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
          const auto expected = solve_mwis_rescan(g, w, candidates, alg);
          EXPECT_EQ(solve_mwis(g, w, candidates, alg, scratch), expected)
              << to_string(alg) << " n " << c.n << " edges " << c.edges
              << " density " << density << " trial " << trial;
        }
      }
    }
  }
}

// Fixed shapes for the two heap-free takes: isolated candidates, and
// survivors stranded mid-solve. GWMIN on all candidates picks 0 (score 4.5),
// stranding 2; then 4 (score 3), stranding 6; then leaf 8 (score 1.5),
// whose removal of the star's centre strands leaves 9 and 10. Vertex 11 has
// a negative weight and is never a candidate.
TEST(MwisEquivalenceTest, IsolatedAndStrandedVerticesMatchOracle) {
  InterferenceGraph g(12);
  g.add_edge(0, 1);  // path 0-1-2
  g.add_edge(1, 2);
  g.add_edge(3, 4);  // path 3-4-5-6
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  for (BuyerId leaf = 8; leaf < 12; ++leaf) g.add_edge(7, leaf);  // star
  g.finalize();
  const std::vector<double> w = {9, 1, 1, 1, 9, 1, 2, 1, 3, 3, 3, -1};
  EXPECT_EQ(solve_mwis(g, w, all(12), MwisAlgorithm::kGwmin),
            bits(12, {0, 2, 4, 6, 8, 9, 10}));
  for (auto alg : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
    SCOPED_TRACE(to_string(alg));
    // Everything; only isolated candidates; a mix with a negative weight.
    for (const auto& candidates :
         {all(12), bits(12, {0, 2, 3, 6, 7}), bits(12, {1, 4, 5, 7, 11})}) {
      EXPECT_EQ(solve_mwis(g, w, candidates, alg),
                solve_mwis_rescan(g, w, candidates, alg));
    }
  }
}

// Counters: an isolated candidate is a pick with no heap pop, so an
// edgeless solve picks every positive candidate and pops nothing.
TEST(MwisGreedyTest, IsolatedCandidatesSkipTheHeap) {
  metrics::set_enabled(true);
  metrics::Registry::global().reset_all();
  const auto g = empty(8);
  const std::vector<double> w = {1, 2, 0, 4, 5, 6, 7, 8};
  const auto result = solve_mwis(g, w, all(8), MwisAlgorithm::kGwmin);
  const auto snapshot = metrics::Registry::global().snapshot();
  metrics::set_enabled(false);
  EXPECT_EQ(result.count(), 7u);
  EXPECT_EQ(snapshot.counter("mwis.picks"), 7);
  EXPECT_EQ(snapshot.counter("mwis.heap_pops"), 0);
}

// The engine's shape: a large graph, a sparse candidate set. Once a scratch
// has been reserved with heap_bound(), solves allocate nothing.
TEST(MwisGreedyTest, WarmScratchSparseSolveIsAllocationFree) {
  Rng rng(77);
  const std::size_t n = 20000;
  const auto g = random_graph(n, n * 20, rng);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.uniform(0.01, 10.0);
  const auto sparse = random_candidates(n, 0.05, rng);
  const auto dense = random_candidates(n, 0.5, rng);
  MwisScratch scratch;
  scratch.reserve(n, MwisScratch::heap_bound(n, g.num_edges(),
                                             g.max_degree()));
  alloc_count::set_counting(true);
  const std::int64_t before = alloc_count::total();
  for (auto alg : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2}) {
    (void)solve_mwis(g, w, sparse, alg, scratch);
    (void)solve_mwis(g, w, dense, alg, scratch);
  }
  const std::int64_t allocs = alloc_count::total() - before;
  alloc_count::set_counting(false);
  EXPECT_EQ(allocs, 0);
}

TEST(SetWeightTest, SumsSelectedWeights) {
  const std::vector<double> w = {1, 2, 4, 8};
  EXPECT_DOUBLE_EQ(set_weight(w, bits(4, {0, 2})), 5.0);
  EXPECT_DOUBLE_EQ(set_weight(w, bits(4, {})), 0.0);
}

}  // namespace
}  // namespace specmatch::graph
