#include "graph/interference_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "graph/mwis.hpp"
#include "test_util.hpp"

namespace specmatch::graph {
namespace {

using testutil::bits;

TEST(InterferenceGraphTest, EmptyGraph) {
  InterferenceGraph g(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
}

TEST(InterferenceGraphTest, AddEdgeIsSymmetricAndIdempotent) {
  InterferenceGraph g(4);
  g.add_edge(1, 3);
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_TRUE(g.has_edge(3, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  g.add_edge(3, 1);  // duplicate
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(InterferenceGraphTest, SelfLoopRejected) {
  InterferenceGraph g(3);
  EXPECT_THROW(g.add_edge(1, 1), CheckError);
}

TEST(InterferenceGraphTest, OutOfRangeRejected) {
  InterferenceGraph g(3);
  EXPECT_THROW(g.add_edge(0, 3), CheckError);
  EXPECT_THROW(g.add_edge(-1, 0), CheckError);
  EXPECT_THROW((void)g.has_edge(0, 5), CheckError);
}

TEST(InterferenceGraphTest, Neighbors) {
  InterferenceGraph g(6);
  g.add_edge(2, 0);
  g.add_edge(2, 4);
  g.add_edge(2, 5);
  std::vector<std::size_t> seen;
  g.for_each_neighbor(2, [&](std::size_t u) { seen.push_back(u); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 4, 5}));
  EXPECT_EQ(g.degree(2), 3u);
}

TEST(InterferenceGraphTest, IsIndependent) {
  InterferenceGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.is_independent(bits(5, {0, 2, 4})));
  EXPECT_TRUE(g.is_independent(bits(5, {})));
  EXPECT_TRUE(g.is_independent(bits(5, {1})));
  EXPECT_FALSE(g.is_independent(bits(5, {0, 1})));
  EXPECT_FALSE(g.is_independent(bits(5, {1, 2, 3})));
}

TEST(InterferenceGraphTest, IsCompatible) {
  InterferenceGraph g(4);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.is_compatible(0, bits(4, {1, 2})));
  EXPECT_TRUE(g.is_compatible(0, bits(4, {2, 3})));
  // A vertex is always compatible with a set containing only itself.
  EXPECT_TRUE(g.is_compatible(0, bits(4, {0})));
}

TEST(InterferenceGraphTest, EdgesListSortedUnique) {
  InterferenceGraph g(4);
  g.add_edge(2, 1);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(BuyerId{0}, BuyerId{3}));
  EXPECT_EQ(edges[1], std::make_pair(BuyerId{1}, BuyerId{2}));
}

TEST(GeneratorsTest, GeometricUsesEuclideanDistance) {
  const std::vector<Point> pts = {{0, 0}, {3, 4}, {0, 1}};
  const auto g = geometric(pts, 5.0);
  EXPECT_TRUE(g.has_edge(0, 1));  // distance exactly 5 <= 5
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 2));  // distance sqrt(9+9) ~ 4.24
  const auto g2 = geometric(pts, 1.0);
  EXPECT_FALSE(g2.has_edge(0, 1));
  EXPECT_TRUE(g2.has_edge(0, 2));
}

TEST(GeneratorsTest, GeometricZeroRangeOnlyLinksCoincidentPoints) {
  const std::vector<Point> pts = {{1, 1}, {1, 1}, {2, 2}};
  const auto g = geometric(pts, 0.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GeneratorsTest, CompleteAndEmpty) {
  const auto k = complete(6);
  EXPECT_EQ(k.num_edges(), 15u);
  EXPECT_EQ(k.average_degree(), 5.0);
  const auto e = empty(6);
  EXPECT_EQ(e.num_edges(), 0u);
}

TEST(GeneratorsTest, CycleAndPath) {
  const auto c = cycle(5);
  EXPECT_EQ(c.num_edges(), 5u);
  for (BuyerId v = 0; v < 5; ++v) EXPECT_EQ(c.degree(v), 2u);
  const auto p = path(5);
  EXPECT_EQ(p.num_edges(), 4u);
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(2), 2u);
  // Degenerate sizes.
  EXPECT_EQ(cycle(2).num_edges(), 1u);
  EXPECT_EQ(cycle(1).num_edges(), 0u);
  EXPECT_EQ(path(1).num_edges(), 0u);
}

TEST(GeneratorsTest, ErdosRenyiDensityMatchesProbability) {
  Rng rng(3);
  const auto g = erdos_renyi(60, 0.3, rng);
  const double max_edges = 60.0 * 59.0 / 2.0;
  const double density = static_cast<double>(g.num_edges()) / max_edges;
  EXPECT_NEAR(density, 0.3, 0.05);
  Rng rng2(4);
  EXPECT_EQ(erdos_renyi(20, 0.0, rng2).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, rng2).num_edges(), 190u);
}

TEST(GeneratorsTest, ErdosRenyiInvalidProbabilityThrows) {
  Rng rng(5);
  EXPECT_THROW((void)erdos_renyi(5, -0.1, rng), CheckError);
  EXPECT_THROW((void)erdos_renyi(5, 1.1, rng), CheckError);
}

TEST(GeneratorsTest, DistanceHelper) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

// ---------------------------------------------------------------------------
// CSR queries against independent oracles (property tests). Each random edge
// list — duplicates and both orientations included — is also loaded into a
// brute-force adjacency-set oracle; every query, and the MWIS solvers on top
// of them, must agree with it exactly.
// ---------------------------------------------------------------------------

DynamicBitset random_mask(std::size_t n, double p, Rng& rng) {
  DynamicBitset mask(n);
  for (std::size_t v = 0; v < n; ++v)
    if (rng.bernoulli(p)) mask.set(v);
  return mask;
}

/// `count` random pairs over [0, n) with no self-loops; every fourth pair
/// repeats an earlier one, reversed half of the time.
std::vector<std::pair<BuyerId, BuyerId>> random_edge_list(std::size_t n,
                                                          std::size_t count,
                                                          Rng& rng) {
  std::vector<std::pair<BuyerId, BuyerId>> out;
  const auto hi = static_cast<std::int64_t>(n) - 1;
  while (out.size() < count) {
    if (!out.empty() && out.size() % 4 == 3) {
      auto [a, b] = out[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1))];
      if (rng.bernoulli(0.5)) std::swap(a, b);
      out.emplace_back(a, b);
      continue;
    }
    const auto a = static_cast<BuyerId>(rng.uniform_int(0, hi));
    const auto b = static_cast<BuyerId>(rng.uniform_int(0, hi));
    if (a != b) out.emplace_back(a, b);
  }
  return out;
}

/// Brute-force oracle: one ordered neighbour set per vertex.
std::vector<std::set<std::size_t>> oracle_adjacency(
    std::size_t n, const std::vector<std::pair<BuyerId, BuyerId>>& edge_list) {
  std::vector<std::set<std::size_t>> adj(n);
  for (const auto& [a, b] : edge_list) {
    adj[static_cast<std::size_t>(a)].insert(static_cast<std::size_t>(b));
    adj[static_cast<std::size_t>(b)].insert(static_cast<std::size_t>(a));
  }
  return adj;
}

void expect_matches_oracle(const InterferenceGraph& g,
                           const std::vector<std::set<std::size_t>>& adj,
                           std::uint64_t mask_seed) {
  const std::size_t n = adj.size();
  ASSERT_EQ(g.num_vertices(), n);
  std::vector<std::pair<BuyerId, BuyerId>> oracle_edges;
  std::size_t max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, adj[v].size());
    for (const std::size_t u : adj[v])
      if (v < u)
        oracle_edges.emplace_back(static_cast<BuyerId>(v),
                                  static_cast<BuyerId>(u));
  }
  EXPECT_EQ(g.edges(), oracle_edges);
  EXPECT_EQ(g.num_edges(), oracle_edges.size());
  EXPECT_EQ(g.max_degree(), max_degree);

  Rng mask_rng(mask_seed);
  for (int trial = 0; trial < 4; ++trial) {
    const auto mask = random_mask(n, mask_rng.uniform(), mask_rng);
    bool independent = true;
    mask.for_each_set([&](std::size_t v) {
      for (const std::size_t u : adj[v]) independent &= !mask.test(u);
    });
    EXPECT_EQ(g.is_independent(mask), independent);
    for (std::size_t v = 0; v < n; ++v) {
      const auto id = static_cast<BuyerId>(v);
      const std::vector<std::size_t> row(adj[v].begin(), adj[v].end());
      std::vector<std::size_t> in_mask;
      for (const std::size_t u : row)
        if (mask.test(u)) in_mask.push_back(u);
      EXPECT_EQ(g.degree(id), row.size());
      EXPECT_EQ(g.is_compatible(id, mask), in_mask.empty());
      EXPECT_EQ(g.degree_in(id, mask), in_mask.size());
      EXPECT_EQ(g.neighbors_subset_of(id, mask), in_mask.size() == row.size());
      if (!row.empty()) {
        EXPECT_TRUE(g.has_edge(id, static_cast<BuyerId>(row.front())));
        EXPECT_TRUE(g.has_edge(static_cast<BuyerId>(row.back()), id));
      }

      // for_each_neighbor(_in): ascending visitation (the GWMIN2
      // bit-for-bit contract).
      std::vector<std::size_t> seq;
      g.for_each_neighbor(id, [&](std::size_t u) { seq.push_back(u); });
      EXPECT_EQ(seq, row);
      seq.clear();
      g.for_each_neighbor_in(id, mask,
                             [&](std::size_t u) { seq.push_back(u); });
      EXPECT_EQ(seq, in_mask);

      DynamicBitset expected(n);
      for (const std::size_t u : in_mask) expected.set(u);
      DynamicBitset out(n);
      g.neighbors_in(id, mask, out);
      EXPECT_EQ(out, expected);
      out = mask;
      expected = mask;
      for (const std::size_t u : row) expected.set(u);
      g.add_neighbors_to(id, out);
      EXPECT_EQ(out, expected);
      for (const std::size_t u : row) expected.reset(u);
      g.remove_neighbors_from(id, out);
      EXPECT_EQ(out, expected);
    }
  }
}

TEST(CsrGraphTest, QueriesMatchBruteForceOracle) {
  const struct {
    std::uint64_t seed;
    std::size_t n;
    std::size_t edges;
  } cases[] = {{1, 24, 90}, {2, 40, 80}, {3, 120, 360}, {4, 300, 900}};
  for (const auto& c : cases) {
    Rng rng(c.seed);
    const auto edge_list = random_edge_list(c.n, c.edges, rng);
    const auto adj = oracle_adjacency(c.n, edge_list);
    const auto bulk = InterferenceGraph::from_edges(c.n, edge_list);
    InterferenceGraph incremental(c.n);
    for (const auto& [a, b] : edge_list) incremental.add_edge(a, b);
    SCOPED_TRACE(testing::Message() << "seed " << c.seed);
    expect_matches_oracle(bulk, adj, c.seed ^ 0x5eed);
    expect_matches_oracle(incremental, adj, c.seed ^ 0x5eed);
    incremental.finalize();
    expect_matches_oracle(incremental, adj, c.seed ^ 0x5eed);
    EXPECT_EQ(bulk, incremental);
  }
}

TEST(CsrGraphTest, MwisSelectionsMatchRescanOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::size_t n = 40;
    const auto g = InterferenceGraph::from_edges(
        n, random_edge_list(n, 120 * seed, rng));
    std::vector<double> weights(n);
    for (double& w : weights) w = rng.uniform(0.0, 10.0);
    Rng mask_rng(seed ^ 0xfeed);
    for (int trial = 0; trial < 5; ++trial) {
      const auto candidates = random_mask(n, 0.8, mask_rng);
      for (auto algorithm : {MwisAlgorithm::kGwmin, MwisAlgorithm::kGwmin2})
        EXPECT_EQ(solve_mwis(g, weights, candidates, algorithm),
                  solve_mwis_rescan(g, weights, candidates, algorithm))
            << "algorithm " << to_string(algorithm) << " seed " << seed;
    }
  }
}

TEST(CsrGraphTest, BuildFinalizeAndMutateAfterFinalize) {
  InterferenceGraph g(6);
  EXPECT_FALSE(g.finalized());
  g.add_edge(2, 0);
  g.add_edge(2, 4);
  g.add_edge(4, 2);  // duplicate, idempotent
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 2));
  g.finalize();
  EXPECT_TRUE(g.finalized());
  g.finalize();  // idempotent
  EXPECT_TRUE(g.has_edge(2, 4));
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.max_degree(), 2u);

  // A duplicate leaves finalized storage alone; a new edge on a finalized
  // graph transparently re-enters the build phase (the scenario builder's
  // clique pass relies on both).
  g.add_edge(2, 4);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.finalized());
  g.add_edge(1, 5);
  EXPECT_FALSE(g.finalized());
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(5, 1));
  g.finalize();
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(BuyerId{0}, BuyerId{2}));
  EXPECT_EQ(edges[1], std::make_pair(BuyerId{1}, BuyerId{5}));
  EXPECT_EQ(edges[2], std::make_pair(BuyerId{2}, BuyerId{4}));

  EXPECT_THROW(g.add_edge(1, 1), CheckError);
  EXPECT_THROW(g.add_edge(0, 6), CheckError);
}

TEST(CsrGraphTest, FromEdgesDeduplicatesAndMatchesAddEdge) {
  // One narrow (16-bit ids) and one wide (32-bit ids) vertex count; the
  // wide case puts ids on both sides of the 16-bit boundary.
  for (const std::size_t n : {std::size_t{5}, std::size_t{70000}}) {
    const auto big = static_cast<BuyerId>(n - 1);
    const std::vector<std::pair<BuyerId, BuyerId>> edge_list = {
        {3, 1}, {0, 2}, {1, 3}, {2, 0}, {4, 0}, {big, 1}, {1, big}, {3, 1}};
    const auto bulk = InterferenceGraph::from_edges(n, edge_list);
    InterferenceGraph incremental(n);
    for (const auto& [a, b] : edge_list) incremental.add_edge(a, b);
    SCOPED_TRACE(testing::Message() << "n " << n);
    EXPECT_TRUE(bulk.finalized());
    EXPECT_EQ(bulk.csr_export().narrow, n <= (std::size_t{1} << 16));
    EXPECT_EQ(bulk, incremental);
    EXPECT_EQ(bulk.num_edges(), 4u);
    EXPECT_EQ(bulk.degree(0), 2u);
    EXPECT_EQ(bulk.max_degree(), 2u);
    std::vector<std::size_t> row;
    bulk.for_each_neighbor(1, [&](std::size_t u) { row.push_back(u); });
    EXPECT_EQ(row, (std::vector<std::size_t>{3, n - 1}));
  }
}

}  // namespace
}  // namespace specmatch::graph
