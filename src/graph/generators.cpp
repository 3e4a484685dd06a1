#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace specmatch::graph {

double distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

InterferenceGraph geometric(std::span<const Point> positions, double range) {
  SPECMATCH_CHECK_MSG(range >= 0.0, "negative transmission range " << range);
  const std::size_t n = positions.size();

  // Edges are collected into a flat pair list and bulk-loaded, so the input
  // goes straight to finalized flat storage (from_edges) without ever
  // materialising per-vertex build vectors. Each unordered pair is tested
  // exactly once, so the list is duplicate-free.
  std::vector<std::pair<BuyerId, BuyerId>> edge_list;

  // Small inputs (and the degenerate range-0 case, where only coincident
  // points connect) keep the all-pairs scan: no bucketing overhead, and it
  // is the obviously-correct reference for the grid path below.
  constexpr std::size_t kAllPairsLimit = 1024;
  if (n <= kAllPairsLimit || range <= 0.0) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (distance(positions[a], positions[b]) <= range)
          edge_list.emplace_back(static_cast<BuyerId>(a),
                                 static_cast<BuyerId>(b));
      }
    }
    return InterferenceGraph::from_edges(n, edge_list);
  }

  // Grid bucketing with cells of side `range`: a pair within `range` always
  // lands in the same or an adjacent cell (cells two apart are separated by
  // strictly more than `range` on that axis), while every candidate pair is
  // still tested with the exact same distance predicate — so the edge set is
  // identical to the all-pairs scan, in O(n + pairs-in-adjacent-cells)
  // instead of O(n^2). Edge enumeration order differs, which is immaterial:
  // from_edges emits every adjacency row ascending.
  double min_x = positions[0].x;
  double min_y = positions[0].y;
  for (const Point& p : positions) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
  }
  const auto cell_of = [&](const Point& p) {
    return std::pair<std::uint64_t, std::uint64_t>{
        static_cast<std::uint64_t>((p.x - min_x) / range),
        static_cast<std::uint64_t>((p.y - min_y) / range)};
  };
  const auto key_of = [](std::uint64_t cx, std::uint64_t cy) {
    return (cx << 32) | (cy & 0xffffffffu);
  };
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  buckets.reserve(n);
  for (std::size_t a = 0; a < n; ++a) {
    const auto [cx, cy] = cell_of(positions[a]);
    buckets[key_of(cx, cy)].push_back(static_cast<std::uint32_t>(a));
  }

  const auto link_across = [&](const std::vector<std::uint32_t>& from,
                               std::uint64_t cx, std::uint64_t cy) {
    const auto it = buckets.find(key_of(cx, cy));
    if (it == buckets.end()) return;
    for (std::uint32_t a : from) {
      for (std::uint32_t b : it->second) {
        if (distance(positions[a], positions[b]) <= range)
          edge_list.emplace_back(static_cast<BuyerId>(a),
                                 static_cast<BuyerId>(b));
      }
    }
  };
  for (const auto& [key, members] : buckets) {
    const std::uint64_t cx = key >> 32;
    const std::uint64_t cy = key & 0xffffffffu;
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        if (distance(positions[members[a]], positions[members[b]]) <= range)
          edge_list.emplace_back(static_cast<BuyerId>(members[a]),
                                 static_cast<BuyerId>(members[b]));
      }
    }
    // Half the 8-neighbourhood, so each unordered cell pair is visited once.
    link_across(members, cx + 1, cy);
    link_across(members, cx, cy + 1);
    link_across(members, cx + 1, cy + 1);
    if (cy > 0) link_across(members, cx + 1, cy - 1);
  }
  return InterferenceGraph::from_edges(n, edge_list);
}

InterferenceGraph erdos_renyi(std::size_t n, double p, Rng& rng) {
  SPECMATCH_CHECK_MSG(p >= 0.0 && p <= 1.0, "probability " << p);
  InterferenceGraph g(n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      if (rng.bernoulli(p))
        g.add_edge(static_cast<BuyerId>(a), static_cast<BuyerId>(b));
  return g;
}

InterferenceGraph complete(std::size_t n) {
  InterferenceGraph g(n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      g.add_edge(static_cast<BuyerId>(a), static_cast<BuyerId>(b));
  return g;
}

InterferenceGraph empty(std::size_t n) { return InterferenceGraph(n); }

InterferenceGraph cycle(std::size_t n) {
  InterferenceGraph g(n);
  if (n < 2) return g;
  for (std::size_t a = 0; a + 1 < n; ++a)
    g.add_edge(static_cast<BuyerId>(a), static_cast<BuyerId>(a + 1));
  if (n > 2) g.add_edge(static_cast<BuyerId>(n - 1), 0);
  return g;
}

InterferenceGraph path(std::size_t n) {
  InterferenceGraph g(n);
  for (std::size_t a = 0; a + 1 < n; ++a)
    g.add_edge(static_cast<BuyerId>(a), static_cast<BuyerId>(a + 1));
  return g;
}

}  // namespace specmatch::graph
