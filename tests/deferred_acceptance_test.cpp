#include "matching/deferred_acceptance.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/components.hpp"
#include "matching/paper_examples.hpp"
#include "matching/stability.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace specmatch::matching {
namespace {

using testutil::members;

StageIConfig traced() {
  StageIConfig config;
  config.record_trace = true;
  return config;
}

// ---- The paper's toy example, Fig. 1 --------------------------------------

TEST(ToyExampleStageI, ReproducesFinalMatchingAndWelfare) {
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market);
  // Fig. 1(e): a:{4}, b:{3,5}, c:{1,2} in paper numbering (1-based).
  EXPECT_EQ(members(result.matching, 0), (std::vector<BuyerId>{3}));
  EXPECT_EQ(members(result.matching, 1), (std::vector<BuyerId>{2, 4}));
  EXPECT_EQ(members(result.matching, 2), (std::vector<BuyerId>{0, 1}));
  EXPECT_DOUBLE_EQ(result.matching.social_welfare(market), 27.0);
}

TEST(ToyExampleStageI, ConvergesInFourRounds) {
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market);
  EXPECT_EQ(result.rounds, 4);
}

TEST(ToyExampleStageI, RoundByRoundTraceMatchesFigure1) {
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market, traced());
  ASSERT_EQ(result.trace.size(), 4u);

  // Round 1 (Fig. 1a/b): 1->a, 2->a, 3->b, 4->b, 5->c; lists a:{1}, b:{3},
  // c:{5}.
  const auto& r1 = result.trace[0];
  EXPECT_EQ(r1.proposals,
            (std::vector<std::pair<BuyerId, ChannelId>>{
                {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}}));
  EXPECT_EQ(r1.waiting_lists[0], (std::vector<BuyerId>{0}));
  EXPECT_EQ(r1.waiting_lists[1], (std::vector<BuyerId>{2}));
  EXPECT_EQ(r1.waiting_lists[2], (std::vector<BuyerId>{4}));

  // Round 2 (Fig. 1c): 2->b, 4->a; a evicts 1 for 4.
  const auto& r2 = result.trace[1];
  EXPECT_EQ(r2.proposals, (std::vector<std::pair<BuyerId, ChannelId>>{
                              {1, 1}, {3, 0}}));
  EXPECT_EQ(r2.waiting_lists[0], (std::vector<BuyerId>{3}));
  EXPECT_EQ(r2.waiting_lists[1], (std::vector<BuyerId>{2}));
  EXPECT_EQ(r2.waiting_lists[2], (std::vector<BuyerId>{4}));

  // Round 3 (Fig. 1d): 1->b, 2->c; c evicts 5 for 2.
  const auto& r3 = result.trace[2];
  EXPECT_EQ(r3.proposals, (std::vector<std::pair<BuyerId, ChannelId>>{
                              {0, 1}, {1, 2}}));
  EXPECT_EQ(r3.waiting_lists[0], (std::vector<BuyerId>{3}));
  EXPECT_EQ(r3.waiting_lists[1], (std::vector<BuyerId>{2}));
  EXPECT_EQ(r3.waiting_lists[2], (std::vector<BuyerId>{1}));

  // Round 4 (Fig. 1e): 1->c, 5->b; final lists a:{4}, b:{3,5}, c:{1,2}.
  const auto& r4 = result.trace[3];
  EXPECT_EQ(r4.proposals, (std::vector<std::pair<BuyerId, ChannelId>>{
                              {0, 2}, {4, 1}}));
  EXPECT_EQ(r4.waiting_lists[0], (std::vector<BuyerId>{3}));
  EXPECT_EQ(r4.waiting_lists[1], (std::vector<BuyerId>{2, 4}));
  EXPECT_EQ(r4.waiting_lists[2], (std::vector<BuyerId>{0, 1}));
}

TEST(ToyExampleStageI, CountsProposalsAndEvictions) {
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market);
  // 5 + 2 + 2 + 2 proposals across the four rounds.
  EXPECT_EQ(result.total_proposals, 11);
  // Buyer 1 evicted from a (round 2), buyer 5 evicted from c (round 3).
  EXPECT_EQ(result.total_evictions, 2);
}

TEST(ToyExampleStageI, StageIResultIsNotNashStable) {
  // The motivating observation of §III-B2: buyer 2 could join seller a.
  const auto market = toy_example();
  const auto result = run_deferred_acceptance(market);
  const auto deviation = find_nash_deviation(market, result.matching);
  ASSERT_TRUE(deviation.has_value());
  EXPECT_EQ(deviation->buyer, 1);
  EXPECT_EQ(deviation->target, 0);
  EXPECT_DOUBLE_EQ(deviation->current_utility, 4.0);
  EXPECT_DOUBLE_EQ(deviation->deviation_utility, 6.0);
}

// ---- General properties -----------------------------------------------------

class StageIPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StageIPropertyTest, OutputIsInterferenceFreeAndIndividuallyRational) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 5;
  params.num_buyers = 14;
  const auto market = workload::generate_market(params, rng);
  const auto result = run_deferred_acceptance(market);
  result.matching.check_consistent();
  EXPECT_TRUE(is_interference_free(market, result.matching));
  EXPECT_TRUE(is_individual_rational(market, result.matching));
}

TEST_P(StageIPropertyTest, RoundBoundOfProposition1) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 4;
  params.num_buyers = 12;
  const auto market = workload::generate_market(params, rng);
  const auto result = run_deferred_acceptance(market);
  EXPECT_LE(result.rounds, market.num_channels() * market.num_buyers());
  EXPECT_LE(result.total_proposals,
            static_cast<std::int64_t>(market.num_channels()) *
                market.num_buyers());
}

TEST_P(StageIPropertyTest, DeterministicAcrossRuns) {
  Rng rng(GetParam());
  workload::WorkloadParams params;
  params.num_sellers = 3;
  params.num_buyers = 10;
  const auto market = workload::generate_market(params, rng);
  const auto a = run_deferred_acceptance(market);
  const auto b = run_deferred_acceptance(market);
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.rounds, b.rounds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StageIPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 11u, 23u,
                                           101u));

TEST(StageITest, CompleteGraphReducesToOneToOneMatching) {
  // Proposition 1's worst case: every channel's graph complete -> each
  // seller keeps exactly one buyer, the highest bidder she ever saw.
  const int M = 3, N = 6;
  std::vector<double> prices;
  Rng rng(5);
  for (int i = 0; i < M * N; ++i) prices.push_back(rng.uniform(0.1, 1.0));
  std::vector<graph::InterferenceGraph> graphs;
  for (int i = 0; i < M; ++i)
    graphs.push_back(graph::complete(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, std::move(prices),
                                      std::move(graphs));
  const auto result = run_deferred_acceptance(market);
  for (ChannelId i = 0; i < M; ++i)
    EXPECT_LE(result.matching.members_of(i).count(), 1u);
  EXPECT_LE(result.matching.num_matched(), M);
}

TEST(StageITest, EmptyGraphsGiveEveryoneTheirFavourite) {
  const int M = 3, N = 5;
  std::vector<double> prices;
  Rng rng(6);
  for (int i = 0; i < M * N; ++i) prices.push_back(rng.uniform(0.1, 1.0));
  std::vector<graph::InterferenceGraph> graphs(
      static_cast<std::size_t>(M),
      graph::InterferenceGraph(static_cast<std::size_t>(N)));
  const market::SpectrumMarket market(M, N, std::move(prices),
                                      std::move(graphs));
  const auto result = run_deferred_acceptance(market);
  EXPECT_EQ(result.rounds, 1);
  for (BuyerId j = 0; j < N; ++j) {
    EXPECT_EQ(result.matching.seller_of(j),
              market.buyer_preference_order(j).front());
  }
}

// The seller guard, component by component. Buyers a=0 and r=4 head the
// waiting list of channel 0 after round 1; p=1, q=2 and s=5 lose channel 1
// to z=3 and propose to channel 0 in round 2. GWMIN over {a, p, q} picks p
// (7/2 > 10/3), which strands q: {p, q} is worth 8 < a's 10. Over {r, s} it
// picks s, worth 3 > r's 2. Where the two pairs are separate components,
// only the first reverts and r, evicted, settles on channel 1 (where it has
// no neighbour). Where z's edges join channel 0 into one component, the
// verdict is the whole channel's, 11 < 12, and everything reverts.
market::SpectrumMarket guard_market(bool single_component) {
  const int M = 2, N = 6;
  //                            a   p  q  z    r  s
  std::vector<double> prices = {10, 7, 1, 0.5, 2, 3,   // channel 0
                                1,  8, 2, 9,   1, 6};  // channel 1
  graph::InterferenceGraph ch0(N);
  ch0.add_edge(0, 1);
  ch0.add_edge(0, 2);
  ch0.add_edge(4, 5);
  if (single_component) {  // z is never a channel-0 candidate
    ch0.add_edge(2, 3);
    ch0.add_edge(3, 4);
  }
  graph::InterferenceGraph ch1(N);
  for (BuyerId u : {1, 2, 3, 5})
    for (BuyerId v : {1, 2, 3, 5})
      if (u < v) ch1.add_edge(u, v);
  std::vector<graph::InterferenceGraph> graphs;
  graphs.push_back(std::move(ch0));
  graphs.push_back(std::move(ch1));
  return market::SpectrumMarket(M, N, std::move(prices), std::move(graphs));
}

TEST(StageITest, GuardRevertsOnlyTheComponentsTheGreedyMadeWorse) {
  for (const bool single : {true, false}) {
    const auto market = guard_market(single);
    EXPECT_EQ(market.graph(0).components().num_components(),
              single ? 1u : 3u);
    const std::vector<BuyerId> ch0 =
        single ? std::vector<BuyerId>{0, 4} : std::vector<BuyerId>{0, 5};
    const std::vector<BuyerId> ch1 =
        single ? std::vector<BuyerId>{3} : std::vector<BuyerId>{3, 4};
    // Whole-graph solves and per-component shards reach the same guard.
    for (const int component_min : {-1, 1}) {
      SCOPED_TRACE(testing::Message() << "single " << single
                                      << " component_min " << component_min);
      StageIConfig config = traced();
      config.component_min = component_min;
      const auto result = run_deferred_acceptance(market, config);
      ASSERT_GE(result.trace.size(), 2u);
      EXPECT_EQ(result.trace[0].waiting_lists[0],
                (std::vector<BuyerId>{0, 4}));
      EXPECT_EQ(result.trace[1].waiting_lists[0], ch0);
      EXPECT_EQ(members(result.matching, 0), ch0);
      EXPECT_EQ(members(result.matching, 1), ch1);
    }
  }
}

TEST(StageITest, ExactCoalitionPolicyNeverWorseOnToyExample) {
  const auto market = toy_example();
  StageIConfig exact;
  exact.coalition_policy = graph::MwisAlgorithm::kExact;
  const auto greedy = run_deferred_acceptance(market);
  const auto precise = run_deferred_acceptance(market, exact);
  EXPECT_GE(precise.matching.social_welfare(market) + 1e-9,
            greedy.matching.social_welfare(market) * 0.9);
}

}  // namespace
}  // namespace specmatch::matching
