// Tests for pose-graph placement of a given edge set (place_edges): the
// step aggregation ends with, and the one WiFi-based aggregation reuses.
#include <gtest/gtest.h>

#include "trajectory/aggregate.hpp"

namespace ct = crowdmap::trajectory;

TEST(PlaceEdges, SyntheticChainPlacesAll) {
  // Three nodes in a chain: 0 -(b_to_a = +x 5)- 1 -(+x 5)- 2.
  std::vector<ct::MatchEdge> edges;
  ct::MatchEdge e01;
  e01.a = 0;
  e01.b = 1;
  e01.b_to_a = {{5, 0}, 0.0};
  e01.s3 = 0.9;
  e01.anchor_count = 4;
  ct::MatchEdge e12 = e01;
  e12.a = 1;
  e12.b = 2;
  edges = {e01, e12};
  const auto result = ct::place_edges(3, edges, {});
  EXPECT_EQ(result.placed_count, 3u);
  ASSERT_TRUE(result.global_pose[2].has_value());
  // Node 2 sits at +10 x relative to node 0 (the gauge).
  EXPECT_NEAR(result.global_pose[2]->position.x -
                  result.global_pose[0]->position.x,
              10.0, 1e-6);
}

TEST(PlaceEdges, InconsistentEdgeRejected) {
  // A triangle where one edge contradicts the other two: after relaxation
  // the bad edge must be discarded, leaving a consistent placement.
  auto edge = [](std::size_t a, std::size_t b, double tx) {
    ct::MatchEdge e;
    e.a = a;
    e.b = b;
    e.b_to_a = {{tx, 0}, 0.0};
    e.s3 = 0.9;
    e.anchor_count = 4;
    return e;
  };
  std::vector<ct::MatchEdge> edges = {edge(0, 1, 5), edge(1, 2, 5),
                                      edge(0, 2, 30)};  // liar
  const auto result = ct::place_edges(3, edges, {});
  EXPECT_EQ(result.placed_count, 3u);
  EXPECT_EQ(result.edges.size(), 2u);  // the liar was pruned
  EXPECT_NEAR(result.global_pose[2]->position.x -
                  result.global_pose[0]->position.x,
              10.0, 1.0);
}
