#include "trajectory/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <numeric>

#include "common/mathutil.hpp"

namespace crowdmap::trajectory {

std::vector<Vec2> AggregationResult::global_points(
    std::span<const Trajectory> trajectories) const {
  std::vector<Vec2> out;
  for (std::size_t i = 0; i < trajectories.size() && i < global_pose.size(); ++i) {
    if (!global_pose[i]) continue;
    for (const auto& p : trajectories[i].points) {
      out.push_back(global_pose[i]->apply(p.position));
    }
  }
  return out;
}

namespace {

[[nodiscard]] double edge_strength(const MatchEdge& edge) noexcept {
  return (1.0 + static_cast<double>(edge.anchor_count)) * (0.2 + edge.s3);
}

/// The transform of `edge` oriented so it maps `from`'s local frame into
/// `to`'s frame of reference is not needed here; instead we express: given
/// G_u, the pose edge (a,b, b_to_a) implies G_b = G_a ∘ b_to_a.
struct Placement {
  std::vector<std::optional<geometry::Pose2>> pose;
  std::size_t placed = 0;
};

/// Places the largest component along a maximum spanning tree (strongest
/// edges first), then relaxes poses over all edges.
[[nodiscard]] Placement place_and_relax(std::size_t n,
                                        const std::vector<MatchEdge>& edges,
                                        int relaxation_sweeps) {
  Placement out;
  out.pose.assign(n, std::nullopt);
  if (n == 0) return out;

  // Kruskal maximum spanning forest.
  std::vector<std::size_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&edges](std::size_t x, std::size_t y) {
    return edge_strength(edges[x]) > edge_strength(edges[y]);
  });
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<std::vector<std::size_t>> tree_adj(n);
  std::vector<std::size_t> comp_size(n, 1);
  for (const std::size_t e : order) {
    const std::size_t ra = find(edges[e].a);
    const std::size_t rb = find(edges[e].b);
    if (ra == rb) continue;
    parent[ra] = rb;
    comp_size[rb] += comp_size[ra];
    tree_adj[edges[e].a].push_back(e);
    tree_adj[edges[e].b].push_back(e);
  }

  // Root of the largest component.
  std::size_t root = 0;
  std::size_t best_size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = find(i);
    if (comp_size[r] > best_size) {
      best_size = comp_size[r];
      root = r;
    }
  }
  // BFS along the spanning tree from any member of the winning component.
  std::size_t start = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (find(i) == root) {
      start = i;
      break;
    }
  }
  if (start == n) return out;
  out.pose[start] = geometry::Pose2{};
  std::deque<std::size_t> frontier{start};
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop_front();
    for (const std::size_t e : tree_adj[u]) {
      const auto& edge = edges[e];
      const std::size_t v = edge.a == u ? edge.b : edge.a;
      if (out.pose[v]) continue;
      out.pose[v] = edge.b == v ? out.pose[u]->compose(edge.b_to_a)
                                : out.pose[u]->compose(edge.b_to_a.inverse());
      frontier.push_back(v);
    }
  }

  // Gauss–Seidel pose relaxation over ALL edges (not just the tree): each
  // placed trajectory's pose becomes the strength-weighted average of the
  // poses its neighbors imply for it. The root stays pinned as the gauge.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    adj[edges[e].a].push_back(e);
    adj[edges[e].b].push_back(e);
  }
  for (int sweep = 0; sweep < relaxation_sweeps; ++sweep) {
    for (std::size_t u = 0; u < n; ++u) {
      if (u == start || !out.pose[u]) continue;
      Vec2 sum_pos;
      double sum_sin = 0.0;
      double sum_cos = 0.0;
      double sum_w = 0.0;
      for (const std::size_t e : adj[u]) {
        const auto& edge = edges[e];
        const std::size_t v = edge.a == u ? edge.b : edge.a;
        if (!out.pose[v]) continue;
        const geometry::Pose2 implied =
            edge.b == u ? out.pose[v]->compose(edge.b_to_a)
                        : out.pose[v]->compose(edge.b_to_a.inverse());
        const double w = edge_strength(edge);
        sum_pos += implied.position * w;
        sum_sin += std::sin(implied.theta) * w;
        sum_cos += std::cos(implied.theta) * w;
        sum_w += w;
      }
      if (sum_w <= 0) continue;
      const geometry::Pose2 target{sum_pos / sum_w,
                                   std::atan2(sum_sin, sum_cos)};
      // Damped update.
      const double alpha = 0.5;
      out.pose[u]->position =
          out.pose[u]->position * (1 - alpha) + target.position * alpha;
      out.pose[u]->theta = common::wrap_angle(
          out.pose[u]->theta +
          alpha * common::angle_diff(target.theta, out.pose[u]->theta));
    }
  }

  out.placed = static_cast<std::size_t>(
      std::count_if(out.pose.begin(), out.pose.end(),
                    [](const auto& p) { return p.has_value(); }));
  return out;
}

}  // namespace

AggregationResult place_edges(std::size_t n, std::vector<MatchEdge> edges,
                              const AggregationConfig& config) {
  AggregationResult result;
  result.global_pose.assign(n, std::nullopt);
  result.edges = std::move(edges);
  if (n == 0) return result;

  auto placement = place_and_relax(n, result.edges, config.relaxation_sweeps);

  // Outlier edge rejection: edges whose transform disagrees with the relaxed
  // placement are wrong merges (corridor aliasing); drop them and re-place.
  // Round 1 never orphans a node — its strongest edge survives, since a
  // trajectory whose heading estimate is merely biased (long gyro
  // integration, magnetic disturbance) still belongs on the map. Round 2
  // re-checks the refreshed placement without the restore: a restored edge
  // that still cannot agree was a wrong merge after all, and its node is
  // dropped rather than pinned somewhere false.
  if (config.edge_outlier_dist > 0 && !result.edges.empty()) {
    for (const bool allow_restore : {true, false}) {
      std::vector<bool> keep(result.edges.size(), false);
      for (std::size_t e = 0; e < result.edges.size(); ++e) {
        const auto& edge = result.edges[e];
        const auto& pa = placement.pose[edge.a];
        const auto& pb = placement.pose[edge.b];
        if (!pa || !pb) {
          keep[e] = true;
          continue;
        }
        // Implied pose of b from a along this edge vs the relaxed pose of b.
        const geometry::Pose2 implied = pa->compose(edge.b_to_a);
        const double dpos = implied.position.distance_to(pb->position);
        const double dang =
            std::abs(common::angle_diff(implied.theta, pb->theta));
        keep[e] = dpos <= config.edge_outlier_dist &&
                  dang <= config.edge_outlier_angle;
      }
      if (allow_restore) {
        // Restore the strongest edge of any node that lost all of its edges.
        std::vector<std::size_t> best_edge(n, result.edges.size());
        std::vector<bool> has_kept(n, false);
        for (std::size_t e = 0; e < result.edges.size(); ++e) {
          for (const std::size_t node : {result.edges[e].a, result.edges[e].b}) {
            if (keep[e]) has_kept[node] = true;
            if (best_edge[node] == result.edges.size() ||
                edge_strength(result.edges[e]) >
                    edge_strength(result.edges[best_edge[node]])) {
              best_edge[node] = e;
            }
          }
        }
        for (std::size_t node = 0; node < n; ++node) {
          if (!has_kept[node] && best_edge[node] < result.edges.size()) {
            keep[best_edge[node]] = true;
          }
        }
      }
      std::vector<MatchEdge> kept;
      kept.reserve(result.edges.size());
      for (std::size_t e = 0; e < result.edges.size(); ++e) {
        if (keep[e]) kept.push_back(result.edges[e]);
      }
      if (kept.size() == result.edges.size()) break;  // converged
      result.edges = std::move(kept);
      placement = place_and_relax(n, result.edges, config.relaxation_sweeps);
    }
  }

  result.global_pose = std::move(placement.pose);
  result.placed_count = placement.placed;
  return result;
}

AggregationResult aggregate_trajectories(std::span<const Trajectory> trajectories,
                                         const AggregationConfig& config,
                                         const AggregationRuntime& runtime) {
  const std::size_t n = trajectories.size();
  // Pairwise matching, fanned out over the pool. Each (i, j) pair owns slot p
  // in lexicographic pair order and the merge below walks slots in that same
  // order, so the edge list is identical to the serial nested loop's.
  const std::size_t n_pairs = n * (n - 1) / 2;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n_pairs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  std::vector<PairDecision> slots(n_pairs);
  common::parallel_for(runtime.pool, n_pairs, [&](std::size_t p) {
    const auto [i, j] = pairs[p];
    if (runtime.pair_lookup) {
      if (auto cached = runtime.pair_lookup(i, j)) {
        slots[p] = *cached;
        return;
      }
    }
    const std::optional<PairMatch> match =
        config.method == AggregationMethod::kSequenceBased
            ? match_trajectories(trajectories[i], trajectories[j], config.match)
            : match_single_image(trajectories[i], trajectories[j], config.match);
    PairDecision decision;
    if (match) {
      decision.matched = true;
      decision.b_to_a = match->b_to_a;
      decision.s3 = match->s3;
      decision.anchor_count = match->anchors.size();
    }
    slots[p] = decision;
    if (runtime.pair_store) runtime.pair_store(i, j, decision);
  });
  std::vector<MatchEdge> edges;
  for (std::size_t p = 0; p < n_pairs; ++p) {
    if (!slots[p].matched) continue;
    MatchEdge edge;
    edge.a = pairs[p].first;
    edge.b = pairs[p].second;
    edge.b_to_a = slots[p].b_to_a;
    edge.s3 = slots[p].s3;
    edge.anchor_count = slots[p].anchor_count;
    edges.push_back(edge);
  }
  return place_edges(n, std::move(edges), config);
}

}  // namespace crowdmap::trajectory
