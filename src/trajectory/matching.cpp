#include "trajectory/matching.hpp"

#include <algorithm>
#include <cmath>

#include "common/mathutil.hpp"
#include "vision/matcher.hpp"

namespace crowdmap::trajectory {

std::vector<FrameAnchor> find_anchors(const Trajectory& a, const Trajectory& b,
                                      const MatchConfig& config) {
  // Stage 1: cheap descriptor combination on every key-frame pair; prevents
  // wrong aggregation and gates the expensive SURF match.
  struct Gated {
    std::size_t i;
    std::size_t j;
    double s1;
  };
  std::vector<Gated> gated;
  for (std::size_t i = 0; i < a.keyframes.size(); ++i) {
    for (std::size_t j = 0; j < b.keyframes.size(); ++j) {
      const double s1 = vision::similarity_s1(
          a.keyframes[i].cheap, b.keyframes[j].cheap, config.s1_weights);
      if (s1 >= config.h_s) gated.push_back({i, j, s1});
    }
  }
  // Stage 2: SURF mutual-NN matching (Algorithm 1) on the most promising
  // candidates first, within the configured cost bounds.
  std::sort(gated.begin(), gated.end(),
            [](const Gated& x, const Gated& y) { return x.s1 > y.s1; });
  std::vector<FrameAnchor> anchors;
  int evaluations = 0;
  for (const auto& g : gated) {
    if (evaluations >= config.max_s2_evaluations ||
        static_cast<int>(anchors.size()) >= config.max_anchors) {
      break;
    }
    ++evaluations;
    const double s2 = vision::match_score_s2(a.keyframes[g.i].surf,
                                             b.keyframes[g.j].surf, config.h_d,
                                             config.nn_ratio);
    if (s2 < config.h_f) continue;
    anchors.push_back({g.i, g.j, g.s1, s2});
  }
  return anchors;
}

Pose2 anchor_transform(const KeyFrame& kf_a, const KeyFrame& kf_b) {
  // Cameras saw the same scene => poses coincide in the world frame.
  // b->a: rotate by the heading difference, then translate so that b's
  // key-frame position lands on a's.
  const double dtheta = common::wrap_angle(kf_a.heading - kf_b.heading);
  const geometry::Vec2 t = kf_a.position - kf_b.position.rotated(dtheta);
  return {t, dtheta};
}

namespace {

/// Resampled polyline of a trajectory's motion trace.
[[nodiscard]] std::vector<Vec2> resampled_points(const Trajectory& traj,
                                                 double spacing) {
  std::vector<Vec2> raw;
  raw.reserve(traj.points.size());
  for (const auto& p : traj.points) raw.push_back(p.position);
  return resample_polyline(raw, spacing);
}

/// Index of the resampled point nearest to a position.
[[nodiscard]] int nearest_index(const std::vector<Vec2>& points, Vec2 p) {
  int best = 0;
  double best_dist = 1e18;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = points[i].distance_to(p);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

std::optional<PairMatch> match_trajectories(const Trajectory& a,
                                            const Trajectory& b,
                                            const MatchConfig& config) {
  auto anchors = find_anchors(a, b, config);
  if (anchors.empty()) return std::nullopt;
  // Strongest anchors first; cap the candidate set.
  std::sort(anchors.begin(), anchors.end(),
            [](const FrameAnchor& x, const FrameAnchor& y) { return x.s2 > y.s2; });
  const std::size_t n_candidates =
      std::min<std::size_t>(anchors.size(),
                            static_cast<std::size_t>(config.max_candidates));

  const auto pa = resampled_points(a, config.resample_spacing);
  const auto pb = resampled_points(b, config.resample_spacing);
  if (pa.empty() || pb.empty()) return std::nullopt;

  // Transform consensus: how many anchors imply (approximately) the same
  // rigid transform as the candidate. Sequences of consistent frames are
  // what distinguishes a true overlap from a lone look-alike frame.
  auto consistent_count = [&](const Pose2& t) {
    int count = 0;
    for (const auto& anchor : anchors) {
      const Pose2 ta = anchor_transform(a.keyframes[anchor.kf_a],
                                        b.keyframes[anchor.kf_b]);
      const double dpos = ta.position.distance_to(t.position);
      const double dang = std::abs(common::angle_diff(ta.theta, t.theta));
      if (dpos < config.consensus_dist && dang < config.consensus_angle) ++count;
    }
    return count;
  };

  double best_s3 = 0.0;
  std::size_t best_candidate = anchors.size();
  const double denom = static_cast<double>(std::min(pa.size(), pb.size()));
  for (std::size_t c = 0; c < n_candidates; ++c) {
    const auto& anchor = anchors[c];
    const Pose2 t = anchor_transform(a.keyframes[anchor.kf_a],
                                     b.keyframes[anchor.kf_b]);
    if (consistent_count(t) < config.min_consistent_anchors) continue;
    std::vector<Vec2> tb;
    tb.reserve(pb.size());
    for (const Vec2 p : pb) tb.push_back(t.apply(p));
    // Align LCSS indices at the anchor correspondence.
    const int ia = nearest_index(pa, a.keyframes[anchor.kf_a].position);
    const int jb = nearest_index(tb, t.apply(b.keyframes[anchor.kf_b].position));
    const std::size_t len = lcss_length(pa, tb, config.lcss, ia - jb);
    const double s3 = static_cast<double>(len) / denom;
    if (s3 > best_s3) {
      best_s3 = s3;
      best_candidate = c;
    }
  }
  if (best_s3 < config.h_l || best_candidate >= anchors.size()) {
    return std::nullopt;
  }
  // Final transform: average over the anchors consistent with the winner
  // (multiple frames beat one frame, the sequence-based principle).
  const Pose2 winner = anchor_transform(a.keyframes[anchors[best_candidate].kf_a],
                                        b.keyframes[anchors[best_candidate].kf_b]);
  Vec2 sum_t;
  double sum_sin = 0.0;
  double sum_cos = 0.0;
  int n_used = 0;
  for (const auto& anchor : anchors) {
    const Pose2 ta =
        anchor_transform(a.keyframes[anchor.kf_a], b.keyframes[anchor.kf_b]);
    if (ta.position.distance_to(winner.position) >= config.consensus_dist ||
        std::abs(common::angle_diff(ta.theta, winner.theta)) >=
            config.consensus_angle) {
      continue;
    }
    sum_t += ta.position;
    sum_sin += std::sin(ta.theta);
    sum_cos += std::cos(ta.theta);
    ++n_used;
  }
  PairMatch match;
  match.s3 = best_s3;
  match.b_to_a = n_used > 0
                     ? Pose2{sum_t / n_used, std::atan2(sum_sin, sum_cos)}
                     : winner;
  match.anchors = std::move(anchors);
  return match;
}

std::optional<PairMatch> match_single_image(const Trajectory& a,
                                            const Trajectory& b,
                                            const MatchConfig& config) {
  auto anchors = find_anchors(a, b, config);
  if (anchors.empty()) return std::nullopt;
  const auto best = std::max_element(
      anchors.begin(), anchors.end(),
      [](const FrameAnchor& x, const FrameAnchor& y) { return x.s2 < y.s2; });
  PairMatch match;
  match.s3 = 0.0;
  match.b_to_a =
      anchor_transform(a.keyframes[best->kf_a], b.keyframes[best->kf_b]);
  match.anchors = std::move(anchors);
  return match;
}

}  // namespace crowdmap::trajectory
