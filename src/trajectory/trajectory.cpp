#include "trajectory/trajectory.hpp"

#include <algorithm>

#include "imaging/ncc.hpp"
#include "sensors/heading.hpp"

namespace crowdmap::trajectory {

sensors::TrackPoint track_at(const std::vector<sensors::TrackPoint>& track,
                             double t) {
  if (track.empty()) return {};
  if (t <= track.front().t) return track.front();
  if (t >= track.back().t) return track.back();
  const auto it = std::lower_bound(
      track.begin(), track.end(), t,
      [](const sensors::TrackPoint& p, double tt) { return p.t < tt; });
  const auto hi = it;
  const auto lo = it - 1;
  const double span = hi->t - lo->t;
  const double frac = span > 1e-12 ? (t - lo->t) / span : 0.0;
  sensors::TrackPoint out;
  out.t = t;
  out.position = lo->position + (hi->position - lo->position) * frac;
  out.heading = lo->heading + frac * (hi->heading - lo->heading);
  return out;
}

Trajectory extract_trajectory(const sim::SensorRichVideo& video,
                              const ExtractionConfig& config,
                              common::ThreadPool* pool) {
  Trajectory traj;
  traj.video_id = video.video_id;
  traj.user_id = video.user_id;
  traj.building = video.building;
  traj.true_room_id = video.true_room_id;
  traj.true_junk = video.junk;
  traj.lighting = video.lighting;

  // Motion trace from inertial data.
  traj.points = sensors::dead_reckon(video.imu, config.dead_reckoning);
  // Per-sample heading estimates for key-frame headings.
  const auto headings = sensors::estimate_headings(
      video.imu, config.dead_reckoning.heading);

  auto heading_at = [&](double t) -> double {
    if (video.imu.samples.empty()) return 0.0;
    const auto it = std::lower_bound(
        video.imu.samples.begin(), video.imu.samples.end(), t,
        [](const sensors::ImuSample& s, double tt) { return s.t < tt; });
    const std::size_t idx = std::min(
        static_cast<std::size_t>(it - video.imu.samples.begin()),
        headings.size() - 1);
    return headings[idx];
  };

  // Key-frame selection: HOG + NCC against the last kept frame (§III.B.I).
  // Each frame is probed on its own (gray, unqualified-data gate, HOG), so
  // the probes fan out into per-frame slots; the selection over them is a
  // serial chain. Descriptors are computed only for the frames that survive
  // selection and decimation.
  struct Probe {
    imaging::Image gray;
    std::vector<float> hog;
    bool qualified = false;
  };
  std::vector<Probe> probes(video.frames.size());
  common::parallel_for(pool, probes.size(), [&](std::size_t i) {
    Probe& probe = probes[i];
    probe.gray = video.frames[i].image.to_gray();
    // Unqualified-data gate: blurred/featureless frames carry no anchors.
    probe.qualified = probe.gray.stddev() >= config.min_frame_stddev;
    if (probe.qualified) probe.hog = imaging::hog_descriptor(probe.gray, config.hog);
  });

  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (!probes[i].qualified) continue;
    if (!selected.empty()) {
      const Probe& last = probes[selected.back()];
      // Extremely similar = HOG distance below h_g AND NCC above the cap;
      // NCC is the dearer test, so it runs only when the HOG test passes.
      const bool extremely_similar =
          imaging::descriptor_distance(probes[i].hog, last.hog) <
              config.keyframe_hog_min &&
          imaging::normalized_cross_correlation(probes[i].gray, last.gray) >
              config.keyframe_ncc_max;
      if (extremely_similar) continue;
    }
    selected.push_back(i);
  }
  // Uniform decimation to the key-frame budget (a budget of one keeps the
  // first selected frame).
  if (config.max_keyframes > 0 && selected.size() > config.max_keyframes) {
    const std::size_t steps = config.max_keyframes - 1;
    std::vector<std::size_t> kept;
    for (std::size_t k = 0; k < config.max_keyframes; ++k) {
      const std::size_t idx =
          steps == 0 ? 0 : k * (selected.size() - 1) / steps;
      if (!kept.empty() && kept.back() == selected[idx]) continue;
      kept.push_back(selected[idx]);
    }
    selected = std::move(kept);
  }

  traj.keyframes.resize(selected.size());
  common::parallel_for(pool, selected.size(), [&](std::size_t k) {
    const std::size_t i = selected[k];
    const auto& frame = video.frames[i];
    KeyFrame& kf = traj.keyframes[k];
    kf.frame_index = i;
    kf.t = frame.t;
    kf.position = track_at(traj.points, frame.t).position;
    kf.heading = heading_at(frame.t);
    kf.cheap = vision::compute_cheap_descriptors(frame.image);
    kf.surf = vision::detect_and_describe(probes[i].gray, config.surf);
    kf.true_position = frame.true_pose.position;
    kf.true_heading = frame.true_pose.theta;
    kf.gray = std::move(probes[i].gray);
  });
  return traj;
}

double keyframe_ratio(const Trajectory& traj, std::size_t source_frames) {
  if (source_frames == 0) return 0.0;
  return static_cast<double>(traj.keyframes.size()) /
         static_cast<double>(source_frames);
}

}  // namespace crowdmap::trajectory
