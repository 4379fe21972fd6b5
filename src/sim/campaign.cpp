#include "sim/campaign.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "common/thread_pool.hpp"

namespace crowdmap::sim {

namespace {

// Trims IMU samples recorded after `cutoff` (synchronized streams share the
// video clock, so a timestamp comparison is the whole truncation).
void trim_imu_after(SensorRichVideo& video, double cutoff) {
  auto& samples = video.imu.samples;
  while (!samples.empty() && samples.back().t > cutoff) samples.pop_back();
}

// Damages one upload per the adversarial plan. `adv_rng` is a dedicated
// per-video stream: the base campaign never observes these draws.
void apply_adversarial(SensorRichVideo& video, const AdversarialOptions& adv,
                       common::Rng adv_rng) {
  if (adv_rng.chance(adv.truncate_fraction) &&
      video.frames.size() > adv.min_keep_frames) {
    const double frac = adv_rng.uniform(0.4, 0.8);
    const std::size_t keep = std::max(
        adv.min_keep_frames,
        static_cast<std::size_t>(frac *
                                 static_cast<double>(video.frames.size())));
    if (keep < video.frames.size()) {
      video.frames.resize(keep);
      trim_imu_after(video, video.frames.back().t);
    }
  }
  if (adv_rng.chance(adv.dropout_fraction) && !video.frames.empty()) {
    // The camera keeps rolling but the IMU dies partway through.
    const double span = video.frames.back().t - video.frames.front().t;
    const double cutoff =
        video.frames.front().t + adv_rng.uniform(0.5, 0.9) * span;
    trim_imu_after(video, cutoff);
  }
}

// One upload of the campaign: every draw the campaign Rng makes for it. The
// upload's video id is its position in the schedule.
struct ScheduledVideo {
  std::size_t user = 0;
  const RoomSpec* room = nullptr;  // nullptr: hallway-only walk
  bool junk = false;
  Lighting lighting;
};

}  // namespace

void generate_campaign_streaming(
    const FloorPlanSpec& spec, const CampaignOptions& options, std::uint64_t seed,
    const std::function<void(SensorRichVideo&&)>& sink) {
  const Scene scene = Scene::from_spec(spec, seed);

  common::Rng rng(seed);
  // One persistent simulator per user so per-user sensor biases persist
  // across that user's uploads.
  std::vector<UserSimulator> users;
  users.reserve(static_cast<std::size_t>(std::max(options.users, 1)));
  for (int u = 0; u < std::max(options.users, 1); ++u) {
    SimOptions sim = options.sim;
    // Per-user gait variation.
    common::Rng user_rng = rng.stream(0x5EED0000u + static_cast<std::uint64_t>(u));
    sim.walk_speed *= user_rng.uniform(0.85, 1.15);
    sim.step_frequency *= user_rng.uniform(0.92, 1.08);
    users.emplace_back(scene, spec, sim, user_rng.fork());
  }

  // The campaign-level schedule, drawn serially: users take uploads round
  // robin; a room visit draws its lighting, a hallway walk its junk flag and
  // then its lighting. Only the simulators' own streams are left to render.
  auto lighting = [&rng, &options] {
    return rng.chance(options.night_fraction) ? Lighting::night()
                                              : Lighting::day();
  };
  std::vector<ScheduledVideo> schedule;
  for (const auto& room : spec.rooms) {
    for (int k = 0; k < options.room_videos_per_room; ++k) {
      schedule.push_back({schedule.size() % users.size(), &room, false,
                          lighting()});
    }
  }
  for (int k = 0; k < options.hallway_walks; ++k) {
    const std::size_t user = schedule.size() % users.size();
    const bool junk = rng.chance(options.junk_fraction);
    schedule.push_back({user, nullptr, junk, lighting()});
  }

  auto render = [&](std::size_t video_id) {
    const ScheduledVideo& task = schedule[video_id];
    UserSimulator& user = users[task.user];
    SensorRichVideo video;
    if (task.room != nullptr) {
      video = user.room_visit(*task.room, options.hallway_distance,
                              task.lighting);
    } else if (task.junk) {
      video = user.junk_video(task.lighting);
    } else {
      video = user.hallway_walk(task.lighting);
    }
    video.user_id = static_cast<int>(task.user);
    // Campaign-wide upload ids: each simulator numbers its own videos from
    // 0, which would collide across users; the cloud side relies on upload
    // identity being unique.
    video.video_id = static_cast<int>(video_id);
    if (options.adversarial.enabled()) {
      apply_adversarial(video, options.adversarial,
                        rng.stream(0xADB10000u + video_id));
    }
    return video;
  };

  // A window of users.size() consecutive uploads holds each user once, so
  // its videos render in parallel while every simulator still renders its
  // own uploads in schedule order. The sink then sees them in id order.
  const std::size_t window = users.size();
  std::vector<SensorRichVideo> rendered(window);
  const std::size_t threads = std::min<std::size_t>(
      std::max(std::thread::hardware_concurrency(), 1u), window);
  // threads counts the calling thread, which parallel_for puts to work too.
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<common::ThreadPool>(threads - 1);
  for (std::size_t first = 0; first < schedule.size(); first += window) {
    const std::size_t n = std::min(window, schedule.size() - first);
    common::parallel_for(pool.get(), n, [&](std::size_t i) {
      rendered[i] = render(first + i);
    });
    for (std::size_t i = 0; i < n; ++i) sink(std::move(rendered[i]));
  }
}

Campaign generate_campaign(const FloorPlanSpec& spec,
                           const CampaignOptions& options, std::uint64_t seed) {
  Campaign campaign;
  campaign.spec = spec;
  campaign.scene = Scene::from_spec(spec, seed);
  generate_campaign_streaming(spec, options, seed,
                              [&campaign](SensorRichVideo&& video) {
                                campaign.videos.push_back(std::move(video));
                              });
  return campaign;
}

}  // namespace crowdmap::sim
