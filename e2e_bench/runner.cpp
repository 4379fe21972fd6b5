// End-to-end benchmark runner: runs one workload through api::v2::Client,
// checks the outputs, and prints the end-to-end metrics (untraced) or the
// per-layer metrics (traced). run.py builds this file and forwards its
// arguments; README.md in this directory documents workloads and metrics.
//
// The runner only calls the program's public functions. Spans are recorded
// here, around each call into a layer, and never read from the program's own
// observability code.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "api/v2.hpp"
#include "common/simd.hpp"
#include "core/incremental.hpp"
#include "eval/datasets.hpp"
#include "floorplan/arrange.hpp"
#include "floorplan/eval.hpp"
#include "floorplan/serialize.hpp"
#include "mapping/skeleton.hpp"
#include "room/layout.hpp"
#include "room/panorama_select.hpp"
#include "sim/campaign.hpp"
#include "trajectory/aggregate.hpp"
#include "trajectory/trajectory.hpp"
#include "vision/matcher.hpp"
#include "vision/surf.hpp"

namespace {

using namespace crowdmap;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_process_start).count();
}

// ------------------------------------------------------------- statistics ---

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ spans ---

/// In-memory span tree, written as Chrome trace JSON at exit. Top-level
/// spans (setup, rounds, checks, replay) are recorded whenever tracing is on;
/// nested spans only while `nested` is on, so a traced run can alternate
/// traced and untraced rounds and measure the tracing overhead.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
    std::uint64_t tid = 0;
  };

  bool enabled = false;
  std::atomic<bool> nested{true};

  int open(const std::string& name, int parent, bool top) {
    if (!enabled || (!top && !nested.load())) return -1;
    const double start = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, -1.0, parent,
                      std::hash<std::thread::id>{}(std::this_thread::get_id())});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    if (id < 0) return;
    const double end = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
  }

  [[nodiscard]] std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Durations of every closed span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : snapshot()) {
      if (s.name == name && s.end >= s.start) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Per span: its duration minus the part covered by its children.
  [[nodiscard]] static std::vector<double> self_times(
      const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> cover(spans.size());
    for (const auto& s : spans) {
      if (s.parent >= 0 && s.end >= s.start) {
        cover[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    std::vector<double> out(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& me = spans[i];
      out[i] = (me.end - me.start) - union_length(cover[i], me.start, me.end);
    }
    return out;
  }

  /// Share of [0, wall_end] covered by no top-level span.
  [[nodiscard]] double unattributed_share(double wall_end) const {
    std::vector<std::pair<double, double>> top;
    for (const auto& s : snapshot()) {
      if (s.parent < 0 && s.end >= s.start) top.emplace_back(s.start, s.end);
    }
    return 1.0 - ratio(union_length(top, 0.0, wall_end), wall_end);
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    const auto spans = snapshot();
    const auto self = self_times(spans);
    std::map<std::uint64_t, int> tids;
    const char* sep = "";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (s.end < s.start) continue;
      const int tid = tids.emplace(s.tid, static_cast<int>(tids.size())).first->second;
      out << sep << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << std::fixed
          << std::setprecision(3) << ",\"ts\":" << s.start * 1e6
          << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"self_us\":"
          << self[i] * 1e6 << "}}";
      sep = ",";
    }
    out << "\n]}\n";
  }

 private:
  static double union_length(std::vector<std::pair<double, double>> iv,
                             double lo, double hi) {
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    return covered;
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer g_tracer;
thread_local int t_current_span = -1;

/// RAII span; nests under the calling thread's open span unless a parent is
/// given (worker threads pass the span they work for).
class Scope {
 public:
  explicit Scope(const std::string& name, bool top = false,
                 std::optional<int> parent = std::nullopt)
      : saved_(t_current_span),
        id_(g_tracer.open(name, top ? -1 : parent.value_or(t_current_span), top)) {
    if (id_ >= 0) t_current_span = id_;
  }
  ~Scope() {
    g_tracer.close(id_);
    t_current_span = saved_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  int saved_;
  int id_;
};

// ------------------------------------------------------------- RSS probe ---

long rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * sysconf(_SC_PAGESIZE);
}

/// Samples resident memory every 5 ms and keeps the maximum.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  [[nodiscard]] long peak() const { return peak_.load(); }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      const long rss = rss_bytes();
      if (rss > peak_.load()) peak_.store(rss);
      cv_.wait_for(lock, std::chrono::milliseconds(5), [this] { return stop_; });
    }
  }

  std::atomic<long> peak_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ------------------------------------------------------------- workloads ---

struct Options {
  std::string workload;
  std::uint64_t seed = 0x1AB1;  // eval::lab1_dataset()'s seed
  double seconds = 12.0;
  bool trace = false;
  std::string trace_out = "e2e_trace.json";
  double scale = 1.0;       // dataset scale; below 1 only for self-tests
  bool inject_mismatch = false;
};

/// One floor of the workload: its dataset (for ground truth) and uploads.
struct Floor {
  eval::DatasetSpec dataset;
  std::string building;
  std::vector<sim::SensorRichVideo> videos;
};

struct Inputs {
  std::vector<Floor> floors;
  /// lab1_refresh: hallway walks that arrive one at a time after the base.
  std::vector<sim::SensorRichVideo> arrivals;
  std::size_t frames = 0;
};

/// Everything the run reports; each vector holds one sample per round,
/// arrival or upload as named.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> ingest_rate;     // uploads / (first submit -> drain)
  std::vector<double> cold_build_s;
  std::vector<double> plan_ready_s;
  std::vector<double> upload_to_plan;  // per upload: submit -> its plan
  std::vector<double> submit_to_drain;
  std::vector<double> round_wall_traced;
  std::vector<double> round_wall_untraced;
  std::vector<double> cache_hit_ratio;
  std::vector<double> pairs_reused_ratio;
  std::vector<double> extractions_per_upload;
  std::vector<double> node_share_max;
  std::vector<double> chunks;
  double chunks_rejected = 0.0;
  double sessions_expired = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  double hallway_f = 0.0;
  double room_area_err = 0.0;
  double room_recall = 0.0;
  double peak_rss_mb = 0.0;
  bool per_arrival = false;    // submit_to_drain holds arrivals, not rounds
};

struct Quality {
  double hallway_f = 0.0;
  double area_err_sum = 0.0;     // over the evaluated rooms
  double rooms_evaluated = 0.0;  // placed rooms with a ground-truth identity
  double rooms_found = 0.0;      // distinct ground-truth rooms in the plan
  double rooms_total = 0.0;
};

constexpr std::uint64_t kLab1Seed = 0x1AB1;
constexpr int kArrivals = 40;
constexpr int kMinRounds = 3;
constexpr int kSetups = 2;  // setup repetitions behind setup_s

std::vector<eval::DatasetSpec> datasets_for(const Options& opt) {
  // Every building's campaign seed is the run seed offset so that the
  // default seed gives each dataset its own published seed.
  auto seeded = [&](eval::DatasetSpec d) {
    d.seed = opt.seed ^ kLab1Seed ^ d.seed;
    return d;
  };
  if (opt.workload == "campus_cluster") {
    return {seeded(eval::lab1_dataset(opt.scale)),
            seeded(eval::lab2_dataset(opt.scale)),
            seeded(eval::gym_dataset(opt.scale))};
  }
  return {seeded(eval::lab1_dataset(opt.scale))};
}

std::vector<sim::SensorRichVideo> render(const eval::DatasetSpec& d,
                                         const sim::CampaignOptions& options,
                                         int parent_span) {
  std::vector<sim::SensorRichVideo> videos;
  int span = g_tracer.open("sim.render", parent_span, false);
  sim::generate_campaign_streaming(d.building, options, d.seed,
                                   [&](sim::SensorRichVideo&& v) {
                                     g_tracer.close(span);
                                     videos.push_back(std::move(v));
                                     span = g_tracer.open("sim.render",
                                                          parent_span, false);
                                   });
  g_tracer.close(span);
  return videos;
}

Inputs render_inputs(const Options& opt) {
  Inputs in;
  const auto datasets = datasets_for(opt);
  in.floors.resize(datasets.size());
  const int parent = t_current_span;
  std::vector<std::thread> threads;
  for (std::size_t f = 0; f < datasets.size(); ++f) {
    in.floors[f].dataset = datasets[f];
    threads.emplace_back([&, f] {
      in.floors[f].videos =
          render(datasets[f], datasets[f].options, parent);
    });
  }
  if (opt.workload == "lab1_refresh") {
    // A second campaign, same spec and seed, hallway walks only.
    threads.emplace_back([&] {
      sim::CampaignOptions walks = datasets[0].options;
      walks.room_videos_per_room = 0;
      walks.hallway_walks =
          std::max(8, static_cast<int>(std::lround(kArrivals * opt.scale)));
      in.arrivals = render(datasets[0], walks, parent);
    });
  }
  for (auto& t : threads) t.join();
  // Upload ids must be unique across the client: renumber past the floors
  // rendered before (the campaigns each number their videos from 0).
  int next_id = 0;
  for (auto& floor : in.floors) {
    floor.building = floor.videos.front().building;
    for (auto& v : floor.videos) {
      v.video_id = next_id++;
      in.frames += v.frames.size();
    }
  }
  for (auto& v : in.arrivals) {
    v.video_id = next_id++;
    in.frames += v.frames.size();
  }
  return in;
}

std::unique_ptr<api::v2::Client> make_client(const Options& opt) {
  api::v2::ClientOptions options;
  if (opt.workload == "campus_cluster") options.config.cluster.nodes = 2;
  return std::make_unique<api::v2::Client>(std::move(options));
}

void fail_check(Samples& s, const std::string& what) {
  s.correct = false;
  s.problems.push_back(what);
}

/// Artifact reuse of one timed build.
void record_cache(Samples& s, const core::CacheReuseStats& cache) {
  s.cache_hit_ratio.push_back(
      ratio(static_cast<double>(cache.artifact_hits),
            static_cast<double>(cache.artifact_hits + cache.artifact_misses)));
  s.pairs_reused_ratio.push_back(ratio(static_cast<double>(cache.pairs_reused),
                                       static_cast<double>(cache.pairs_total)));
}

void record_ingest(Samples& s, const cloud::IngestStats& ingest) {
  s.chunks.push_back(static_cast<double>(ingest.chunks_received));
  s.chunks_rejected += static_cast<double>(ingest.chunks_rejected);
  s.sessions_expired += static_cast<double>(ingest.sessions_expired);
}

/// Counts an op and reports whether it failed.
bool count_op(Samples& s, std::mutex& mu, bool ok) {
  std::lock_guard<std::mutex> lock(mu);
  ++s.attempted;
  if (!ok) ++s.failed;
  return ok;
}

/// Extractions so far, summed over every node of the client.
double videos_decoded(const api::v2::Client& client) {
  double decoded = 0.0;
  for (std::size_t n = 0; n < client.nodes(); ++n) {
    decoded += static_cast<double>(client.node_stats(n).videos_decoded);
  }
  return decoded;
}

/// Largest share of the uploads that one node took.
double node_share_max(const std::vector<std::size_t>& per_node) {
  return ratio(static_cast<double>(*std::max_element(per_node.begin(), per_node.end())),
               static_cast<double>(std::accumulate(per_node.begin(), per_node.end(),
                                                   std::size_t{0})));
}

Quality evaluate_quality(api::v2::Client& client, const Floor& floor,
                         const core::PipelineResult& plan, Samples& s,
                         std::mutex& mu) {
  const Scope scope("eval.quality");
  const auto trajectories = client.trajectories(floor.building, 1);
  const auto alignment = floorplan::align_to_truth(trajectories, plan.aggregation);
  core::WorldFrame frame;
  frame.global_to_world = alignment.value_or(geometry::Pose2{});
  frame.extent = floor.dataset.building.extent();
  api::v2::BuildPlanResponse truth;
  {
    // Its own name: api.build_p50_s is about the timed builds only.
    const Scope build("eval.truth_build");
    truth = client.build_plan({floor.building, 1, frame, {}});
  }
  Quality q;
  if (!count_op(s, mu, truth.status.ok())) return q;
  if (truth.degradation.degraded()) {
    fail_check(s, floor.building + " truth-frame build degraded: " +
                      truth.degradation.to_string());
  }
  std::vector<geometry::Polygon> rooms;
  for (const auto& room : floor.dataset.building.rooms) {
    rooms.push_back(room.footprint());
  }
  const core::PipelineConfig config;
  q.hallway_f =
      mapping::hallway_shape_metrics(
          truth.result.skeleton,
          floor.dataset.building.hallway_raster(config.grid_cell_size), rooms)
          .f_measure;
  const auto errors = floorplan::evaluate_rooms(truth.result.plan,
                                                floor.dataset.building, {});
  std::set<int> found;
  for (const auto& e : errors) {
    q.area_err_sum += e.area_error;
    found.insert(e.room_id);
  }
  q.rooms_evaluated = static_cast<double>(errors.size());
  q.rooms_found = static_cast<double>(found.size());
  q.rooms_total = static_cast<double>(floor.dataset.building.rooms.size());
  return q;
}

/// Hallway F is the mean over floors; room figures pool every floor's rooms,
/// so a building with few rooms does not weigh as much as one with many.
void set_quality(Samples& s, const std::vector<Quality>& per_floor) {
  double f = 0.0;
  double area = 0.0;
  double evaluated = 0.0;
  double found = 0.0;
  double total = 0.0;
  for (const auto& q : per_floor) {
    f += q.hallway_f;
    area += q.area_err_sum;
    evaluated += q.rooms_evaluated;
    found += q.rooms_found;
    total += q.rooms_total;
  }
  s.hallway_f = ratio(f, static_cast<double>(per_floor.size()));
  s.room_area_err = ratio(area, evaluated);
  s.room_recall = ratio(found, total);
}

/// What one round's final builds left behind, for the traced replay.
struct LastRound {
  std::vector<core::PipelineResult> plans;  // per floor, native frame
  std::vector<std::vector<trajectory::Trajectory>> corpus;  // per floor
};

/// Plan bytes per floor of the first round with no failed op, and how many
/// such rounds were compared with them.
struct PlanCheck {
  std::vector<io::Bytes> reference;
  int clean_rounds = 0;
};

/// One batch round: a fresh client takes every upload (one submitter thread
/// per floor), drains, builds each floor cold (one thread per floor), then
/// evaluates quality against ground truth.
void run_round(const Options& opt, const Inputs& in,
               std::unique_ptr<api::v2::Client> client, int round, Samples& s,
               PlanCheck& check, LastRound* keep) {
  std::mutex mu;
  const bool traced_round = !g_tracer.enabled || round % 2 == 0;
  g_tracer.nested.store(traced_round);
  const Scope scope("round", true);
  const double t0 = now_s();
  std::vector<std::vector<double>> submitted(in.floors.size());
  std::size_t uploads = 0;
  std::vector<std::size_t> per_node(client->nodes(), 0);
  bool failed_op = false;
  const auto submit_floor = [&](std::size_t f) {
    for (const auto& video : in.floors[f].videos) {
      const double ts = now_s();
      api::v2::SubmitUploadResponse r;
      {
        const Scope call("api.submit_video", false, scope.id());
        r = client->submit_video(video);
      }
      submitted[f].push_back(ts);
      const bool ok = count_op(s, mu, r.status.ok());
      std::lock_guard<std::mutex> lock(mu);
      failed_op |= !ok;
      ++uploads;
      if (r.node < per_node.size()) ++per_node[r.node];
    }
  };
  if (in.floors.size() == 1) {
    submit_floor(0);
  } else {
    std::vector<std::thread> submitters;
    for (std::size_t f = 0; f < in.floors.size(); ++f) {
      submitters.emplace_back(submit_floor, f);
    }
    for (auto& t : submitters) t.join();
  }
  {
    const Scope call("api.drain");
    client->drain();
  }
  const double t_drained = now_s();

  std::vector<api::v2::BuildPlanResponse> plans(in.floors.size());
  std::vector<double> plan_done(in.floors.size(), 0.0);
  const auto build_floor = [&](std::size_t f) {
    const Scope call("api.build_plan", false, scope.id());
    plans[f] = client->build_plan({in.floors[f].building, 1, std::nullopt, {}});
    plan_done[f] = now_s();
  };
  if (in.floors.size() == 1) {
    build_floor(0);
  } else {
    std::vector<std::thread> builders;
    for (std::size_t f = 0; f < in.floors.size(); ++f) {
      builders.emplace_back(build_floor, f);
    }
    for (auto& t : builders) t.join();
  }
  const double t_plans = *std::max_element(plan_done.begin(), plan_done.end());

  s.ingest_rate.push_back(ratio(static_cast<double>(uploads), t_drained - t0));
  s.submit_to_drain.push_back(t_drained - t0);
  s.cold_build_s.push_back(t_plans - t_drained);
  s.plan_ready_s.push_back(t_plans - t0);
  (traced_round ? s.round_wall_traced : s.round_wall_untraced)
      .push_back(t_plans - t0);
  for (std::size_t f = 0; f < in.floors.size(); ++f) {
    for (const double ts : submitted[f]) {
      s.upload_to_plan.push_back(plan_done[f] - ts);
    }
  }

  std::vector<Quality> quality;
  std::vector<io::Bytes> bytes;
  for (std::size_t f = 0; f < in.floors.size(); ++f) {
    const auto& p = plans[f];
    failed_op |= !count_op(s, mu, p.status.ok());
    if (p.degradation.degraded()) {
      fail_check(s, "round " + std::to_string(round) + " " +
                        in.floors[f].building + " degraded: " +
                        p.degradation.to_string());
    }
    record_cache(s, p.cache);
    bytes.push_back(floorplan::encode_floorplan(p.result.plan));
    quality.push_back(evaluate_quality(*client, in.floors[f], p.result, s, mu));
  }
  set_quality(s, quality);

  s.extractions_per_upload.push_back(
      ratio(videos_decoded(*client), static_cast<double>(uploads)));
  s.node_share_max.push_back(node_share_max(per_node));
  record_ingest(s, client->stats().ingest);

  // Plan bytes must repeat across rounds; rounds with a failed op are left
  // out of the comparison (their plans may legitimately differ), and run()
  // fails the check when fewer than two rounds remain.
  if (!failed_op) {
    ++check.clean_rounds;
    if (check.reference.empty()) {
      check.reference = bytes;
      if (opt.inject_mismatch) check.reference[0].push_back(0xFF);
    } else if (check.reference != bytes) {
      fail_check(s, "round " + std::to_string(round) +
                        " plan bytes differ from an earlier round");
    }
  }
  if (keep != nullptr) {
    keep->plans.clear();
    keep->corpus.clear();
    for (std::size_t f = 0; f < in.floors.size(); ++f) {
      keep->plans.push_back(std::move(plans[f].result));
      keep->corpus.push_back(client->trajectories(in.floors[f].building, 1));
    }
  }
  client.reset();
  malloc_trim(0);
}

/// Uploads a client accepted, in submit order.
using Accepted = std::vector<const sim::SensorRichVideo*>;

/// Submits every base upload and builds the base plan (lab1_refresh's
/// setup); returns the cold build time.
double build_base(api::v2::Client& client, const Floor& base, Samples& s,
                  std::mutex& mu, Accepted& accepted) {
  accepted.clear();
  for (const auto& video : base.videos) {
    bool ok = false;
    {
      const Scope call("api.submit_video");
      ok = client.submit_video(video).status.ok();
    }
    if (count_op(s, mu, ok)) accepted.push_back(&video);
  }
  {
    const Scope call("api.drain");
    client.drain();
  }
  const double t0 = now_s();
  const Scope call("api.build_plan");
  const auto plan = client.build_plan({base.building, 1, std::nullopt, {}});
  count_op(s, mu, plan.status.ok());
  if (plan.degradation.degraded()) fail_check(s, "base build degraded");
  return now_s() - t0;
}

/// lab1_refresh's timed loop: each arrival is submitted, drained and built
/// before the next one is sent. Appends the accepted arrivals to `accepted`
/// and returns the final plan's bytes.
io::Bytes run_arrivals(const Options& opt, const Inputs& in,
                       api::v2::Client& client, Samples& s, Accepted& accepted,
                       LastRound* keep) {
  std::mutex mu;
  const Floor& base = in.floors[0];
  const Scope scope("arrivals", true);
  const double decoded_before = videos_decoded(client);
  std::vector<std::size_t> per_node(client.nodes(), 0);
  const double t_first = now_s();
  double t_last = t_first;
  core::PipelineResult final_plan;
  for (std::size_t i = 0; i < in.arrivals.size(); ++i) {
    const bool traced = !g_tracer.enabled || i % 2 == 0;
    g_tracer.nested.store(traced);
    const Scope arrival("arrival");
    const double ts = now_s();
    api::v2::SubmitUploadResponse submitted;
    {
      const Scope call("api.submit_video");
      submitted = client.submit_video(in.arrivals[i]);
    }
    if (count_op(s, mu, submitted.status.ok())) accepted.push_back(&in.arrivals[i]);
    if (submitted.node < per_node.size()) ++per_node[submitted.node];
    {
      const Scope call("api.drain");
      client.drain();
    }
    const double td = now_s();
    api::v2::BuildPlanResponse plan;
    {
      const Scope call("api.build_plan");
      plan = client.build_plan({base.building, 1, std::nullopt, {}});
    }
    const double tp = now_s();
    count_op(s, mu, plan.status.ok());
    if (plan.degradation.degraded()) {
      fail_check(s, "arrival " + std::to_string(i) + " degraded: " +
                        plan.degradation.to_string());
    }
    s.upload_to_plan.push_back(tp - ts);
    s.submit_to_drain.push_back(td - ts);
    (traced ? s.round_wall_traced : s.round_wall_untraced).push_back(tp - ts);
    record_cache(s, plan.cache);
    t_last = tp;
    if (i + 1 == in.arrivals.size()) final_plan = std::move(plan.result);
  }
  g_tracer.nested.store(true);
  s.plan_ready_s.push_back(t_last - t_first);
  // One rate over every arrival's submit-to-drain time: single arrivals are
  // too short to time one by one.
  s.ingest_rate.push_back(ratio(static_cast<double>(in.arrivals.size()),
                                sum(s.submit_to_drain)));
  s.per_arrival = true;
  s.extractions_per_upload.push_back(
      ratio(videos_decoded(client) - decoded_before,
            static_cast<double>(in.arrivals.size())));
  s.node_share_max.push_back(node_share_max(per_node));
  record_ingest(s, client.stats().ingest);

  {
    const Scope check("check.quality", true);
    set_quality(s, {evaluate_quality(client, base, final_plan, s, mu)});
  }
  if (keep != nullptr) {
    keep->plans = {final_plan};
    keep->corpus = {client.trajectories(base.building, 1)};
  }
  io::Bytes bytes = floorplan::encode_floorplan(final_plan.plan);
  if (opt.inject_mismatch) bytes.push_back(0xFF);
  return bytes;
}

/// The refreshed plan must equal a cold rebuild, on a fresh client, of the
/// uploads the timed client accepted. A failed op does not skip the check.
void check_cold_rebuild(const Options& opt, const std::string& building,
                        const Accepted& accepted, const io::Bytes& refreshed,
                        Samples& s) {
  std::mutex mu;
  const Scope check("check.cold_rebuild", true);
  auto cold = make_client(opt);
  for (const auto* video : accepted) {
    count_op(s, mu, cold->submit_video(*video).status.ok());
  }
  cold->drain();
  const auto rebuilt = cold->build_plan({building, 1, std::nullopt, {}});
  count_op(s, mu, rebuilt.status.ok());
  if (rebuilt.degradation.degraded()) fail_check(s, "cold rebuild degraded");
  if (floorplan::encode_floorplan(rebuilt.result.plan) != refreshed) {
    fail_check(s, "refreshed plan differs from a cold rebuild of the same uploads");
  }
}

// ------------------------------------------------------------ layer replay ---

/// Per-layer numbers from calling the lower layers' public functions
/// directly on the workload's uploads (traced runs only).
struct Replay {
  std::vector<double> extract_s;
  double keyframes = 0.0;
  double aggregate_s = 0.0;
  double pairs = 0.0;
  double edges = 0.0;
  std::vector<double> surf_ms;
  std::vector<double> s2_us;
  double candidates = 0.0;
  double layouts_ok = 0.0;
  double stitch_s = 0.0;
  double layout_s = 0.0;
  double skeleton_s = 0.0;
  double arrange_s = 0.0;
  double plan_bytes = 0.0;
  double refresh_cold_s = 0.0;
  std::vector<double> refresh_warm_s;
  double arrival_extract_s = 0.0;  // extraction of the timed uploads
};

template <typename F>
double timed(const std::string& name, F&& fn) {
  const Scope scope(name);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

void replay_floor(const std::vector<const sim::SensorRichVideo*>& uploads,
                  std::size_t warm_tail, const core::PipelineResult& plan,
                  const std::vector<trajectory::Trajectory>& corpus,
                  std::uint64_t seed, Replay& r) {
  const core::PipelineConfig config;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    trajectory::Trajectory traj;
    const double dt = timed("trajectory.extract", [&] {
      traj = trajectory::extract_trajectory(*uploads[i], config.extraction);
    });
    r.extract_s.push_back(dt);
    r.keyframes += static_cast<double>(traj.keyframes.size());
  }

  // The pair-lookup seam counts the pairs aggregation evaluates (no pool, so
  // the calls come from this thread) and declines each, so all are matched.
  std::size_t pairs = 0;
  trajectory::AggregationRuntime runtime;
  runtime.pair_lookup = [&pairs](std::size_t, std::size_t) {
    ++pairs;
    return std::optional<trajectory::PairDecision>{};
  };
  trajectory::AggregationResult agg;
  r.aggregate_s += timed("trajectory.aggregate", [&] {
    agg = trajectory::aggregate_trajectories(corpus, config.aggregation, runtime);
  });
  r.pairs += static_cast<double>(pairs);
  r.edges += static_cast<double>(agg.edges.size());

  // Vision kernels on a fixed sample of key-frames and key-frame pairs.
  std::vector<const trajectory::KeyFrame*> kfs;
  for (const auto& t : corpus) {
    for (const auto& kf : t.keyframes) kfs.push_back(&kf);
  }
  if (!kfs.empty()) {
    const std::size_t step = std::max<std::size_t>(1, kfs.size() / 48);
    for (std::size_t i = 0; i < kfs.size(); i += step) {
      r.surf_ms.push_back(1e3 * timed("vision.surf", [&] {
        (void)vision::detect_and_describe(kfs[i]->gray, config.extraction.surf);
      }));
    }
    std::uint64_t state = seed | 1u;
    const auto next = [&] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::size_t>(state >> 33) % kfs.size();
    };
    for (int i = 0; i < 256; ++i) {
      const auto* a = kfs[next()];
      const auto* b = kfs[next()];
      r.s2_us.push_back(1e6 * timed("vision.s2", [&] {
        (void)vision::match_score_s2(a->surf, b->surf, config.aggregation.match.h_d,
                                     config.aggregation.match.nn_ratio);
      }));
    }
  }

  // Room layer: candidates, stitch and the layout sweep, serially.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (i >= agg.global_pose.size() || !agg.global_pose[i]) continue;
    std::vector<room::PanoramaCandidate> cands;
    (void)timed("room.candidates", [&] {
      cands = room::find_panorama_candidates(corpus[i], config.panorama_select);
    });
    for (const auto& cand : cands) {
      r.candidates += 1.0;
      vision::Panorama pano;
      r.stitch_s += timed("room.stitch", [&] {
        pano = room::stitch_candidate(corpus[i], cand, config.stitch);
      });
      if (pano.coverage < 0.95 || cand.keyframe_indices.empty()) continue;
      room::LayoutConfig layout = config.layout;
      if (layout.focal_px <= 0) {
        const auto& kf = corpus[i].keyframes[cand.keyframe_indices.front()];
        const double frame_focal =
            kf.gray.width() / (2.0 * std::tan(config.stitch.fov / 2.0));
        layout.focal_px = frame_focal * config.stitch.output_height /
                          std::max(kf.gray.height(), 1);
      }
      std::optional<room::RoomLayout> result;
      r.layout_s += timed("room.layout", [&] {
        result = room::estimate_layout(pano.image, layout);
      });
      if (result) r.layouts_ok += 1.0;
    }
  }

  r.skeleton_s += timed("mapping.skeleton", [&] {
    (void)mapping::reconstruct_skeleton(plan.occupancy, config.skeleton);
  });
  std::vector<floorplan::PlacedRoom> rooms;
  for (const auto& rec : plan.rooms) {
    floorplan::PlacedRoom placed;
    placed.center = placed.anchor = rec.center_global;
    placed.width = rec.layout.width;
    placed.depth = rec.layout.depth;
    placed.orientation = rec.orientation_global;
    placed.true_room_id = rec.true_room_id;
    placed.layout_score = rec.layout.score;
    rooms.push_back(placed);
  }
  r.arrange_s += timed("floorplan.arrange", [&] {
    (void)floorplan::arrange_rooms(rooms, plan.skeleton.raster, config.arrange);
  });
  r.plan_bytes += static_cast<double>(floorplan::encode_floorplan(plan.plan).size());

  // Planner without the api, cluster or cloud layers: one cold refresh of
  // the whole corpus, then the tail re-admitted one upload at a time.
  {
    core::IncrementalPlanner cold(config);
    for (const auto& t : corpus) (void)cold.ingest(t);
    r.refresh_cold_s += timed("core.refresh_cold", [&] { (void)cold.refresh(); });
  }
  const std::size_t head = corpus.size() - std::min(warm_tail, corpus.size());
  core::IncrementalPlanner warm(config);
  for (std::size_t i = 0; i < head; ++i) (void)warm.ingest(corpus[i]);
  (void)warm.refresh();
  for (std::size_t i = head; i < corpus.size(); ++i) {
    r.refresh_warm_s.push_back(timed("core.refresh_warm", [&] {
      (void)warm.ingest(corpus[i]);
      (void)warm.refresh();
    }));
  }
}

Replay replay_layers(const Options& opt, const Inputs& in, const LastRound& last) {
  const Scope scope("replay", true);
  Replay r;
  const bool refresh = opt.workload == "lab1_refresh";
  for (std::size_t f = 0; f < in.floors.size(); ++f) {
    std::vector<const sim::SensorRichVideo*> uploads;
    for (const auto& v : in.floors[f].videos) uploads.push_back(&v);
    std::size_t warm_tail = 4;
    if (refresh) {
      for (const auto& v : in.arrivals) uploads.push_back(&v);
      warm_tail = in.arrivals.size();
    }
    const std::size_t before = r.extract_s.size();
    replay_floor(uploads, warm_tail, last.plans[f], last.corpus[f],
                 opt.seed + f, r);
    // Extraction of the uploads the timed loop measured: every upload of a
    // round, or only the arrivals.
    const std::size_t timed_from = refresh ? uploads.size() - in.arrivals.size() : 0;
    for (std::size_t i = before + timed_from; i < r.extract_s.size(); ++i) {
      r.arrival_extract_s += r.extract_s[i];
    }
  }
  return r;
}

// ---------------------------------------------------------------- report ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

/// Shortest text that reads back as exactly `v`: every measured digit.
std::string json_number(double v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

void print_result(const Options& opt, const Samples& s,
                  const std::vector<Metric>& metrics) {
  std::cout << "# metric                           value          unit    samples\n";
  for (const auto& m : metrics) {
    std::cout << "# " << std::left << std::setw(32) << m.name << " "
              << std::setw(14) << json_number(m.value) << " " << std::setw(7)
              << m.unit << " " << m.samples << "\n";
  }
  std::cout << "# quality: hallway_f=" << json_number(s.hallway_f)
            << " room_area_err=" << json_number(s.room_area_err)
            << " room_recall=" << json_number(s.room_recall) << "\n";
  for (const auto& p : s.problems) std::cout << "# CHECK FAILED: " << p << "\n";
  std::ostringstream meta;
  meta << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
       << ",\"campaign_seeds\":[";
  const auto datasets = datasets_for(opt);
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    meta << (i ? "," : "") << "{\"building\":\"" << datasets[i].name
         << "\",\"seed\":" << datasets[i].seed << "}";
  }
  meta << "],\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"simd\":\"" << common::simd::capability_report()
       << "\",\"compiler\":\"" << E2E_COMPILER << "\",\"build_type\":\""
       << E2E_BUILD_TYPE << "\",\"setups\":" << kSetups
       << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"samples\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    meta << (i ? "," : "") << "\"" << metrics[i].name
         << "\":" << metrics[i].samples;
  }
  meta << "}}";
  std::cout << "# meta " << meta.str() << "\n";
  std::cout << "{\"correct\": " << (s.correct ? "true" : "false")
            << ", \"attempted\": " << s.attempted << ", \"failed\": " << s.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

std::vector<Metric> end_to_end(const Samples& s) {
  const double ops_ok = 1.0 - ratio(static_cast<double>(s.failed),
                                    static_cast<double>(s.attempted));
  return {
      {"setup_s", median(s.setup_s), "s", s.setup_s.size()},
      {"ingest_uploads_per_s", median(s.ingest_rate), "1/s", s.ingest_rate.size()},
      {"cold_build_s", median(s.cold_build_s), "s", s.cold_build_s.size()},
      {"plan_ready_s", median(s.plan_ready_s), "s", s.plan_ready_s.size()},
      {"refresh_p50_s", quantile(s.upload_to_plan, 0.5), "s", s.upload_to_plan.size()},
      {"refresh_p75_s", quantile(s.upload_to_plan, 0.75), "s", s.upload_to_plan.size()},
      {"backend_peak_rss_mb", s.peak_rss_mb, "MB", 1},
      {"hallway_f", s.hallway_f, "ratio", 1},
      {"room_recall", s.room_recall, "ratio", 1},
      {"op_ok_ratio", ops_ok, "ratio", s.attempted},
  };
}

std::vector<Metric> per_layer(const Samples& s, const Inputs& in, const Replay& r,
                              double wall_end) {
  const auto& t = g_tracer;
  const auto render = t.durations("sim.render");
  const auto submit = t.durations("api.submit_video");
  const auto drain = t.durations("api.drain");
  const auto build = t.durations("api.build_plan");
  const double extractions = median(s.extractions_per_upload);
  // Extraction busy time over the wall time it was spread across: a whole
  // round's uploads per round, or each arrival on its own.
  const double parallelism =
      s.per_arrival
          ? ratio(r.arrival_extract_s, sum(s.submit_to_drain))
          : ratio(r.arrival_extract_s * extractions, median(s.submit_to_drain));
  return {
      {"sim.render_s", sum(render) / kSetups, "s", render.size()},
      {"sim.frames", static_cast<double>(in.frames), "count", 1},
      {"api.submit_p50_s", median(submit), "s", submit.size()},
      {"api.drain_s", median(drain), "s", drain.size()},
      {"api.build_p50_s", median(build), "s", build.size()},
      {"cluster.extractions_per_upload", extractions, "ratio",
       s.extractions_per_upload.size()},
      {"cluster.node_share_max", median(s.node_share_max), "ratio",
       s.node_share_max.size()},
      {"cloud.extract_parallelism", parallelism, "ratio",
       s.submit_to_drain.size()},
      {"cloud.chunks", median(s.chunks), "count", s.chunks.size()},
      {"cloud.chunks_rejected", s.chunks_rejected, "count", 1},
      {"cloud.sessions_expired", s.sessions_expired, "count", 1},
      {"trajectory.extract_p50_s", median(r.extract_s), "s", r.extract_s.size()},
      {"trajectory.keyframes", r.keyframes, "count", r.extract_s.size()},
      {"trajectory.aggregate_s", r.aggregate_s, "s", 1},
      {"trajectory.pairs", r.pairs, "count", 1},
      {"trajectory.edge_ratio", ratio(r.edges, r.pairs), "ratio", 1},
      {"vision.surf_p50_ms", median(r.surf_ms), "ms", r.surf_ms.size()},
      {"vision.s2_p50_us", median(r.s2_us), "us", r.s2_us.size()},
      {"room.candidates", r.candidates, "count", 1},
      {"room.layout_ok_ratio", ratio(r.layouts_ok, r.candidates), "ratio", 1},
      {"room.stitch_s", r.stitch_s, "s", 1},
      {"room.layout_s", r.layout_s, "s", 1},
      {"room.area_err", s.room_area_err, "ratio", 1},
      {"mapping.skeleton_s", r.skeleton_s, "s", 1},
      {"floorplan.arrange_s", r.arrange_s, "s", 1},
      {"floorplan.plan_bytes", r.plan_bytes, "bytes", 1},
      {"core.refresh_cold_s", r.refresh_cold_s, "s", 1},
      {"core.refresh_warm_p50_s", median(r.refresh_warm_s), "s",
       r.refresh_warm_s.size()},
      {"cache.hit_ratio", median(s.cache_hit_ratio), "ratio",
       s.cache_hit_ratio.size()},
      {"cache.pairs_reused_ratio", median(s.pairs_reused_ratio), "ratio",
       s.pairs_reused_ratio.size()},
      {"obs.trace_overhead_ratio",
       ratio(median(s.round_wall_traced), median(s.round_wall_untraced)), "ratio",
       s.round_wall_traced.size() + s.round_wall_untraced.size()},
      {"obs.unattributed_share", t.unattributed_share(wall_end), "ratio", 1},
  };
}

// ------------------------------------------------------------------ main ---

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload lab1_batch|lab1_refresh|campus_cluster [--seed N]"
               " [--seconds S] [--trace 0|1] [--trace-out FILE] [--scale X]"
               " [--inject-mismatch]\n";
  return 2;
}

int run(const Options& opt) {
  g_tracer.enabled = opt.trace;
  Samples s;
  std::mutex mu;
  const bool refresh = opt.workload == "lab1_refresh";

  // Setup, repeated: render the campaigns, build the client and, for
  // lab1_refresh, the base plan. The last repetition's state is kept.
  Inputs in;
  std::unique_ptr<api::v2::Client> client;
  Accepted accepted;  // lab1_refresh: uploads the timed client accepted
  for (int k = 0; k < kSetups; ++k) {
    client.reset();
    in = Inputs{};
    malloc_trim(0);
    const double t0 = k == 0 ? 0.0 : now_s();
    const Scope scope("setup", true);
    in = render_inputs(opt);
    client = make_client(opt);
    if (refresh) {
      s.cold_build_s.push_back(build_base(*client, in.floors[0], s, mu, accepted));
    }
    s.setup_s.push_back(now_s() - t0);
  }

  LastRound last;
  io::Bytes refreshed;
  malloc_trim(0);
  const long rss_base = rss_bytes();
  {
    const RssSampler sampler;
    if (refresh) {
      refreshed = run_arrivals(opt, in, *client, s, accepted,
                               opt.trace ? &last : nullptr);
    } else {
      PlanCheck check;
      const double start = now_s();
      for (int round = 0;
           round < kMinRounds || now_s() - start < opt.seconds; ++round) {
        if (!client) client = make_client(opt);
        run_round(opt, in, std::move(client), round, s, check,
                  opt.trace ? &last : nullptr);
      }
      if (check.clean_rounds < 2) {
        fail_check(s, std::to_string(check.clean_rounds) +
                          " round(s) without a failed op; comparing plan"
                          " bytes needs two");
      }
    }
    s.peak_rss_mb = static_cast<double>(sampler.peak() - rss_base) / (1 << 20);
  }
  if (refresh) {
    client.reset();
    malloc_trim(0);
    check_cold_rebuild(opt, in.floors[0].building, accepted, refreshed, s);
  }

  if (!opt.trace) {
    print_result(opt, s, end_to_end(s));
  } else {
    g_tracer.nested.store(true);
    const Replay r = replay_layers(opt, in, last);
    const auto metrics = per_layer(s, in, r, now_s());
    g_tracer.write_chrome_json(opt.trace_out);
    std::cout << "# span file: " << opt.trace_out << "\n";
    print_result(opt, s, metrics);
  }
  return s.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--trace-out") {
        opt.trace_out = value();
      } else if (arg == "--scale") {
        opt.scale = std::stod(value());
      } else if (arg == "--inject-mismatch") {
        opt.inject_mismatch = true;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage(argv[0]);
    }
  }
  if (opt.workload != "lab1_batch" && opt.workload != "lab1_refresh" &&
      opt.workload != "campus_cluster") {
    return usage(argv[0]);
  }
  return run(opt);
}
