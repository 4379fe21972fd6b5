#include "api/v2.hpp"

#include <utility>

#include "sensors/serialize.hpp"

namespace crowdmap::api {

std::string_view to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kRejectedChunks:
      return "rejected_chunks";
    case StatusCode::kWrongShard:
      return "wrong_shard";
    case StatusCode::kShedding:
      return "shedding";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kStorageUnavailable:
      return "storage_unavailable";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

inline namespace v2 {

namespace {

Status status_for(cluster::SubmitOutcome outcome) {
  switch (outcome) {
    case cluster::SubmitOutcome::kAccepted:
      return Status::Ok();
    case cluster::SubmitOutcome::kRejectedChunks:
      return Status::Error(StatusCode::kRejectedChunks,
                           "one or more chunks rejected; retransmit");
    case cluster::SubmitOutcome::kWrongShard:
      return Status::Error(StatusCode::kWrongShard,
                           "node is not the shard's acting primary");
    case cluster::SubmitOutcome::kShedding:
      return Status::Error(StatusCode::kShedding,
                           "acting primary over cluster.max_node_queue");
    case cluster::SubmitOutcome::kDeadlineExceeded:
      return Status::Error(StatusCode::kDeadlineExceeded,
                           "deadline elapsed before admission");
  }
  return Status::Error(StatusCode::kInternal, "unknown submit outcome");
}

}  // namespace

cluster::ClusterOptions Client::make_cluster_options(ClientOptions&& options,
                                                     Client* self) {
  cluster::ClusterOptions out;
  out.config = std::move(options.config);
  out.decoder = [self](const cloud::Document& doc) {
    return self->decode(doc);
  };
  out.chunk_bytes = options.chunk_bytes;
  out.storage_env = options.storage_env;
  return out;
}

Client::Client(ClientOptions options)
    : fallback_decoder_(std::move(options.decoder)),
      cluster_(make_cluster_options(std::move(options), this)) {}

std::optional<sim::SensorRichVideo> Client::decode(const cloud::Document& doc) {
  {
    common::MutexLock lock(mutex_);
    const auto it = videos_.find(doc.id);
    if (it != videos_.end()) return it->second;
  }
  if (fallback_decoder_) return fallback_decoder_(doc);
  return std::nullopt;
}

SubmitUploadResponse Client::to_response(
    const cluster::UploadTicket& ticket) const {
  SubmitUploadResponse response;
  response.status = status_for(ticket.outcome);
  response.chunks_sent = ticket.chunks_sent;
  response.chunks_rejected = ticket.chunks_rejected;
  response.node = ticket.node;
  response.seqno = ticket.seqno;
  return response;
}

SubmitUploadResponse Client::submit_upload(const SubmitUploadRequest& request) {
  return to_response(cluster_.submit_upload(request.upload_id,
                                            request.building, request.floor,
                                            request.payload,
                                            request.options.deadline_tick));
}

SubmitUploadResponse Client::submit_upload_to(
    std::size_t node, const SubmitUploadRequest& request) {
  return to_response(cluster_.submit_upload_to(
      node, request.upload_id, request.building, request.floor,
      request.payload, request.options.deadline_tick));
}

SubmitUploadResponse Client::submit_video(const sim::SensorRichVideo& video,
                                          const RequestOptions& options) {
  SubmitUploadRequest request;
  request.upload_id = "video-" + std::to_string(video.video_id);
  request.building = video.building;
  request.floor = video.floor;
  // The pixels stay in "blob storage" (the side table); the wire payload is
  // the serialized inertial stream, so chunking sees realistic bytes.
  request.payload = sensors::encode_imu(video.imu);
  request.options = options;
  {
    common::MutexLock lock(mutex_);
    videos_[request.upload_id] = video;
  }
  return submit_upload(request);
}

void Client::drain() { cluster_.drain(); }

BuildPlanResponse Client::build_plan(const BuildPlanRequest& request) {
  BuildPlanResponse response;
  if (request.options.deadline_tick != 0 &&
      cluster_.now_tick() > request.options.deadline_tick) {
    response.status = Status::Error(StatusCode::kDeadlineExceeded,
                                    "deadline elapsed before admission");
    return response;
  }
  response.result = cluster_.build_floor_plan(request.building, request.floor,
                                              request.frame, &response.node);
  response.degradation = response.result.degradation;
  response.cache = response.result.diagnostics.cache;
  response.metrics = cluster_.metrics();
  return response;
}

std::shared_ptr<const core::PipelineResult> Client::latest_plan(
    const std::string& building, int floor) const {
  return cluster_.latest_plan(building, floor);
}

std::vector<trajectory::Trajectory> Client::trajectories(
    const std::string& building, int floor) const {
  return cluster_.trajectories(building, floor);
}

bool Client::persist_artifact_cache(const std::string& building, int floor) {
  return cluster_.persist_artifact_cache(building, floor);
}

std::size_t Client::warm_artifact_cache_from(
    const cloud::DocumentStore& store) {
  return cluster_.warm_artifact_cache_from(store);
}

common::Expected<storage::RecoveryReport> Client::recover_storage() {
  return cluster_.recover_storage();
}

storage::Status Client::checkpoint_storage() {
  return cluster_.checkpoint_storage();
}

cloud::DurabilityStats Client::durability_stats() const {
  return cluster_.durability_stats();
}

std::size_t Client::nodes() const { return cluster_.node_count(); }

std::string Client::node_name(std::size_t node) const {
  return cluster_.node_name(node);
}

cluster::ShardView Client::shard_of(const std::string& building,
                                    int floor) const {
  return cluster_.shard_of(building, floor);
}

std::size_t Client::add_node() { return cluster_.add_node(); }

bool Client::remove_node(std::size_t node) {
  return cluster_.remove_node(node);
}

std::uint64_t Client::now_tick() const noexcept { return cluster_.now_tick(); }

const cloud::DocumentStore& Client::document_store(std::size_t node) const {
  return cluster_.document_store(node);
}

cloud::ServiceStats Client::stats() const { return cluster_.stats(); }

cloud::ServiceStats Client::node_stats(std::size_t node) const {
  return cluster_.node_stats(node);
}

obs::MetricsSnapshot Client::metrics() const { return cluster_.metrics(); }

std::optional<obs::FlightDump> Client::flight_dump(std::size_t node,
                                                   bool deterministic) {
  return cluster_.flight_dump(node, deterministic);
}

std::optional<obs::FlightDump> Client::router_flight_dump(bool deterministic) {
  return cluster_.router_flight_dump(deterministic);
}

}  // namespace v2
}  // namespace crowdmap::api
