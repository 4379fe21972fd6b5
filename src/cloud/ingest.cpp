#include "cloud/ingest.hpp"

#include "common/log.hpp"
#include "obs/flight.hpp"

namespace crowdmap::cloud {

IngestService::IngestService(DocumentStore& store,
                             std::function<void(const Document&)> on_complete,
                             IngestConfig config,
                             std::shared_ptr<obs::MetricsRegistry> registry)
    : store_(store),
      on_complete_(std::move(on_complete)),
      config_(config),
      registry_(registry ? std::move(registry)
                         : std::make_shared<obs::MetricsRegistry>()) {
  sessions_opened_ = &registry_->counter("crowdmap_ingest_sessions_opened_total",
                                         {}, "Upload sessions opened");
  uploads_completed_ = &registry_->counter(
      "crowdmap_ingest_uploads_completed_total", {},
      "Uploads fully reassembled and persisted");
  uploads_rejected_ = &registry_->counter(
      "crowdmap_ingest_uploads_rejected_total", {},
      "Chunk deliveries refused for an unknown session or corrupt framing");
  chunks_received_ = &registry_->counter("crowdmap_ingest_chunks_total", {},
                                         "Chunks delivered to known sessions");
  bytes_received_ = &registry_->counter("crowdmap_ingest_bytes_total", {},
                                        "Payload bytes delivered");
  chunks_duplicate_ = &registry_->counter(
      "crowdmap_ingest_chunks_duplicate_total", {},
      "Byte-identical chunk re-sends idempotently ignored");
  chunks_rejected_ = &registry_->counter(
      "crowdmap_ingest_chunks_rejected_total", {},
      "Chunks rejected for checksum mismatch or payload conflict");
  unknown_session_ = &registry_->counter(
      "crowdmap_ingest_unknown_session_total", {},
      "Chunks addressed to sessions never opened");
  sessions_expired_ = &registry_->counter(
      "crowdmap_ingest_sessions_expired_total", {},
      "Sessions expired by timeout or retransmit budget");
  uploads_quarantined_ = &registry_->counter(
      "crowdmap_ingest_uploads_quarantined_total", {},
      "Malformed uploads moved to the quarantine collection");
  retransmit_requests_ = &registry_->counter(
      "crowdmap_ingest_retransmit_requests_total", {},
      "missing_chunks retransmit rounds served");
}

void IngestService::open_session(const std::string& upload_id,
                                 const std::string& building, int floor) {
  {
    common::MutexLock lock(mutex_);
    Session session;
    session.building = building;
    session.floor = floor;
    session.last_activity = clock_.now();
    sessions_[upload_id] = std::move(session);
  }
  sessions_opened_->increment();
}

Document IngestService::quarantine_doc(const std::string& upload_id,
                                       const Session& session) {
  Document doc;
  doc.id = upload_id;
  doc.building = session.building;
  doc.floor = session.floor;
  doc.metadata["chunks_received"] =
      std::to_string(session.assembler.received());
  doc.metadata["chunks_total"] = std::to_string(session.assembler.total());
  return doc;
}

std::vector<Document> IngestService::sweep_expired_locked(std::uint64_t now) {
  std::vector<Document> expired;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const Session& session = it->second;
    // Saturating: a stamp at or after `now` is not idle at all.
    const std::uint64_t idle =
        now > session.last_activity ? now - session.last_activity : 0;
    if (idle > config_.session_timeout_ticks) {
      CROWDMAP_LOG(kWarn, "ingest")
          << "session " << it->first << " expired after " << idle
          << " idle ticks (" << session.assembler.received() << "/"
          << session.assembler.total() << " chunks)";
      expired.push_back(quarantine_doc(it->first, session));
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

IngestStatus IngestService::deliver(const Chunk& chunk) {
  Document completed;
  bool fire = false;
  bool corrupt = false;
  Document corrupted;
  std::vector<Document> expired;
  IngestStatus result = IngestStatus::kAccepted;
  {
    common::MutexLock lock(mutex_);
    // Both ticks are taken under the lock that orders the session stamps:
    // taken before it, another thread could stamp a later tick first. One
    // flight tick per delivered chunk mirrors the ingest logical clock, so
    // dump ordering lines up with session-expiry reasoning in a post-mortem.
    const std::uint64_t now = clock_.advance();
    if (flight_ != nullptr) flight_->advance_tick();
    expired = sweep_expired_locked(now);
    const auto it = sessions_.find(chunk.upload_id);
    if (it == sessions_.end()) {
      CROWDMAP_LOG(kWarn, "ingest")
          << "chunk for unknown session " << chunk.upload_id
          << " (index " << chunk.index << "); was open_session skipped?";
      unknown_session_->increment();
      uploads_rejected_->increment();
      result = IngestStatus::kRejected;
    } else {
      chunks_received_->increment();
      bytes_received_->increment(chunk.payload.size());
      it->second.last_activity = now;
      switch (it->second.assembler.accept(chunk)) {
        case ChunkAssembler::Status::kCorrupt:
          // Structural framing damage: unsalvageable; keep it for audit.
          corrupted = quarantine_doc(it->first, it->second);
          corrupt = true;
          sessions_.erase(it);
          uploads_rejected_->increment();
          result = IngestStatus::kRejected;
          break;
        case ChunkAssembler::Status::kRejected:
          // Damaged in flight — the session survives for retransmission.
          chunks_rejected_->increment();
          result = IngestStatus::kRejected;
          break;
        case ChunkAssembler::Status::kDuplicate:
          chunks_duplicate_->increment();
          result = IngestStatus::kAccepted;
          break;
        case ChunkAssembler::Status::kPending:
          result = IngestStatus::kAccepted;
          break;
        case ChunkAssembler::Status::kComplete:
          completed.id = chunk.upload_id;
          completed.building = it->second.building;
          completed.floor = it->second.floor;
          completed.payload = *it->second.assembler.assemble();
          sessions_.erase(it);
          fire = true;
          result = IngestStatus::kUploadComplete;
          break;
      }
    }
  }
  for (auto& doc : expired) {
    sessions_expired_->increment();
    uploads_quarantined_->increment();
    if (flight_ != nullptr) {
      flight_->record_named(obs::FlightEventKind::kIngestQuarantine, 0, doc.id,
                            flight_->intern("session_expired"));
    }
    store_.quarantine(std::move(doc), "session_expired");
  }
  if (corrupt) {
    uploads_quarantined_->increment();
    if (flight_ != nullptr) {
      flight_->record_named(obs::FlightEventKind::kIngestQuarantine, 0,
                            corrupted.id,
                            flight_->intern("structural_corruption"));
    }
    store_.quarantine(std::move(corrupted), "structural_corruption");
  }
  if (fire) {
    uploads_completed_->increment();
    store_.put(completed);
    if (on_complete_) on_complete_(completed);
  }
  return result;
}

std::vector<std::uint32_t> IngestService::missing_chunks(
    const std::string& upload_id) {
  std::vector<std::uint32_t> missing;
  Document exhausted;
  bool expire = false;
  {
    common::MutexLock lock(mutex_);
    const auto it = sessions_.find(upload_id);
    if (it == sessions_.end()) return missing;
    Session& session = it->second;
    if (session.retransmit_rounds >= config_.max_retransmit_rounds) {
      CROWDMAP_LOG(kWarn, "ingest")
          << "session " << upload_id << " exhausted its "
          << config_.max_retransmit_rounds << " retransmit rounds";
      exhausted = quarantine_doc(upload_id, session);
      sessions_.erase(it);
      expire = true;
    } else {
      ++session.retransmit_rounds;
      session.last_activity = clock_.now();
      missing = session.assembler.missing_indices();
    }
  }
  if (expire) {
    sessions_expired_->increment();
    uploads_quarantined_->increment();
    if (flight_ != nullptr) {
      flight_->record_named(obs::FlightEventKind::kIngestQuarantine, 0,
                            exhausted.id,
                            flight_->intern("retransmit_budget_exhausted"));
    }
    store_.quarantine(std::move(exhausted), "retransmit_budget_exhausted");
  } else {
    retransmit_requests_->increment();
    if (flight_ != nullptr) {
      flight_->record_named(obs::FlightEventKind::kIngestRetransmit, 0,
                            upload_id, missing.size());
    }
  }
  return missing;
}

std::size_t IngestService::pending_sessions() const {
  common::MutexLock lock(mutex_);
  return sessions_.size();
}

IngestStats IngestService::stats() const {
  IngestStats out;
  out.sessions_opened = sessions_opened_->value();
  out.uploads_completed = uploads_completed_->value();
  out.uploads_rejected = uploads_rejected_->value();
  out.chunks_received = chunks_received_->value();
  out.bytes_received = bytes_received_->value();
  out.chunks_duplicate = chunks_duplicate_->value();
  out.chunks_rejected = chunks_rejected_->value();
  out.unknown_session = unknown_session_->value();
  out.sessions_expired = sessions_expired_->value();
  out.uploads_quarantined = uploads_quarantined_->value();
  out.retransmit_requests = retransmit_requests_->value();
  return out;
}

}  // namespace crowdmap::cloud
