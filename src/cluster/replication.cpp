#include "cluster/replication.hpp"

#include <utility>

namespace crowdmap::cluster {

io::Bytes encode_record(const cloud::Document& doc) {
  io::Writer w;
  w.u32(kRecordMagic);
  w.u8(kRecordVersion);
  w.str(doc.id);
  w.str(doc.building);
  w.i32(doc.floor);
  w.u32(static_cast<std::uint32_t>(doc.metadata.size()));
  for (const auto& [key, value] : doc.metadata) {
    w.str(key);
    w.str(value);
  }
  w.str(std::string(doc.payload.begin(), doc.payload.end()));
  return std::move(w).take();
}

cloud::Document decode_record(const io::Bytes& bytes) {
  io::Reader r(bytes);
  if (r.u32() != kRecordMagic) {
    throw io::DecodeError("replication record: bad magic");
  }
  if (r.u8() != kRecordVersion) {
    throw io::DecodeError("replication record: unsupported version");
  }
  cloud::Document doc;
  doc.id = r.str();
  doc.building = r.str();
  doc.floor = r.i32();
  const std::uint32_t pairs = r.u32();
  io::check_count(pairs, "replication record metadata");
  for (std::uint32_t i = 0; i < pairs; ++i) {
    std::string key = r.str();
    doc.metadata[std::move(key)] = r.str();
  }
  const std::string payload = r.str();
  doc.payload.assign(payload.begin(), payload.end());
  if (!r.exhausted()) {
    throw io::DecodeError("replication record: trailing bytes");
  }
  return doc;
}

std::uint64_t ReplicationLog::append(io::Bytes record) {
  records_.push_back(std::move(record));
  return records_.size();
}

const io::Bytes& ReplicationLog::record(std::uint64_t seqno) const {
  return records_.at(seqno - 1);
}

}  // namespace crowdmap::cluster
