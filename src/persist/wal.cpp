#include "persist/wal.hpp"

#include "util/crc32.hpp"
#include "util/require.hpp"

namespace pfrdtn::persist {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_wal_header(std::uint64_t epoch) {
  std::vector<std::uint8_t> out;
  out.reserve(kWalHeaderSize);
  put_u32(out, kWalMagic);
  out.push_back(kWalVersion);
  put_u64(out, epoch);
  return out;
}

std::vector<std::uint8_t> encode_wal_record(
    const std::vector<std::uint8_t>& payload) {
  PFRDTN_REQUIRE(payload.size() <= kMaxWalRecord);
  std::vector<std::uint8_t> out;
  out.reserve(kWalRecordHeaderSize + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

WalScan scan_wal(const std::vector<std::uint8_t>& bytes) {
  WalScan scan;
  if (bytes.size() < kWalHeaderSize ||
      get_u32(bytes.data()) != kWalMagic || bytes[4] != kWalVersion) {
    // Empty, foreign, or torn before the header: no valid prefix at
    // all; the whole file is droppable.
    scan.torn_bytes = bytes.size();
    return scan;
  }
  scan.valid_header = true;
  scan.epoch = get_u64(bytes.data() + 5);
  std::size_t pos = kWalHeaderSize;
  while (pos + kWalRecordHeaderSize <= bytes.size()) {
    const std::uint32_t length = get_u32(bytes.data() + pos);
    const std::uint32_t expected_crc = get_u32(bytes.data() + pos + 4);
    if (length > kMaxWalRecord) break;  // length lie / torn header
    if (pos + kWalRecordHeaderSize + length > bytes.size())
      break;  // short payload (append cut mid-record)
    const std::uint8_t* payload = bytes.data() + pos +
                                  kWalRecordHeaderSize;
    if (crc32(payload, length) != expected_crc) break;  // bit rot
    scan.records.emplace_back(payload, payload + length);
    pos += kWalRecordHeaderSize + length;
  }
  scan.valid_bytes = pos;
  scan.torn_bytes = bytes.size() - pos;
  return scan;
}

WalScan scan_wal_file(const StorageEnv& env, const std::string& name) {
  if (!env.exists(name)) return WalScan{};
  return scan_wal(env.read_file(name));
}

void WalWriter::set_file(std::string name) {
  name_ = std::move(name);
  log_bytes_ = 0;
  pending_ = 0;
}

void WalWriter::resume(const WalScan& scan) {
  PFRDTN_REQUIRE(scan.valid_header);
  env_->truncate(name_, scan.valid_bytes);
  log_bytes_ = scan.valid_bytes;
  pending_ = 0;
}

void WalWriter::reset(std::uint64_t epoch) {
  env_->truncate(name_, 0);
  const auto header = encode_wal_header(epoch);
  env_->append(name_, header.data(), header.size());
  sync_now();
  log_bytes_ = header.size();
  pending_ = 0;
}

void WalWriter::append(const std::vector<std::uint8_t>& payload) {
  const auto record = encode_wal_record(payload);
  env_->append(name_, record.data(), record.size());
  log_bytes_ += record.size();
  bytes_appended_ += record.size();
  ++records_appended_;
  if (++pending_ >= sync_every_records_) flush();
}

void WalWriter::flush() {
  if (pending_ == 0) return;
  sync_now();
  pending_ = 0;
}

void WalWriter::sync_now() {
  env_->sync(name_);
  ++syncs_;
}

}  // namespace pfrdtn::persist
