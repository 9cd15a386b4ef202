#pragma once

/// \file wal.hpp
/// Append-only write-ahead log of serialized replica mutations.
///
/// File layout:
///
///   header   magic u32 LE 0x4C575046 ("PFWL"), version u8,
///            epoch u64 LE (must match the checkpoint's epoch; a
///            mismatched log is stale and ignored by recovery)
///   records  each: length u32 LE, crc u32 LE (CRC-32 of the payload),
///            payload `length` bytes
///
/// Records become *acknowledged* only once WalWriter::sync() has made
/// them durable; Durability::log syncs each record before its hook
/// returns. Recovery scans the log and stops at the first record that
/// is short, oversized, or fails its CRC — a torn tail from a
/// mid-append crash — and reports the valid prefix length so the
/// writer can truncate it away before appending again.

#include <cstdint>
#include <string>
#include <vector>

#include "persist/env.hpp"

namespace pfrdtn::persist {

inline constexpr std::uint32_t kWalMagic = 0x4C574650u;  // "PFWL"
inline constexpr std::uint8_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderSize = 4 + 1 + 8;
inline constexpr std::size_t kWalRecordHeaderSize = 8;
/// A record length above this is a torn/corrupt header, not a record.
inline constexpr std::uint32_t kMaxWalRecord = 16u << 20;

/// Serialized WAL file header for the given epoch.
std::vector<std::uint8_t> encode_wal_header(std::uint64_t epoch);

/// One record as it appears on disk (length + crc + payload).
std::vector<std::uint8_t> encode_wal_record(
    const std::vector<std::uint8_t>& payload);

struct WalScan {
  /// Header parsed and version understood. False for an empty or
  /// foreign file (recovery then treats the log as absent).
  bool valid_header = false;
  std::uint64_t epoch = 0;
  /// Byte length of header + every fully valid record.
  std::size_t valid_bytes = 0;
  /// Bytes after the valid prefix (the torn tail recovery drops).
  std::size_t torn_bytes = 0;
  std::vector<std::vector<std::uint8_t>> records;
};

/// Scan raw log bytes, collecting the longest valid record prefix.
/// Never throws on corrupt input: anything unparseable ends the scan.
WalScan scan_wal(const std::vector<std::uint8_t>& bytes);

/// Scan the log file in `env` (absent file = empty scan).
WalScan scan_wal_file(const StorageEnv& env, const std::string& name);

/// Frames records into one WAL segment and appends them. Only a fresh
/// segment's header is synced here; when records become durable is
/// its owner's call (sync()).
class WalWriter {
 public:
  WalWriter(StorageEnv& env, std::string name)
      : env_(&env), name_(std::move(name)) {}

  /// Retarget the writer at another log file (checkpoint generations
  /// keep one WAL segment per epoch); call reset()/resume() next.
  void set_file(std::string name);
  [[nodiscard]] const std::string& file() const { return name_; }

  /// Truncate any torn tail and position after `scan`'s valid prefix.
  void resume(const WalScan& scan);

  /// Start a fresh log for `epoch` (truncates any existing content);
  /// the header is durable on return.
  void reset(std::uint64_t epoch);

  /// Append one record with a single env append. Visible, not durable.
  void append(const std::vector<std::uint8_t>& payload);

  /// Make everything appended to the segment so far durable.
  void sync();

  [[nodiscard]] std::size_t log_bytes() const { return log_bytes_; }
  [[nodiscard]] std::size_t bytes_appended() const {
    return bytes_appended_;
  }
  /// fsyncs actually issued against the env (durability counter).
  [[nodiscard]] std::size_t syncs() const { return syncs_; }

 private:
  StorageEnv* env_;
  std::string name_;
  std::size_t log_bytes_ = 0;
  std::size_t bytes_appended_ = 0;
  std::size_t syncs_ = 0;
  std::vector<std::uint8_t> record_;  ///< reused framing buffer
};

}  // namespace pfrdtn::persist
