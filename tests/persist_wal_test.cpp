// WAL framing and writer: record round trips, appends against
// MemEnv's durable watermark, and the torn-tail property — for *every*
// possible truncation point of a valid log, the scan recovers exactly
// the records that were fully written, floors valid_bytes to a record
// boundary, and never throws.

#include "persist/wal.hpp"

#include <gtest/gtest.h>

#include "check/mutant_env.hpp"
#include "util/rng.hpp"

namespace pfrdtn::persist {
namespace {

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(seed + i * 7);
  return p;
}

/// A complete log image: header + the framed payloads.
std::vector<std::uint8_t> build_log(
    std::uint64_t epoch,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<std::uint8_t> bytes = encode_wal_header(epoch);
  for (const auto& p : payloads) {
    const auto record = encode_wal_record(p);
    bytes.insert(bytes.end(), record.begin(), record.end());
  }
  return bytes;
}

TEST(Wal, HeaderLayout) {
  const auto header = encode_wal_header(0x1122334455667788ull);
  ASSERT_EQ(header.size(), kWalHeaderSize);
  EXPECT_EQ(header[0], 'P');
  EXPECT_EQ(header[1], 'F');
  EXPECT_EQ(header[2], 'W');
  EXPECT_EQ(header[3], 'L');
  EXPECT_EQ(header[4], kWalVersion);
  const WalScan scan = scan_wal(header);
  EXPECT_TRUE(scan.valid_header);
  EXPECT_EQ(scan.epoch, 0x1122334455667788ull);
  EXPECT_EQ(scan.valid_bytes, kWalHeaderSize);
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_TRUE(scan.records.empty());
}

TEST(Wal, RecordsRoundTrip) {
  const std::vector<std::vector<std::uint8_t>> payloads = {
      payload_of(1, 3), payload_of(0, 0), payload_of(200, 9)};
  const WalScan scan = scan_wal(build_log(7, payloads));
  ASSERT_TRUE(scan.valid_header);
  EXPECT_EQ(scan.epoch, 7u);
  ASSERT_EQ(scan.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(scan.records[i], payloads[i]) << "record " << i;
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST(Wal, ForeignAndEmptyFilesHaveNoValidPrefix) {
  EXPECT_FALSE(scan_wal({}).valid_header);
  const std::vector<std::uint8_t> foreign = {'h', 'e', 'l', 'l', 'o',
                                             '!', '!', '!', '!', '!',
                                             '!', '!', '!', '!'};
  const WalScan scan = scan_wal(foreign);
  EXPECT_FALSE(scan.valid_header);
  EXPECT_EQ(scan.torn_bytes, foreign.size());

  // Right magic, wrong version: treated as foreign, not half-parsed.
  auto versioned = encode_wal_header(1);
  versioned[4] = kWalVersion + 1;
  EXPECT_FALSE(scan_wal(versioned).valid_header);
}

TEST(Wal, TornTailPropertyEveryTruncationOffset) {
  // The core crash-recovery property: whatever prefix of the log
  // survives a mid-append power cut, the scan yields exactly the fully
  // framed records and reports the rest as droppable tail.
  const std::vector<std::vector<std::uint8_t>> payloads = {
      payload_of(5, 1), payload_of(37, 2), payload_of(0, 3),
      payload_of(96, 4)};
  const auto full = build_log(3, payloads);

  // Record boundaries (byte offset after header/record i).
  std::vector<std::size_t> boundary = {kWalHeaderSize};
  for (const auto& p : payloads)
    boundary.push_back(boundary.back() + kWalRecordHeaderSize + p.size());
  ASSERT_EQ(boundary.back(), full.size());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() + cut);
    const WalScan scan = scan_wal(prefix);
    if (cut < kWalHeaderSize) {
      EXPECT_FALSE(scan.valid_header) << "cut " << cut;
      EXPECT_EQ(scan.torn_bytes, cut);
      continue;
    }
    ASSERT_TRUE(scan.valid_header) << "cut " << cut;
    // Number of records whose frame fits entirely in the prefix.
    std::size_t complete = 0;
    while (complete + 1 < boundary.size() &&
           boundary[complete + 1] <= cut)
      ++complete;
    EXPECT_EQ(scan.records.size(), complete) << "cut " << cut;
    EXPECT_EQ(scan.valid_bytes, boundary[complete]) << "cut " << cut;
    EXPECT_EQ(scan.torn_bytes, cut - boundary[complete]) << "cut " << cut;
  }
}

TEST(Wal, BitFlipsNeverCrashAndNeverGrowThePrefix) {
  const std::vector<std::vector<std::uint8_t>> payloads = {
      payload_of(20, 5), payload_of(33, 6), payload_of(7, 7)};
  const auto full = build_log(1, payloads);
  const WalScan clean = scan_wal(full);
  ASSERT_EQ(clean.records.size(), payloads.size());

  Rng rng(0x77);
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    auto flipped = full;
    flipped[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    const WalScan scan = scan_wal(flipped);  // must not throw
    EXPECT_LE(scan.valid_bytes, clean.valid_bytes) << "pos " << pos;
    // A flip in the header invalidates everything after it; a flip in
    // record i's frame or payload drops record i and the rest.
    if (pos >= kWalHeaderSize && scan.valid_header) {
      EXPECT_LT(scan.records.size(), payloads.size() + 1);
    }
  }
}

TEST(Wal, LengthLieEndsTheScan) {
  auto bytes = build_log(1, {payload_of(4, 1)});
  // A second "record" whose length field claims more than kMaxWalRecord.
  const std::size_t lie_at = bytes.size();
  for (int i = 0; i < 4; ++i) bytes.push_back(0xFF);
  for (int i = 0; i < 4; ++i) bytes.push_back(0x00);
  const WalScan scan = scan_wal(bytes);
  ASSERT_TRUE(scan.valid_header);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, lie_at);
  EXPECT_EQ(scan.torn_bytes, bytes.size() - lie_at);
}

TEST(Wal, WriterAppendsAndOnlySyncMakesDurable) {
  MemEnv env;
  WalWriter writer(env, "wal");
  writer.reset(1);
  EXPECT_EQ(env.durable_size("wal"), kWalHeaderSize);

  for (int i = 0; i < 5; ++i)
    writer.append(payload_of(10, static_cast<std::uint8_t>(i)));
  // Appended records are visible but not durable...
  EXPECT_EQ(env.file_size("wal"),
            kWalHeaderSize + 5 * (kWalRecordHeaderSize + 10));
  EXPECT_EQ(env.durable_size("wal"), kWalHeaderSize);
  EXPECT_EQ(writer.syncs(), 1u);  // the header's

  // ...until the owner syncs.
  writer.sync();
  EXPECT_EQ(env.durable_size("wal"), env.file_size("wal"));
  EXPECT_EQ(writer.syncs(), 2u);

  // Crash now loses nothing: all five records survive.
  env.crash();
  const WalScan scan = scan_wal_file(env, "wal");
  EXPECT_TRUE(scan.valid_header);
  EXPECT_EQ(scan.records.size(), 5u);
}

TEST(Wal, SkipFsyncLosesUnsyncedRecordsOnCrash) {
  MemEnv env;
  check::MutantEnv skip_fsync(env, check::DurabilityMutant::SkipFsync);
  WalWriter writer(skip_fsync, "wal");
  writer.reset(1);
  writer.append(payload_of(10, 1));
  writer.sync();  // the bug: sync() does not reach the disk
  env.crash();
  const WalScan scan = scan_wal_file(env, "wal");
  // reset() also skipped its sync, so even the header may be gone.
  EXPECT_EQ(scan.records.size(), 0u);
}

TEST(Wal, ResumeTruncatesTornTailAndAppendsCleanly) {
  MemEnv env;
  WalWriter writer(env, "wal");
  writer.reset(9);
  writer.append(payload_of(12, 1));
  writer.append(payload_of(12, 2));
  writer.sync();

  // A torn half-record lands after the valid prefix (mid-append crash).
  env.crash();
  env.corrupt_append("wal", {0xAA, 0xBB, 0xCC});

  const WalScan scan = scan_wal_file(env, "wal");
  ASSERT_TRUE(scan.valid_header);
  ASSERT_EQ(scan.records.size(), 2u);
  ASSERT_EQ(scan.torn_bytes, 3u);

  WalWriter resumed(env, "wal");
  resumed.resume(scan);
  resumed.append(payload_of(12, 3));

  const WalScan again = scan_wal_file(env, "wal");
  ASSERT_EQ(again.records.size(), 3u);
  EXPECT_EQ(again.torn_bytes, 0u);
  EXPECT_EQ(again.records[2], payload_of(12, 3));
}

}  // namespace
}  // namespace pfrdtn::persist
