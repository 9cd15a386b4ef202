#include "repl/summary.hpp"

namespace pfrdtn::repl {

BloomFilter::BloomFilter(std::uint64_t bit_count,
                         std::uint32_t hash_count)
    : bit_count_(bit_count), hash_count_(hash_count) {
  PFRDTN_REQUIRE(bit_count_ >= 1);
  PFRDTN_REQUIRE(hash_count_ >= 1 && hash_count_ <= kMaxHashCount);
  bits_.assign(static_cast<std::size_t>((bit_count_ + 7) / 8), 0);
}

BloomFilter BloomFilter::sized_for(std::uint64_t element_count) {
  // An empty filter still needs one byte: it proves "I know nothing",
  // the cheapest possible cold-sync request.
  const std::uint64_t bits =
      std::max<std::uint64_t>(8, element_count * kBloomBitsPerElement);
  return BloomFilter(bits, kBloomHashCount);
}

namespace {

/// The double-hashing pair for one event.
struct ProbeSeed {
  std::uint64_t h1;
  std::uint64_t h2;
};

ProbeSeed probe_seed(ReplicaId author, std::uint64_t counter) {
  const std::uint64_t h = mix64(author.value() ^ mix64(counter));
  return {h, mix64(h) | 1};  // odd step, coprime with any bit count
}

}  // namespace

void BloomFilter::insert(ReplicaId author, std::uint64_t counter) {
  const ProbeSeed seed = probe_seed(author, counter);
  for (std::uint32_t i = 0; i < hash_count_; ++i) {
    const std::uint64_t bit = (seed.h1 + i * seed.h2) % bit_count_;
    bits_[static_cast<std::size_t>(bit / 8)] |=
        static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

bool BloomFilter::maybe_contains(ReplicaId author,
                                 std::uint64_t counter) const {
  const ProbeSeed seed = probe_seed(author, counter);
  for (std::uint32_t i = 0; i < hash_count_; ++i) {
    const std::uint64_t bit = (seed.h1 + i * seed.h2) % bit_count_;
    if (!(bits_[static_cast<std::size_t>(bit / 8)] &
          (1u << (bit % 8)))) {
      return false;
    }
  }
  return true;
}

void BloomFilter::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(hash_count_));
  w.uvarint(bit_count_);
  w.raw(bits_);
}

BloomFilter BloomFilter::deserialize(ByteReader& r) {
  r.charge_elements();
  const std::uint8_t hash_count = r.u8();
  PFRDTN_REQUIRE(hash_count >= 1 && hash_count <= kMaxHashCount);
  const std::uint64_t bit_count = r.uvarint();
  // Sanity ceiling well above any configured cap, and low enough that
  // the byte-length arithmetic below cannot overflow.
  PFRDTN_REQUIRE(bit_count >= 1 && bit_count <= (std::uint64_t{1} << 30));
  // raw() bounds the byte vector by the remaining payload, so a lying
  // bit_count cannot drive the allocation — only fail this check.
  std::vector<std::uint8_t> bits = r.raw();
  PFRDTN_REQUIRE(bits.size() == (bit_count + 7) / 8);
  BloomFilter filter(bit_count, hash_count);
  filter.bits_ = std::move(bits);
  return filter;
}

void KnowledgeSummary::serialize(ByteWriter& w) const {
  w.uvarint(digest);
  w.u8(bloom.has_value() ? 1 : 0);
  if (bloom.has_value()) bloom->serialize(w);
}

KnowledgeSummary KnowledgeSummary::deserialize(ByteReader& r) {
  KnowledgeSummary summary;
  summary.digest = r.uvarint();
  const std::uint8_t has_bloom = r.u8();
  PFRDTN_REQUIRE(has_bloom <= 1);
  if (has_bloom == 1) summary.bloom = BloomFilter::deserialize(r);
  return summary;
}

std::shared_ptr<const BloomFilter> Knowledge::bloom() const {
  if (bloom_cache_revision_ == revision_) return bloom_cache_;
  bloom_cache_revision_ = revision_;
  bloom_cache_ = nullptr;
  const std::uint64_t events = event_count();
  if (events <= kMaxBloomElements) {
    BloomFilter filter = BloomFilter::sized_for(events);
    // Ship the filter only while it undercuts both the absolute cap and
    // the exact codec: past either, the exact knowledge (or the digest
    // tier alone) is the better offer. The decision is a pure function
    // of the knowledge — both sides of the differential suite see
    // identical requests.
    if (filter.byte_size() <= kMaxBloomBytes &&
        filter.byte_size() < size_bytes()) {
      auto insert = [&filter](ReplicaId author, std::uint64_t counter) {
        filter.insert(author, counter);
      };
      universal_.for_each_event(insert);
      for (const Fragment& fragment : fragments_)
        fragment.versions.for_each_event(insert);
      bloom_cache_ =
          std::make_shared<const BloomFilter>(std::move(filter));
    }
  }
  return bloom_cache_;
}

KnowledgeSummary summarize(const Knowledge& knowledge) {
  KnowledgeSummary summary;
  summary.digest = knowledge.wire_digest();
  if (auto bloom = knowledge.bloom()) summary.bloom = *bloom;
  return summary;
}

}  // namespace pfrdtn::repl
