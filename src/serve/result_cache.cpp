#include "serve/result_cache.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "fault/failpoint.hpp"
#include "graph/binary_io.hpp"

namespace sssp::serve {

std::size_t CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  // FNV-1a over the three components; the options key is short.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  mix(&key.fingerprint, sizeof key.fingerprint);
  mix(&key.source, sizeof key.source);
  mix(key.options_key.data(), key.options_key.size());
  return static_cast<std::size_t>(h);
}

std::string cache_options_key(const std::string& algorithm,
                              std::uint64_t delta, double set_point) {
  std::ostringstream key;
  key << algorithm << ":" << delta << ":" << set_point;
  return key.str();
}

namespace {

// Any odd multiplier makes h -> (h ^ w) * kOdd a bijection of h.
constexpr std::uint64_t kOdd = 0x9E3779B97F4A7C15ULL;

// Absorbs `size` bytes as little-endian 64-bit words, word i into lane
// i % 4; a short tail is zero-padded into one last word.
void absorb_words(std::uint64_t (&lanes)[4], const void* data,
                  std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32)
    for (int lane = 0; lane < 4; ++lane) {
      std::uint64_t word;
      std::memcpy(&word, bytes + i + 8 * lane, sizeof word);
      lanes[lane] = (lanes[lane] ^ word) * kOdd;
    }
  for (int lane = 0; i < size; i += 8, ++lane) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, std::min<std::size_t>(8, size - i));
    lanes[lane] = (lanes[lane] ^ word) * kOdd;
  }
}

// Dominant payload: the V-sized result arrays (plus path vertices for
// p2p-style entries and the struct overhead itself).
std::size_t entry_bytes(const CacheEntry& entry) noexcept {
  return sizeof(CacheEntry) +
         entry.result.distances.size() * sizeof(graph::Distance) +
         entry.result.parents.size() * sizeof(graph::VertexId);
}

}  // namespace

std::uint64_t integrity_hash(const algo::SsspResult& result) noexcept {
  std::uint64_t lanes[4] = {1, 2, 3, 4};
  absorb_words(lanes, result.distances.data(),
               result.distances.size() * sizeof(graph::Distance));
  absorb_words(lanes, result.parents.data(),
               result.parents.size() * sizeof(graph::VertexId));
  std::uint64_t h = result.distances.size();
  h = (h ^ result.parents.size()) * kOdd;
  for (const std::uint64_t lane : lanes) h = (h ^ lane) * kOdd;
  return h;
}

ResultCache::ResultCache(std::size_t capacity, std::size_t max_bytes)
    : capacity_(capacity), max_bytes_(max_bytes) {}

void ResultCache::evict_tail_locked() {
  while (!lru_.empty() &&
         (lru_.size() > capacity_ ||
          (max_bytes_ != 0 && bytes_ > max_bytes_))) {
    bytes_ -= lru_.back().bytes;
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const CacheEntry> ResultCache::lookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->entry;
}

void ResultCache::insert(const CacheKey& key,
                         std::shared_ptr<const CacheEntry> entry) {
  if (capacity_ == 0 || entry == nullptr) return;

  // Cache-poisoning drill: store a copy with one finite distance
  // bit-flipped. The entry's hashes (computed by the producer before
  // insert) are left untouched, so the corruption is latent until the
  // read-side integrity check or a certification exposes it.
  if (SSSP_FAILPOINT("serve.cache.flip")) {
    auto poisoned = std::make_shared<CacheEntry>(*entry);
    auto& dist = poisoned->result.distances;
    for (std::size_t i = dist.size() / 2; i < dist.size(); ++i) {
      if (dist[i] != graph::kInfiniteDistance) {
        dist[i] ^= 1;
        break;
      }
    }
    entry = std::move(poisoned);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = map_.find(key); it != map_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  const std::size_t size = entry_bytes(*entry);
  lru_.push_front(Slot{key, std::move(entry), size});
  bytes_ += size;
  map_[key] = lru_.begin();
  ++inserts_;
  evict_tail_locked();
}

void ResultCache::invalidate(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return;
  bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  map_.erase(it);
  ++invalidations_;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.inserts = inserts_;
  stats.invalidations = invalidations_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace sssp::serve
