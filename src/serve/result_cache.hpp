// LRU result cache for the query service (docs/SERVING.md, "Result
// cache").
//
// Keyed by (graph fingerprint, source, canonical options string) so a
// hit is only possible for the *same* graph bytes and the same
// algorithm knobs — a server restarted onto a different graph, or a
// query with a different delta/set-point, can never be served a stale
// answer. Entries hold the full SsspResult (distances + parents +
// counters), so a hit skips the solve entirely. A hit on an entry that
// was certified when it was inserted is not certified again: the reader
// recomputes integrity_hash() over the cached arrays and compares it
// with the hash the producer stored, which is what catches the
// `serve.cache.flip` poisoning drill at read time. A hit on an entry
// that was never certified still runs the full certifier.
//
// Thread-safety: lookup/insert/stats are mutex-guarded; entries are
// handed out as shared_ptr<const ...> so readers never race an
// eviction. Capacity is a hard entry bound — with V-sized arrays per
// entry this is the server's dominant memory budget, and the eviction
// counter is how the chaos harness observes the bound holding.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "graph/types.hpp"
#include "sssp/result.hpp"

namespace sssp::serve {

struct CacheKey {
  std::uint64_t fingerprint = 0;
  graph::VertexId source = 0;
  std::string options_key;  // canonical "algorithm:delta:set_point"

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept;
};

// Canonical options string (the cache-key third component).
std::string cache_options_key(const std::string& algorithm,
                              std::uint64_t delta, double set_point);

// Word-wise integrity hash over a result's distances and parents: four
// lanes of h = (h ^ w) * odd over 64-bit words, folded with the array
// sizes. Each step is a bijection of h, so a change confined to one
// word (such as one flipped bit) always changes the hash. An integrity
// check, not a checksum clients see: responses carry dist_checksum.
std::uint64_t integrity_hash(const algo::SsspResult& result) noexcept;

struct CacheEntry {
  algo::SsspResult result;
  // FNV-1a 64 over the distance array, the response's dist_checksum.
  std::uint64_t dist_checksum = 0;
  // integrity_hash(result), computed by the *producer* before insert,
  // so a flipped bit in the stored copy is detectable against it.
  std::uint64_t integrity = 0;
  // The fresh result passed the certifier (false when the query that
  // produced it ran with verification off).
  bool certified = false;
};

class ResultCache {
 public:
  // `capacity` bounds entries; `max_bytes` (0 = unbounded) additionally
  // bounds the summed size of the cached arrays — the knob the resource
  // budget layer uses, since entry counts say nothing about V-sized
  // payloads. Either bound evicts from the LRU tail; an entry larger
  // than max_bytes on its own is effectively not cached.
  explicit ResultCache(std::size_t capacity, std::size_t max_bytes = 0);

  // Hit moves the entry to the front of the LRU order.
  std::shared_ptr<const CacheEntry> lookup(const CacheKey& key);

  // Inserts (or replaces) and evicts from the LRU tail past capacity.
  // Hosts the `serve.cache.flip` failpoint: when armed, one finite
  // distance in a private copy of the entry is bit-flipped before it is
  // stored — subsequent hits serve poisoned data that the read-side
  // integrity check must catch.
  void insert(const CacheKey& key, std::shared_ptr<const CacheEntry> entry);

  // Drops the entry if present (read-side poisoning quarantine).
  void invalidate(const CacheKey& key);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::uint64_t invalidations = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;  // summed payload size of resident entries
  };
  Stats stats() const;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t max_bytes() const noexcept { return max_bytes_; }

 private:
  struct Slot {
    CacheKey key;
    std::shared_ptr<const CacheEntry> entry;
    std::size_t bytes = 0;
  };

  void evict_tail_locked();

  const std::size_t capacity_;
  const std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  mutable std::mutex mu_;
  std::list<Slot> lru_;  // front = most recent
  std::unordered_map<CacheKey, std::list<Slot>::iterator, CacheKeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace sssp::serve
