#include "serve/result_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "fault/failpoint.hpp"
#include "graph/binary_io.hpp"
#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "verify/certifier.hpp"

namespace sssp::serve {
namespace {

using algo::testing::ring;

CacheKey key(std::uint64_t fingerprint, graph::VertexId source) {
  CacheKey k;
  k.fingerprint = fingerprint;
  k.source = source;
  k.options_key = cache_options_key("near-far", 0, 0.0);
  return k;
}

std::shared_ptr<CacheEntry> entry_for(const graph::CsrGraph& g,
                                      graph::VertexId source) {
  auto entry = std::make_shared<CacheEntry>();
  entry->result = algo::dijkstra(g, source);
  entry->dist_checksum = graph::fnv1a64(
      entry->result.distances.data(),
      entry->result.distances.size() * sizeof(graph::Distance));
  entry->integrity = integrity_hash(entry->result);
  entry->certified = true;
  return entry;
}

TEST(ResultCacheTest, HitAfterInsert) {
  const auto g = ring(32);
  ResultCache cache(4);
  EXPECT_EQ(cache.lookup(key(1, 0)), nullptr);
  cache.insert(key(1, 0), entry_for(g, 0));
  const auto hit = cache.lookup(key(1, 0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result.distances[5], 5u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  const auto g = ring(32);
  ResultCache cache(2);
  cache.insert(key(1, 0), entry_for(g, 0));
  cache.insert(key(1, 1), entry_for(g, 1));
  // Touch 0 so 1 becomes the LRU victim.
  ASSERT_NE(cache.lookup(key(1, 0)), nullptr);
  cache.insert(key(1, 2), entry_for(g, 2));
  EXPECT_NE(cache.lookup(key(1, 0)), nullptr);
  EXPECT_EQ(cache.lookup(key(1, 1)), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key(1, 2)), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ResultCacheTest, CapacityIsAHardBound) {
  const auto g = ring(32);
  ResultCache cache(3);
  for (graph::VertexId s = 0; s < 20; ++s)
    cache.insert(key(1, s), entry_for(g, s));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 17u);
}

TEST(ResultCacheTest, FingerprintMismatchNeverHits) {
  const auto g = ring(32);
  ResultCache cache(4);
  cache.insert(key(0xAAAA, 0), entry_for(g, 0));
  // Same source and options on a *different graph's* fingerprint — a
  // restarted server must never serve the old graph's answer.
  EXPECT_EQ(cache.lookup(key(0xBBBB, 0)), nullptr);
  EXPECT_NE(cache.lookup(key(0xAAAA, 0)), nullptr);
}

TEST(ResultCacheTest, OptionsAreSeparateEntries) {
  const auto g = ring(32);
  ResultCache cache(4);
  CacheKey nf = key(1, 0);
  CacheKey ds = key(1, 0);
  ds.options_key = cache_options_key("delta-stepping", 16, 0.0);
  cache.insert(nf, entry_for(g, 0));
  EXPECT_EQ(cache.lookup(ds), nullptr);
  EXPECT_NE(cache.lookup(nf), nullptr);
}

TEST(ResultCacheTest, InvalidateRemoves) {
  const auto g = ring(32);
  ResultCache cache(4);
  cache.insert(key(1, 0), entry_for(g, 0));
  cache.invalidate(key(1, 0));
  EXPECT_EQ(cache.lookup(key(1, 0)), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  cache.invalidate(key(1, 0));  // absent: a no-op, not a count
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  const auto g = ring(32);
  ResultCache cache(0);
  cache.insert(key(1, 0), entry_for(g, 0));
  EXPECT_EQ(cache.lookup(key(1, 0)), nullptr);
}

// The cache-poisoning drill: with serve.cache.flip armed, the stored
// copy has one finite distance bit-flipped while the producer-computed
// hashes are untouched — so the read side (the integrity check, or
// certification) must catch it. This is the in-vitro version of what
// the server's cache-hit path does in production.
TEST(ResultCacheTest, PoisonedInsertIsCaughtOnRead) {
  const auto g = ring(64);
  ResultCache cache(4);
  const auto clean = entry_for(g, 0);
  fault::FailpointRegistry::global().arm("serve.cache.flip");
  cache.insert(key(1, 0), clean);
  fault::FailpointRegistry::global().disarm_all();

  const auto poisoned = cache.lookup(key(1, 0));
  ASSERT_NE(poisoned, nullptr);
  // The caller's copy was not mutated — only the stored one.
  const verify::Certificate clean_cert = verify::certify(g, clean->result);
  EXPECT_TRUE(clean_cert.certified);
  // Certification catches the flip...
  const verify::Certificate cert = verify::certify(g, poisoned->result);
  EXPECT_FALSE(cert.certified) << cert.summary();
  // ...and so does the checksum comparison.
  const std::uint64_t read_checksum = graph::fnv1a64(
      poisoned->result.distances.data(),
      poisoned->result.distances.size() * sizeof(graph::Distance));
  EXPECT_NE(read_checksum, poisoned->dist_checksum);
  // ...and so does the integrity check a certified hit runs.
  EXPECT_NE(integrity_hash(poisoned->result), poisoned->integrity);
  EXPECT_EQ(integrity_hash(clean->result), clean->integrity);
}

// A stored entry with one bit flipped, in any distance or any parent,
// fails the integrity check: every step of the hash is a bijection, so
// a change confined to one word always changes it. Exhaustive over
// every bit of a small result, one flip at a time.
TEST(ResultCacheTest, IntegrityHashCatchesEveryFlippedDistanceAndParentBit) {
  const auto g = ring(37);  // odd V: the parent array ends in a tail word
  const auto clean = entry_for(g, 0);
  algo::SsspResult copy = clean->result;
  for (std::size_t i = 0; i < copy.distances.size(); ++i)
    for (int bit = 0; bit < 64; ++bit) {
      copy.distances[i] ^= graph::Distance{1} << bit;
      EXPECT_NE(integrity_hash(copy), clean->integrity)
          << "distance " << i << " bit " << bit;
      copy.distances[i] ^= graph::Distance{1} << bit;
    }
  for (std::size_t i = 0; i < copy.parents.size(); ++i)
    for (int bit = 0; bit < 32; ++bit) {
      copy.parents[i] ^= graph::VertexId{1} << bit;
      EXPECT_NE(integrity_hash(copy), clean->integrity)
          << "parent " << i << " bit " << bit;
      copy.parents[i] ^= graph::VertexId{1} << bit;
    }
  EXPECT_EQ(integrity_hash(copy), clean->integrity);
}

// The hash covers the array sizes: a result cut short by one trailing
// parent does not match.
TEST(ResultCacheTest, IntegrityHashCoversArraySizes) {
  const auto g = ring(32);
  const auto clean = entry_for(g, 0);
  algo::SsspResult copy = clean->result;
  copy.parents.pop_back();
  EXPECT_NE(integrity_hash(copy), clean->integrity);
}

// Byte bound (docs/ROBUSTNESS.md, "Resource budgets & exhaustion"):
// entry counts say nothing about V-sized payloads, so the cache also
// enforces a summed-bytes cap, evicting from the LRU tail.
TEST(ResultCacheTest, ByteBudgetEvictsFromTheTail) {
  const auto g = ring(64);
  // One ring-64 entry is ~64*12 payload bytes plus the struct; three
  // entries fit comfortably, five do not.
  const std::size_t one_entry =
      sizeof(CacheEntry) + 64 * (sizeof(graph::Distance) +
                                 sizeof(graph::VertexId));
  ResultCache cache(100, 3 * one_entry + one_entry / 2);
  for (graph::VertexId s = 0; s < 5; ++s)
    cache.insert(key(1, s), entry_for(g, s));
  const auto stats = cache.stats();
  EXPECT_LE(stats.bytes, 3 * one_entry + one_entry / 2);
  EXPECT_LT(stats.entries, 5u) << "byte bound never evicted";
  EXPECT_GT(stats.evictions, 0u);
  // Newest entries survive; the oldest were evicted.
  EXPECT_NE(cache.lookup(key(1, 4)), nullptr);
  EXPECT_EQ(cache.lookup(key(1, 0)), nullptr);
}

TEST(ResultCacheTest, BytesAccountingFollowsInsertAndInvalidate) {
  const auto g = ring(32);
  ResultCache cache(8, 1 << 20);
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.insert(key(1, 0), entry_for(g, 0));
  const std::size_t after_one = cache.stats().bytes;
  EXPECT_GT(after_one, 0u);
  cache.insert(key(1, 1), entry_for(g, 1));
  EXPECT_EQ(cache.stats().bytes, 2 * after_one);
  // Replacing an entry must not double-count it.
  cache.insert(key(1, 0), entry_for(g, 0));
  EXPECT_EQ(cache.stats().bytes, 2 * after_one);
  cache.invalidate(key(1, 0));
  cache.invalidate(key(1, 1));
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// Concurrent hits, inserts, and evictions on a small cache: entries are
// handed out as shared_ptr<const>, so readers must never race an
// eviction. Run under TSan in CI.
TEST(ResultCacheTest, ConcurrentHitInsertEvict) {
  const auto g = ring(32);
  ResultCache cache(4);
  std::vector<std::shared_ptr<CacheEntry>> entries;
  for (graph::VertexId s = 0; s < 8; ++s) entries.push_back(entry_for(g, s));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &entries, t] {
      for (int i = 0; i < 400; ++i) {
        const auto s = static_cast<graph::VertexId>((i + t) % 8);
        if ((i + t) % 3 == 0) {
          cache.insert(key(1, s), entries[s]);
        } else if (const auto hit = cache.lookup(key(1, s)); hit != nullptr) {
          // Touch the payload: a use-after-evict would trip TSan/ASan.
          EXPECT_EQ(hit->result.distances[s], 0u);  // source's own distance
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace sssp::serve
