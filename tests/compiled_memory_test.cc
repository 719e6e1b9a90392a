// Memory of compiled zones at the benchmark's hierarchy shape: 561 zones
// (BuildHierarchy 20 x 27 x 4), each in its own ZoneSet as the
// split-horizon meta server holds them. The summed
// CompiledZone::MemoryFootprint stays under a bound set from the one-block
// layout, the heap grows by about that much across AddZone (mallinfo2;
// skipped under sanitizers, whose allocators mallinfo2 does not see), and
// every set still finds its zone through its one origin index.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdio>
#include <vector>

#include "dns/wire.h"
#include "workload/hierarchy.h"
#include "zone/view.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LDP_HEAP_IS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LDP_HEAP_IS_SANITIZED 1
#endif
#endif

namespace ldp {
namespace {

workload::HierarchyConfig BenchHierarchyShape() {
  workload::HierarchyConfig config;
  config.n_tlds = 20;
  config.n_slds_per_tld = 27;
  config.n_hosts_per_sld = 4;
  config.ns_per_zone = 2;
  return config;
}

size_t HeapInUse() { return mallinfo2().uordblks; }

// The compiled index of `set`'s zone at `origin`.
const zone::CompiledZone* CompiledAt(const zone::ZoneSet& set,
                                     const dns::Name& origin) {
  return set.FindBestCompiled(dns::IndexedWireName(origin.wire()).view());
}

TEST(CompiledMemory, HierarchyShapeFitsItsData) {
  const workload::Hierarchy hierarchy =
      workload::BuildHierarchy(BenchHierarchyShape());
  const std::vector<zone::ZonePtr> zones = hierarchy.AllZones();
  ASSERT_EQ(zones.size(), 561u);
  size_t source_bytes = 0;
  for (const auto& zone : zones) source_bytes += zone->MemoryFootprint();

  // The first pass also leaves the build scratch a thread keeps from zone
  // to zone (compiled.cc) allocated; the second measures what the sets
  // hold.
  size_t cold_growth = 0;
  {
    std::vector<zone::ZoneSet> cold(zones.size());
    const size_t heap_before = HeapInUse();
    for (size_t i = 0; i < zones.size(); ++i) {
      ASSERT_TRUE(cold[i].AddZone(zones[i]).ok());
    }
    cold_growth = HeapInUse() - heap_before;
  }
  std::vector<zone::ZoneSet> sets(zones.size());
  const size_t heap_before = HeapInUse();
  for (size_t i = 0; i < zones.size(); ++i) {
    ASSERT_TRUE(sets[i].AddZone(zones[i]).ok());
  }
  const size_t heap_growth = HeapInUse() - heap_before;

  size_t compiled_bytes = 0;
  size_t total_bytes = 0;
  for (size_t i = 0; i < zones.size(); ++i) {
    const zone::CompiledZone* compiled =
        CompiledAt(sets[i], zones[i]->origin());
    ASSERT_NE(compiled, nullptr);
    compiled_bytes += compiled->MemoryFootprint();
    total_bytes += sets[i].TotalMemoryFootprint();
  }
  std::printf(
      "561 zones: source %.3f MB (estimate), compiled %.3f MB, heap growth "
      "across AddZone %.3f MB, ZoneSet overhead %.3f MB, build scratch "
      "%.3f MB\n",
      source_bytes / 1e6, compiled_bytes / 1e6, heap_growth / 1e6,
      (static_cast<double>(heap_growth) - compiled_bytes) / 1e6,
      (static_cast<double>(cold_growth) - heap_growth) / 1e6);

  // The index in one block measured 1.23 MB here (2.45 MB as 13 vectors).
  EXPECT_LT(compiled_bytes, 1'350'000u);
  EXPECT_EQ(total_bytes, source_bytes + compiled_bytes);
#ifndef LDP_HEAP_IS_SANITIZED
  // The footprint is what the heap holds: the blocks, their objects, the
  // sets' own vectors and malloc's headers, within 10%.
  EXPECT_GT(heap_growth, compiled_bytes);
  EXPECT_LT(heap_growth, compiled_bytes + compiled_bytes / 10);
  // 561 one-zone sets: two small vectors each, and malloc's headers.
  EXPECT_LT(heap_growth - compiled_bytes, 100'000u);
  // The scratch kept for the next zone is bounded (kKeepScratchBytes).
  EXPECT_LT(cold_growth - heap_growth, 128u * 1024);
#endif

  // One origin index answers every lookup: the exact origin, the deepest
  // origin above a name, and a duplicate add.
  for (size_t i = 0; i < zones.size(); ++i) {
    const dns::Name& origin = zones[i]->origin();
    EXPECT_EQ(sets[i].FindZone(origin), zones[i]);
    EXPECT_EQ(sets[i].FindBestZone(*origin.Child("below")), zones[i].get());
    EXPECT_EQ(sets[i].AddZone(zones[i]).error().code(),
              ErrorCode::kAlreadyExists);
    EXPECT_EQ(sets[i].zone_count(), 1u);
  }
}

}  // namespace
}  // namespace ldp
