//===- tests/stats/StatsLayerTest.cpp - Observability layer units --------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for src/stats: sharded counting, snapshot/delta algebra,
/// histogram bucketing, thread churn, the hash-scan plan counters, and
/// the VBL_STATS=0 contract.
/// Every test runs in both build modes — when the layer is compiled
/// out, the same assertions verify that bumps are no-ops and snapshots
/// stay empty, so the stats-off CI leg exercises this file unchanged.
///
//===----------------------------------------------------------------------===//

#include "stats/Stats.h"

#include "lists/SetInterface.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

using namespace vbl;

TEST(StatsLayer, CounterAndHistogramNames) {
  // The names are the stable contract shared by the JSON schema, the
  // human-readable table and the docs; spot-check the catalogue.
  EXPECT_STREQ(stats::counterName(stats::Counter::ListTraversals),
               "list.traversals");
  EXPECT_STREQ(stats::counterName(stats::Counter::ListValueValidationAborts),
               "list.value_validation_aborts");
  EXPECT_STREQ(stats::counterName(stats::Counter::LockOptimisticRetries),
               "lock.optimistic_retries");
  EXPECT_STREQ(stats::counterName(stats::Counter::VbrBirthRejects),
               "reclaim.vbr.birth_rejects");
  EXPECT_STREQ(stats::counterName(stats::Counter::MapResizesLost),
               "map.resizes_lost");
  EXPECT_STREQ(stats::counterName(stats::Counter::MapScanWalks),
               "map.scan_walks");
  EXPECT_STREQ(stats::counterName(stats::Counter::MapScanLookups),
               "map.scan_lookups");
  EXPECT_STREQ(stats::histogramName(stats::Histogram::TraversalHops),
               "hist.traversal_hops");
  EXPECT_STREQ(stats::histogramName(stats::Histogram::EpochLag),
               "hist.epoch_lag");
  // Every enumerator must have a distinct non-empty name.
  std::vector<std::string> Seen;
  for (size_t I = 0; I != stats::NumCounters; ++I) {
    const std::string Name =
        stats::counterName(static_cast<stats::Counter>(I));
    EXPECT_FALSE(Name.empty());
    for (const std::string &Other : Seen)
      EXPECT_NE(Name, Other);
    Seen.push_back(Name);
  }
}

TEST(StatsLayer, BumpAndDelta) {
  const stats::Snapshot Before = stats::snapshotAll();
  stats::bump(stats::Counter::ListRestarts);
  stats::bump(stats::Counter::ListCasFailures, 41);
  const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
  if (stats::Enabled) {
    EXPECT_EQ(Delta.get(stats::Counter::ListRestarts), 1u);
    EXPECT_EQ(Delta.get(stats::Counter::ListCasFailures), 41u);
    EXPECT_EQ(Delta.get(stats::Counter::ListTrylockFailures), 0u);
    EXPECT_FALSE(Delta.empty());
  } else {
    EXPECT_TRUE(Delta.empty());
  }
}

TEST(StatsLayer, WrappingDeltaSupportsGauges) {
  // A gauge counts down with wrapping additions, and delta subtracts
  // the same way, so an up-then-down interval nets to zero.
  const stats::Snapshot Before = stats::snapshotAll();
  stats::bump(stats::Counter::MapResizesLost, 7);
  stats::bump(stats::Counter::MapResizesLost, uint64_t(0) - 7);
  const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
  EXPECT_EQ(Delta.get(stats::Counter::MapResizesLost), 0u);
}

TEST(StatsLayer, HistogramBucketing) {
  // Bucket = bit_width(V) capped at 15; bucket 0 is exactly zero.
  EXPECT_EQ(stats::histogramBucket(0), 0u);
  EXPECT_EQ(stats::histogramBucket(1), 1u);
  EXPECT_EQ(stats::histogramBucket(2), 2u);
  EXPECT_EQ(stats::histogramBucket(3), 2u);
  EXPECT_EQ(stats::histogramBucket(4), 3u);
  EXPECT_EQ(stats::histogramBucket(7), 3u);
  EXPECT_EQ(stats::histogramBucket(8), 4u);
  EXPECT_EQ(stats::histogramBucket((1u << 14) - 1), 14u);
  EXPECT_EQ(stats::histogramBucket(1u << 14), 15u);
  EXPECT_EQ(stats::histogramBucket(~uint64_t(0)), 15u);

  const stats::Snapshot Before = stats::snapshotAll();
  stats::histogramAdd(stats::Histogram::EpochLag, 0);
  stats::histogramAdd(stats::Histogram::EpochLag, 1);
  stats::histogramAdd(stats::Histogram::EpochLag, 5);
  stats::histogramAdd(stats::Histogram::EpochLag, 5);
  const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
  if (stats::Enabled) {
    const auto &H = Delta.hist(stats::Histogram::EpochLag);
    EXPECT_EQ(H[0], 1u);
    EXPECT_EQ(H[1], 1u);
    EXPECT_EQ(H[3], 2u);
    EXPECT_EQ(H[2], 0u);
  } else {
    EXPECT_TRUE(Delta.empty());
  }
}

TEST(StatsLayer, NoteTraversalBumpsAllThree) {
  const stats::Snapshot Before = stats::snapshotAll();
  stats::noteTraversal(6);
  stats::noteTraversal(0);
  const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
  if (stats::Enabled) {
    EXPECT_EQ(Delta.get(stats::Counter::ListTraversals), 2u);
    EXPECT_EQ(Delta.get(stats::Counter::ListTraversalHops), 6u);
    const auto &H = Delta.hist(stats::Histogram::TraversalHops);
    EXPECT_EQ(H[0], 1u); // The empty traversal.
    EXPECT_EQ(H[3], 1u); // 6 has bit_width 3.
  } else {
    EXPECT_TRUE(Delta.empty());
  }
}

TEST(StatsLayer, CrossThreadFold) {
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 10000;
  const stats::Snapshot Before = stats::snapshotAll();
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([] {
      for (uint64_t I = 0; I != PerThread; ++I)
        stats::bump(stats::Counter::EpochRetired);
    });
  for (auto &W : Workers)
    W.join();
  const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
  if (stats::Enabled)
    EXPECT_EQ(Delta.get(stats::Counter::EpochRetired),
              Threads * PerThread);
  else
    EXPECT_TRUE(Delta.empty());
}

TEST(StatsLayer, ThreadChurnLosesNothing) {
  // Shards are parked (unzeroed) on a freelist at thread exit: totals
  // must stay exact and monotonic across heavy thread churn, the
  // explorer's usage pattern.
  constexpr int Generations = 64;
  const stats::Snapshot Before = stats::snapshotAll();
  for (int G = 0; G != Generations; ++G) {
    std::thread Worker(
        [] { stats::bump(stats::Counter::EpochAdvances, 3); });
    Worker.join();
  }
  const stats::Snapshot Delta = stats::snapshotAll().delta(Before);
  if (stats::Enabled)
    EXPECT_EQ(Delta.get(stats::Counter::EpochAdvances),
              static_cast<uint64_t>(Generations) * 3);
  else
    EXPECT_TRUE(Delta.empty());
}

// A slow hash scan explains itself: map.scan_walks counts scans that
// walked the whole split-ordered list, map.scan_lookups the keys a
// narrow scan decided one bucket lookup each.
TEST(StatsLayer, HashScanPlanCounters) {
  for (const std::string &Name : registeredHashSetNames()) {
    auto Set = makeSet(Name);
    ASSERT_NE(Set, nullptr) << Name;
    for (SetKey Key = 0; Key != 1000; ++Key)
      ASSERT_TRUE(Set->insert(Key)) << Name;
    std::vector<SetKey> Out;

    // The full-domain snapshot is the widest window there is.
    stats::Snapshot Before = stats::snapshotAll();
    EXPECT_EQ(Set->snapshot(Out), 1000u) << Name;
    stats::Snapshot Delta = stats::snapshotAll().delta(Before);
    if (stats::Enabled) {
      EXPECT_EQ(Delta.get(stats::Counter::MapScanWalks), 1u) << Name;
      EXPECT_EQ(Delta.get(stats::Counter::MapScanLookups), 0u) << Name;
    } else {
      EXPECT_TRUE(Delta.empty()) << Name;
    }

    // 64 candidate keys against ~1000 nodes: one lookup per key.
    Out.clear();
    Before = stats::snapshotAll();
    EXPECT_EQ(Set->rangeQuery(100, 163, Out), 64u) << Name;
    Delta = stats::snapshotAll().delta(Before);
    if (stats::Enabled) {
      EXPECT_EQ(Delta.get(stats::Counter::MapScanWalks), 0u) << Name;
      EXPECT_EQ(Delta.get(stats::Counter::MapScanLookups), 64u) << Name;
    } else {
      EXPECT_TRUE(Delta.empty()) << Name;
    }
  }
}

TEST(StatsLayer, RenderTableSkipsZeroRows) {
  stats::Snapshot S;
  EXPECT_TRUE(stats::renderTable(S).empty());
  S.Counters[static_cast<size_t>(stats::Counter::ListRestarts)] = 2;
  const std::string Table = stats::renderTable(S);
  EXPECT_NE(Table.find("list.restarts"), std::string::npos);
  EXPECT_EQ(Table.find("list.traversals"), std::string::npos);
}

TEST(StatsLayer, JsonFieldsAreWellFormed) {
  stats::Snapshot S;
  S.Counters[static_cast<size_t>(stats::Counter::ListCasFailures)] = 9;
  S.Histograms[static_cast<size_t>(stats::Histogram::EpochLag)][1] = 4;
  std::string Out;
  stats::appendJsonFields(S, Out);
  EXPECT_NE(Out.find("\"list.cas_failures\":9"), std::string::npos);
  EXPECT_NE(Out.find("\"hist.epoch_lag\":[0,4,0"), std::string::npos);
  // Parse-level sanity: a reader wrapping this in braces must get JSON.
  EXPECT_EQ(Out.front(), '"');
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '['),
            std::count(Out.begin(), Out.end(), ']'));
}

TEST(StatsLayer, CompileOutContract) {
  // Documented contract either way: Enabled reflects VBL_STATS, and a
  // disabled layer yields empty snapshots no matter what ran before.
#if VBL_STATS
  EXPECT_TRUE(stats::Enabled);
#else
  EXPECT_FALSE(stats::Enabled);
  stats::bump(stats::Counter::ListRestarts, 1000);
  EXPECT_TRUE(stats::snapshotAll().empty());
#endif
}
