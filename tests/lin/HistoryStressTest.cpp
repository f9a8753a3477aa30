//===- tests/lin/HistoryStressTest.cpp - End-to-end lincheck -------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Integration: run every registered algorithm under a contended random
/// workload while recording the real-time history, then decide
/// linearizability with the checker. This is the strongest dynamic
/// correctness evidence in the repo (Theorem 1 exercised end-to-end).
///
//===----------------------------------------------------------------------===//

#include "lin/LinChecker.h"

#include "lists/SetInterface.h"
#include "stats/Stats.h"
#include "support/Barrier.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace vbl;
using namespace vbl::lin;

namespace {

/// Divides stress volumes by $VBL_STRESS_DIV (sanitizer runs set it:
/// TSan's shadow state for hundreds of thousands of distinct atomics
/// exceeds small-host memory at full volume).
int scaledOps(int Base) {
  if (const char *Div = std::getenv("VBL_STRESS_DIV")) {
    const int Factor = std::atoi(Div);
    if (Factor > 1)
      return Base / Factor;
  }
  return Base;
}

class HistoryStressTest : public ::testing::TestWithParam<std::string> {};

/// \p ScanSpan bounds how far a scan's Hi lies past its Lo; 0 keeps
/// the default of half the key range.
void runAndCheck(const std::string &Algo, unsigned NumThreads,
                 SetKey KeyRange, int OpsPerThread, uint64_t Seed,
                 unsigned ScanPercent = 0, uint64_t ScanSpan = 0) {
  auto Set = makeSet(Algo);
  ASSERT_NE(Set, nullptr);

  // Prefill deterministically: even keys present.
  std::vector<SetKey> Initial;
  for (SetKey Key = 0; Key < KeyRange; Key += 2) {
    ASSERT_TRUE(Set->insert(Key));
    Initial.push_back(Key);
  }

  HistoryRecorder Recorder(NumThreads);
  // Scans are recorded per thread (no synchronization, like ThreadLog)
  // and lowered to per-key Contains observations after the join.
  std::vector<std::vector<CompletedScan>> ScanLogs(NumThreads);
  if (ScanSpan == 0)
    ScanSpan = static_cast<uint64_t>(KeyRange) / 2 + 1;
  SpinBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      auto &Log = Recorder.threadLog(T);
      Xoshiro256 Rng(Seed + T);
      Barrier.arriveAndWait();
      for (int I = 0; I != OpsPerThread; ++I) {
        const SetKey Key =
            static_cast<SetKey>(Rng.nextBounded(KeyRange));
        if (ScanPercent && Rng.nextBounded(100) < ScanPercent) {
          const SetKey Hi =
              Key + static_cast<SetKey>(Rng.nextBounded(ScanSpan));
          CompletedScan Scan;
          Scan.Lo = Key;
          Scan.Hi = Hi;
          Scan.Thread = T;
          Scan.Invoke = historyClock();
          Set->rangeQuery(Key, Hi, Scan.Keys);
          Scan.Response = historyClock();
          ScanLogs[T].push_back(std::move(Scan));
          continue;
        }
        switch (Rng.nextBounded(3)) {
        case 0:
          recordOp(
              Log, SetOp::Insert, Key,
              [&] { return Set->insert(Key); });
          break;
        case 1:
          recordOp(
              Log, SetOp::Remove, Key,
              [&] { return Set->remove(Key); });
          break;
        default:
          recordOp(
              Log, SetOp::Contains, Key,
              [&] { return Set->contains(Key); });
          break;
        }
      }
    });
  }
  for (auto &Thread : Threads)
    Thread.join();

  std::vector<CompletedOp> History = Recorder.merged();
  if (ScanPercent) {
    std::vector<CompletedScan> AllScans;
    size_t ScanCount = 0;
    for (std::vector<CompletedScan> &Mine : ScanLogs) {
      ScanCount += Mine.size();
      for (CompletedScan &Scan : Mine)
        AllScans.push_back(std::move(Scan));
    }
    EXPECT_GT(ScanCount, 0u) << Algo << ": scan mix produced no scans";
    std::vector<SetKey> Universe;
    for (SetKey Key = 0; Key != KeyRange; ++Key)
      Universe.push_back(Key);
    for (CompletedOp &Op : decomposeScans(AllScans, Universe))
      History.push_back(std::move(Op));
  }
  // Everything needed to replay a failure: backend, seed, the shape of
  // the run, and the host (some interleavings need several cores).
  const std::string Replay = Algo + " seed=" + std::to_string(Seed) +
                             " threads=" + std::to_string(NumThreads) +
                             " range=" + std::to_string(KeyRange) + " " +
                             hostContext();
  const LinResult Result = checkSetHistory(History, Initial);
  EXPECT_TRUE(Result.ok()) << Replay << ": "
                           << linVerdictName(Result.Verdict) << ": "
                           << Result.Message;

  // The final snapshot must extend the history linearizably too: append
  // one contains per key and re-check (the sigma-bar(v) idea of §2.2).
  std::vector<CompletedOp> Extended = Recorder.merged();
  const uint64_t End = historyClock();
  const std::vector<SetKey> Final = Set->snapshot();
  std::vector<bool> Present(static_cast<size_t>(KeyRange), false);
  for (SetKey Key : Final)
    Present[static_cast<size_t>(Key)] = true;
  for (SetKey Key = 0; Key != KeyRange; ++Key)
    Extended.push_back({SetOp::Contains, Key,
                        Present[static_cast<size_t>(Key)], End + 1,
                        End + 2, 0});
  const LinResult ExtResult = checkSetHistory(Extended, Initial);
  EXPECT_TRUE(ExtResult.ok()) << Replay << " extended: "
                              << linVerdictName(ExtResult.Verdict) << ": "
                              << ExtResult.Message;
}

class HashScanStressTest : public ::testing::TestWithParam<std::string> {};

/// Runs \p Run and, in a stats-on build, checks that it moved \p Path
/// (map.scan_lookups or map.scan_walks): the scan plan the case covers.
void expectScanPath(stats::Counter Path, const std::function<void()> &Run) {
  const stats::Snapshot Before = stats::snapshotAll();
  Run();
  if (stats::Enabled) {
    EXPECT_GT(stats::snapshotAll().delta(Before).get(Path), 0u)
        << stats::counterName(Path);
  }
}

/// gtest parameter names: registry names with '-' spelled '_'.
std::string paramName(const ::testing::TestParamInfo<std::string> &Info) {
  std::string Name = Info.param;
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

} // namespace

TEST_P(HistoryStressTest, ContendedSmallRange) {
  runAndCheck(GetParam(), 4, /*KeyRange=*/6, scaledOps(4000),
              /*Seed=*/11);
}

TEST_P(HistoryStressTest, ModerateRange) {
  runAndCheck(GetParam(), 4, /*KeyRange=*/64, scaledOps(4000),
              /*Seed=*/23);
}

TEST_P(HistoryStressTest, SingleKeyWarfare) {
  runAndCheck(GetParam(), 8, /*KeyRange=*/2, scaledOps(1500),
              /*Seed=*/37);
}

// Scans mixed with updates: every reported (and omitted) key of every
// concurrent rangeQuery must be justified at some point inside the
// scan's interval — the widened-interval contract, decided by lowering
// scans to per-key Contains observations (decomposeScans).
TEST_P(HistoryStressTest, ScanMixLinearizable) {
  runAndCheck(GetParam(), 4, /*KeyRange=*/32, scaledOps(2500),
              /*Seed=*/53, /*ScanPercent=*/20);
}

TEST_P(HistoryStressTest, ScanHeavySmallRange) {
  runAndCheck(GetParam(), 4, /*KeyRange=*/8, scaledOps(1500),
              /*Seed=*/71, /*ScanPercent=*/50);
}

// The split-ordered hash sets (restricted key domain, so not in the
// registry list above) under the two scan shapes, plus a wide-window
// one. A hash scan picks its plan by window width: the small ranges
// keep every window within sizeFast() + bucketCount() candidates, so
// each key is decided by a bucket-anchored lookup, while windows of up
// to 2^20 keys over the same 32-key universe take the whole-list walk.
// In a stats-on build each case also checks that its plan ran.
TEST_P(HashScanStressTest, ScanMixLinearizable) {
  expectScanPath(stats::Counter::MapScanLookups, [&] {
    runAndCheck(GetParam(), 4, /*KeyRange=*/32, scaledOps(2500),
                /*Seed=*/53, /*ScanPercent=*/20);
  });
}

TEST_P(HashScanStressTest, ScanHeavySmallRange) {
  expectScanPath(stats::Counter::MapScanLookups, [&] {
    runAndCheck(GetParam(), 4, /*KeyRange=*/8, scaledOps(1500),
                /*Seed=*/71, /*ScanPercent=*/50);
  });
}

TEST_P(HashScanStressTest, ScanMixWideWindows) {
  expectScanPath(stats::Counter::MapScanWalks, [&] {
    runAndCheck(GetParam(), 4, /*KeyRange=*/32, scaledOps(2500),
                /*Seed=*/89, /*ScanPercent=*/20,
                /*ScanSpan=*/uint64_t{1} << 20);
  });
}

INSTANTIATE_TEST_SUITE_P(Registry, HistoryStressTest,
                         ::testing::ValuesIn(registeredSetNames()),
                         paramName);

INSTANTIATE_TEST_SUITE_P(Hash, HashScanStressTest,
                         ::testing::ValuesIn(registeredHashSetNames()),
                         paramName);
