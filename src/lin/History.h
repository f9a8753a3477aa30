//===- lin/History.h - Concurrent operation histories --------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recording of high-level histories (§2.1): invocations and responses
/// of set operations with real-time ordering, captured with per-thread
/// logs so recording never adds synchronization between the threads
/// under test.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LIN_HISTORY_H
#define VBL_LIN_HISTORY_H

#include "core/SetConfig.h"
#include "support/Compiler.h"
#include "sync/Policy.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace vbl {
namespace lin {

/// The history clock: a logical counter every Invoke/Response stamp
/// takes with a seq_cst fetch_add. The read-modify-write orders the
/// stamp after every store the op made (a locked instruction drains
/// the store buffer on x86), so a writer whose linearization point is
/// a plain release store cannot stamp its Response before that store
/// is visible — which an unfenced TSC read can. The ticks also form
/// one total order across threads. History recording only: timing
/// (nowNanos, Stopwatch) and the benches stay fence-free.
inline uint64_t historyClock() {
  static std::atomic<uint64_t> Ticks{1};
  return Ticks.fetch_add(1, std::memory_order_seq_cst);
}

/// One completed high-level operation. Invoke/Response are stamps from
/// historyClock(): Op A precedes Op B in real time iff
/// A.Response < B.Invoke (§2.1's ->_H relation).
struct CompletedOp {
  SetOp Op;
  SetKey Key;
  bool Result;
  uint64_t Invoke;
  uint64_t Response;
  uint32_t Thread;
};

/// One completed range scan: the window it covered, the keys it
/// returned, and its real-time interval. Scans are not checked
/// directly; decomposeScans() lowers each one to per-key Contains
/// observations that ride through the standard per-key decomposition.
struct CompletedScan {
  SetKey Lo;
  SetKey Hi;
  std::vector<SetKey> Keys;
  uint64_t Invoke;
  uint64_t Response;
  uint32_t Thread;
};

/// Collects per-thread logs without cross-thread synchronization; the
/// merge happens after the threads under test have joined.
class HistoryRecorder {
public:
  explicit HistoryRecorder(unsigned NumThreads);

  /// The log operations of thread \p ThreadId are recorded into. Must
  /// only be used from that one thread.
  class ThreadLog {
  public:
    void record(SetOp Op, SetKey Key, bool Result, uint64_t Invoke,
                uint64_t Response) {
      Ops.push_back({Op, Key, Result, Invoke, Response, Thread});
    }

  private:
    friend class HistoryRecorder;
    std::vector<CompletedOp> Ops;
    uint32_t Thread = 0;
  };

  ThreadLog &threadLog(unsigned ThreadId) {
    VBL_ASSERT(ThreadId < Logs.size(), "thread id out of range");
    return Logs[ThreadId];
  }

  /// All recorded operations, sorted by invocation time. Call only
  /// after every recording thread has joined.
  std::vector<CompletedOp> merged() const;

  size_t totalOps() const;

private:
  std::vector<ThreadLog> Logs;
};

/// Runs \p Fn as one operation stamped by historyClock() and records
/// it: the standard pattern for instrumenting an op call site.
template <class Fn>
bool recordOp(HistoryRecorder::ThreadLog &Log, SetOp Op, SetKey Key,
              Fn &&Call) {
  const uint64_t Invoke = historyClock();
  const bool Result = Call();
  const uint64_t Response = historyClock();
  Log.record(Op, Key, Result, Invoke, Response);
  return Result;
}

} // namespace lin
} // namespace vbl

#endif // VBL_LIN_HISTORY_H
