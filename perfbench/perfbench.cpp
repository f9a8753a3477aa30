//===- perfbench/perfbench.cpp - Repository benchmark, measuring side ---===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the repository benchmark (run.py builds it and
/// merges its output). Three modes:
///
///   e2e    One workload, end-to-end metrics. Refuses a binary built
///          with the stats layer compiled in.
///   ladder The untraced rungs of every workload's layer ladder (rung
///          deltas: routing, batching, combining, EBR, VBR, pool), from
///          the stats-off binary.
///   trace  The traced base rung of every workload: sampled spans at
///          each layer boundary plus the src/stats and NodePool
///          counters, from the stats-on binary.
///
/// Every workload is a closed loop of Threads clients, each waiting on
/// its own results, and a coordinator that sleeps through the windows.
/// Every input (prefill, keys, ops, sessions, sampling phase, probes)
/// derives from --seed. Every run checks its outputs: structural
/// invariants, size balance, scan well-formedness, session completion,
/// and quiescent probe scans against the final snapshot; a fault
/// injecting wrapper must be caught by the same checks first.
///
/// The last stdout line is one JSON object; the lines before it are
/// for people.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/VblChunkList.h"
#include "reclaim/NodePool.h"
#include "stats/Stats.h"

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <thread>

using namespace perfbench;
using vbl::ConcurrentSet;
using vbl::reclaim::NodePool;
using vbl::service::ShardedSet;
namespace stats = vbl::stats;

#ifndef VBL_PERFBENCH_COMPILER
#define VBL_PERFBENCH_COMPILER "unknown"
#endif

namespace {

constexpr unsigned Threads = 4;
constexpr unsigned Shards = 8;
constexpr unsigned SessionBatch = 16;
/// Point-op latency is timed on a seed-phased 1-in-64 sample so the two
/// clock reads cost ~1% of a 200 ns op; every scan is timed.
constexpr uint64_t SampleMask = 63;
/// Spans are sparser still, and capped per thread per rung.
constexpr uint64_t SpanMask = 255;
constexpr size_t SpanCap = 4096;

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

/// How the clients reach the backend.
enum class Access {
  Direct,       ///< registry backend called directly
  Routed,       ///< Shards backend instances, routed by mixKey here
  ShardedPerOp, ///< ShardedSet's own per-op ConcurrentSet methods
  Batch,        ///< Session, batch 16, combining off
  Adaptive,     ///< Session, batch 16, adaptive combining
};

struct Workload {
  const char *Name;
  const char *Backend;
  Access Via;
  SetKey Range;
  unsigned UpdatePercent; ///< of point ops
  unsigned ScanPer10k;    ///< rangeQuery scans per 10000 ops
  SetKey ScanLen;
  bool Zipf;              ///< TrafficGen (theta 0.99, 4096 sessions)
};

// Why each exists is in README.md. In short: list-contended is the
// paper's Fig. 1 point (backend lock/validation conflicts, a guard per
// short op); serve-zipf is the serving tier (queues, sorted batches,
// combining, retire churn); hash-large is a working set far beyond the
// LLC (maps routing, misses, VBR reuse, pool memory, setup); chunk-scan
// is the only one that runs VblChunkList and scans beside writes.
// list-contended and serve-zipf carry a 3-in-10000 scan trickle so their
// scan latency is measured beside writers; a hash-set scan walks the
// whole list, so hash-large has none and is probed after its window.
const Workload Workloads[] = {
    {"list-contended", "vbl", Access::Direct, 50, 20, 3, 1024, false},
    {"serve-zipf", "vbl", Access::Adaptive, 16384, 50, 3, 1024, true},
    {"hash-large", "so-hash-vbl-vbr", Access::Direct, SetKey{1} << 20, 20, 0,
     1024, false},
    {"chunk-scan", "vbl-chunk", Access::Direct, 8192, 20, 1000, 1024, false},
};

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

bool usesSessions(Access A) {
  return A == Access::Batch || A == Access::Adaptive;
}

/// Builds the structure a rung runs on (empty). Null on a bad backend.
std::unique_ptr<ConcurrentSet> makeStructure(const std::string &Backend,
                                             Access Via) {
  switch (Via) {
  case Access::Direct:
    return vbl::makeSet(Backend);
  case Access::Routed: {
    auto R = std::make_unique<RoutedSets>(Backend, Shards);
    if (!R->valid())
      return nullptr;
    return R;
  }
  case Access::ShardedPerOp:
  case Access::Batch:
  case Access::Adaptive: {
    ShardedSet::Options Opts;
    Opts.Backend = Backend;
    Opts.Shards = Shards;
    Opts.BatchSize = Via == Access::ShardedPerOp ? 1 : SessionBatch;
    Opts.Combine = Via == Access::Adaptive
                       ? vbl::service::CombineMode::Adaptive
                       : vbl::service::CombineMode::Off;
    return ShardedSet::create(Opts);
  }
  }
  return nullptr;
}

/// Prefill keys: exactly Range/2 distinct keys of [0, Range), chosen
/// and ordered by a seeded shuffle. A fixed count keeps the set's size
/// (and so every traversal length) the same for every seed.
std::vector<SetKey> prefillKeys(const Workload &W, uint64_t Seed) {
  vbl::Xoshiro256 Rng(deriveSeed(Seed, 0x5e7u));
  std::vector<SetKey> Keys(static_cast<size_t>(W.Range));
  std::iota(Keys.begin(), Keys.end(), SetKey{0});
  const size_t Take = Keys.size() / 2;
  for (size_t I = 0; I != Take; ++I)
    std::swap(Keys[I], Keys[I + Rng.nextBounded(Keys.size() - I)]);
  Keys.resize(Take);
  return Keys;
}

//===----------------------------------------------------------------------===//
// Outcome bookkeeping.
//===----------------------------------------------------------------------===//

/// Ops attempted and failed across everything a mode runs. An op fails
/// when it never completes or when it falls in a check that failed; a
/// structural-invariant failure fails the whole run.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
  std::vector<std::string> Notes;

  void fail(uint64_t Ops, const std::string &Why) {
    Failed += Ops;
    Notes.push_back(Why);
  }
  void fatal(const std::string &Why) {
    Correct = false;
    Notes.push_back("FATAL: " + Why);
  }
};

//===----------------------------------------------------------------------===//
// The closed loop.
//===----------------------------------------------------------------------===//

struct alignas(vbl::CacheLineBytes) Progress {
  std::atomic<uint64_t> Ops{0};
  std::atomic<uint64_t> Updates{0};
};

/// One client's private results; read by the coordinator after join.
struct Client {
  explicit Client(unsigned Windows) : PointLat(Windows), ScanLat(Windows) {}
  WindowedLatency PointLat;
  WindowedLatency ScanLat;
  SpanBuffer Spans{SpanCap};
  uint64_t Ops = 0;
  uint64_t Inserted = 0;
  uint64_t Removed = 0;
  uint64_t Scans = 0;
  uint64_t BadScans = 0;
  uint64_t ScanKeys = 0; ///< measured windows only
  uint64_t ScanNs = 0;   ///< measured windows only
  uint64_t Enqueued = 0;
  uint64_t Completed = 0;
};

/// The coordinator's phase word: warmup, stop, or FirstWindow + the
/// index of the window being measured.
enum Phase : int { Warmup = 0, Stop = 1, FirstWindow = 2 };

const char *opSpanName(SetOp Kind) {
  switch (Kind) {
  case SetOp::Insert:
    return "backend.insert";
  case SetOp::Remove:
    return "backend.remove";
  case SetOp::Contains:
    return "backend.contains";
  case SetOp::RangeQuery:
    return "backend.range_query";
  }
  return "backend.op";
}

/// True when \p Keys is strictly ascending and inside [Lo, Hi].
bool wellFormedScan(const std::vector<SetKey> &Keys, SetKey Lo, SetKey Hi) {
  for (size_t I = 0; I != Keys.size(); ++I) {
    if (Keys[I] < Lo || Keys[I] > Hi)
      return false;
    if (I && Keys[I - 1] >= Keys[I])
      return false;
  }
  return true;
}

template <bool Traced, class TrafficT>
void directClient(ConcurrentSet &Set, TrafficT &Traffic, Client &C,
                  Progress &P, const std::atomic<int> &Ph,
                  uint64_t SamplePhase) {
  std::vector<SetKey> ScanOut;
  ScanOut.reserve(2048);
  uint64_t N = 0;
  uint64_t Updates = 0;
  for (;;) {
    const int Now = Ph.load(std::memory_order_relaxed);
    if (Now == Stop)
      break;
    const bool Measuring = Now >= FirstWindow;
    const unsigned Win =
        Measuring ? static_cast<unsigned>(Now - FirstWindow) : 0;
    const bool Sample = (N & SampleMask) == (SamplePhase & SampleMask);
    const bool Spanned = Traced && Measuring &&
                         (N & SpanMask) == (SamplePhase & SpanMask) &&
                         !C.Spans.full();
    const uint64_t TRoot = Spanned ? nowNs() : 0;
    const Op O = Traffic.next();
    const bool Timed = Sample || Spanned || O.Kind == SetOp::RangeQuery;
    const uint64_t T1 = Timed ? nowNs() : 0;
    bool Result = false;
    switch (O.Kind) {
    case SetOp::Insert:
      Result = Set.insert(O.Key);
      break;
    case SetOp::Remove:
      Result = Set.remove(O.Key);
      break;
    case SetOp::Contains:
      Result = Set.contains(O.Key);
      break;
    case SetOp::RangeQuery:
      ScanOut.clear();
      Set.rangeQuery(O.Key, O.Hi, ScanOut);
      break;
    }
    const uint64_t T2 = Timed ? nowNs() : 0;
    if (O.Kind == SetOp::RangeQuery) {
      ++C.Scans;
      if (!wellFormedScan(ScanOut, O.Key, O.Hi))
        ++C.BadScans;
      if (Measuring) {
        C.ScanLat.add(Win, T2 - T1);
        C.ScanNs += T2 - T1;
        C.ScanKeys += ScanOut.size();
      }
    } else {
      if (Result && O.Kind == SetOp::Insert)
        ++C.Inserted;
      else if (Result && O.Kind == SetOp::Remove)
        ++C.Removed;
      if (O.Kind != SetOp::Contains)
        ++Updates;
      if (Sample && Measuring)
        C.PointLat.add(Win, T2 - T1);
    }
    if constexpr (Traced) {
      if (Spanned) {
        const uint32_t Root = C.Spans.open("client.op", TRoot);
        C.Spans.child(Root, opSpanName(O.Kind), T1, T2);
        C.Spans.close(Root, nowNs());
      }
    }
    ++N;
    P.Ops.store(N, std::memory_order_relaxed);
    P.Updates.store(Updates, std::memory_order_relaxed);
  }
  C.Ops = N;
}

template <class OpsT> void tallyCompleted(const OpsT &Done, Client &C) {
  for (const vbl::BatchOp &B : Done) {
    if (B.Result && B.Op == SetOp::Insert)
      ++C.Inserted;
    else if (B.Result && B.Op == SetOp::Remove)
      ++C.Removed;
  }
  C.Completed += Done.size();
}

/// Takes a session's completed scans: counts, checks and (in a
/// window) times them from enqueue to this drain.
void drainScans(ShardedSet::Session &S, Client &C, bool Measuring,
                unsigned Win) {
  const std::vector<ShardedSet::Session::CompletedScan> Done =
      S.takeCompletedScans();
  if (Done.empty())
    return;
  const uint64_t TDone = nowNs();
  for (const ShardedSet::Session::CompletedScan &Scan : Done) {
    ++C.Scans;
    ++C.Completed;
    if (!wellFormedScan(Scan.Keys, Scan.Lo, Scan.Hi))
      ++C.BadScans;
    if (Measuring) {
      C.ScanLat.add(Win, TDone - Scan.Tag);
      C.ScanNs += TDone - Scan.Tag;
      C.ScanKeys += Scan.Keys.size();
    }
  }
}

/// Session client: an op's latency runs from enqueue to the drain that
/// hands back its result, so queue dwell is part of it.
template <bool Traced, class TrafficT>
void sessionClient(ShardedSet &Front, TrafficT &Traffic, Client &C,
                   Progress &P, const std::atomic<int> &Ph,
                   uint64_t SamplePhase) {
  ShardedSet::Session S = Front.openSession();
  uint64_t N = 0;
  uint64_t Updates = 0;
  for (;;) {
    const int Now = Ph.load(std::memory_order_relaxed);
    if (Now == Stop)
      break;
    const bool Measuring = Now >= FirstWindow;
    const unsigned Win =
        Measuring ? static_cast<unsigned>(Now - FirstWindow) : 0;
    const bool Sample = (N & SampleMask) == (SamplePhase & SampleMask);
    const bool Spanned = Traced && Measuring &&
                         (N & SpanMask) == (SamplePhase & SpanMask) &&
                         !C.Spans.full();
    const uint64_t TRoot = Spanned ? nowNs() : 0;
    const Op O = Traffic.next();
    // Tag 0 means "not sampled"; the steady clock never reads 0.
    const uint64_t Tag = (Sample && Measuring) || Spanned ? nowNs() : 0;
    const size_t PendingBefore = S.pendingOps();
    if (O.Kind == SetOp::RangeQuery)
      S.enqueueRange(O.Key, O.Hi, nowNs());
    else
      S.enqueue(O.Kind, O.Key, Tag);
    const uint64_t T2 = Spanned ? nowNs() : 0;
    const std::vector<vbl::BatchOp> Done = S.takeCompleted();
    const uint64_t T3 = Spanned ? nowNs() : 0;
    ++C.Enqueued;
    if (O.Kind != SetOp::Contains && O.Kind != SetOp::RangeQuery)
      ++Updates;
    if (!Done.empty()) {
      tallyCompleted(Done, C);
      if (Measuring) {
        const uint64_t TDone = nowNs();
        for (const vbl::BatchOp &B : Done)
          if (B.Tag)
            C.PointLat.add(Win, TDone - B.Tag);
      }
    }
    drainScans(S, C, Measuring, Win);
    if constexpr (Traced) {
      if (Spanned) {
        const bool Flushed = S.pendingOps() <= PendingBefore;
        const uint32_t Root = C.Spans.open("client.op", TRoot);
        C.Spans.child(Root,
                      Flushed ? "service.enqueue_flush" : "service.enqueue",
                      Tag, T2);
        C.Spans.child(Root, "service.take_completed", T2, T3);
        C.Spans.close(Root, nowNs());
      }
    }
    ++N;
    P.Ops.store(C.Completed, std::memory_order_relaxed);
    P.Updates.store(Updates, std::memory_order_relaxed);
  }
  // Drain: every enqueued op must complete by the final flush. These
  // completions fall after the window, so they count for the checks
  // only.
  S.flush();
  tallyCompleted(S.takeCompleted(), C);
  drainScans(S, C, false, 0);
  C.Ops = N;
  S.close();
}

struct LoopConfig {
  double WarmupS = 0.2;
  unsigned Windows = 1;
  double WindowS = 1.0;
  bool Traced = false;
  uint64_t Seed = 1;
  uint64_t Salt = 0; ///< separates the rungs' op streams
};

struct LoopResult {
  std::vector<double> WindowMops;
  WindowedLatency PointLat;
  WindowedLatency ScanLat;
  uint64_t Ops = 0;             ///< whole run, warmup included
  uint64_t MeasuredOps = 0;
  uint64_t MeasuredUpdates = 0;
  double MeasuredSeconds = 0;
  uint64_t MeasuredScans = 0;
  uint64_t ScanKeys = 0;
  uint64_t ScanNs = 0;
  stats::Snapshot Delta;        ///< measured windows only
  uint64_t GlobalRefills = 0;   ///< NodePool, measured windows only
  std::vector<std::unique_ptr<Client>> Clients;

  double medianMops() const {
    std::vector<double> V = WindowMops;
    std::sort(V.begin(), V.end());
    if (V.empty())
      return 0;
    const size_t M = V.size() / 2;
    return V.size() % 2 ? V[M] : 0.5 * (V[M - 1] + V[M]);
  }
  /// Client-thread nanoseconds per op (closed loop: Threads / rate).
  double nsPerOp() const {
    const double Mops = medianMops();
    return Mops > 0 ? Threads * 1e3 / Mops : 0.0;
  }
};

template <bool Traced>
void launchClients(const Workload &W, ConcurrentSet &Set, Access Via,
                   const LoopConfig &Cfg, std::vector<Progress> &Prog,
                   LoopResult &R, const std::atomic<int> &Ph,
                   std::vector<std::thread> &Pool) {
  ShardedSet *Front =
      usesSessions(Via) ? static_cast<ShardedSet *>(&Set) : nullptr;
  for (unsigned T = 0; T != Threads; ++T) {
    Pool.emplace_back([&, T, Front] {
      Client &C = *R.Clients[T];
      const uint64_t Stream = deriveSeed(Cfg.Seed, Cfg.Salt * 64 + T + 1);
      const uint64_t Phase = deriveSeed(Cfg.Seed, 0xfa5eu + T);
      const ScanMix Scans{W.ScanPer10k, W.Range, W.ScanLen};
      if (W.Zipf) {
        vbl::service::TrafficConfig TC;
        TC.KeyRange = W.Range;
        TC.Theta = 0.99;
        TC.Sessions = 4096;
        TC.UpdatePercent = W.UpdatePercent;
        TC.Seed = deriveSeed(Cfg.Seed, Cfg.Salt * 64);
        ZipfTraffic Traffic(TC, T, Threads, Stream, Scans);
        if (Front)
          sessionClient<Traced>(*Front, Traffic, C, Prog[T], Ph, Phase);
        else
          directClient<Traced>(Set, Traffic, C, Prog[T], Ph, Phase);
      } else {
        UniformTraffic Traffic(Stream, W.Range, W.UpdatePercent, Scans);
        if (Front)
          sessionClient<Traced>(*Front, Traffic, C, Prog[T], Ph, Phase);
        else
          directClient<Traced>(Set, Traffic, C, Prog[T], Ph, Phase);
      }
    });
  }
}

/// Runs Threads clients against \p Set: warmup, then Cfg.Windows
/// measured windows; the coordinator sleeps through each one.
LoopResult runLoop(const Workload &W, ConcurrentSet &Set, Access Via,
                   const LoopConfig &Cfg) {
  LoopResult R;
  for (unsigned T = 0; T != Threads; ++T)
    R.Clients.push_back(std::make_unique<Client>(Cfg.Windows));
  std::vector<Progress> Prog(Threads);
  std::atomic<int> Ph{Warmup};
  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  if (Cfg.Traced)
    launchClients<true>(W, Set, Via, Cfg, Prog, R, Ph, Pool);
  else
    launchClients<false>(W, Set, Via, Cfg, Prog, R, Ph, Pool);

  const auto sumOps = [&] {
    uint64_t S = 0;
    for (const Progress &P : Prog)
      S += P.Ops.load(std::memory_order_relaxed);
    return S;
  };
  const auto sumUpdates = [&] {
    uint64_t S = 0;
    for (const Progress &P : Prog)
      S += P.Updates.load(std::memory_order_relaxed);
    return S;
  };
  using Clock = std::chrono::steady_clock;
  const auto toDur = [](double S) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(S));
  };
  Clock::time_point Deadline = Clock::now() + toDur(Cfg.WarmupS);
  std::this_thread::sleep_until(Deadline);

  const stats::Snapshot S0 = stats::snapshotAll();
  const uint64_t Refills0 = NodePool::stats().GlobalRefills;
  uint64_t T0 = nowNs();
  uint64_t Ops0 = sumOps();
  const uint64_t Upd0 = sumUpdates();
  const uint64_t Start = T0, StartOps = Ops0;
  for (unsigned I = 0; I != Cfg.Windows; ++I) {
    Ph.store(FirstWindow + static_cast<int>(I), std::memory_order_relaxed);
    Deadline += toDur(Cfg.WindowS);
    std::this_thread::sleep_until(Deadline);
    const uint64_t T1 = nowNs();
    const uint64_t Ops1 = sumOps();
    R.WindowMops.push_back(static_cast<double>(Ops1 - Ops0) * 1e3 /
                           static_cast<double>(T1 - T0));
    T0 = T1;
    Ops0 = Ops1;
  }
  const uint64_t Upd1 = sumUpdates();
  R.Delta = stats::snapshotAll().delta(S0);
  R.GlobalRefills = NodePool::stats().GlobalRefills - Refills0;
  Ph.store(Stop, std::memory_order_relaxed);
  for (std::thread &T : Pool)
    T.join();

  R.MeasuredOps = Ops0 - StartOps;
  R.MeasuredUpdates = Upd1 - Upd0;
  R.MeasuredSeconds = static_cast<double>(T0 - Start) * 1e-9;
  for (const auto &C : R.Clients) {
    R.PointLat.merge(C->PointLat);
    R.ScanLat.merge(C->ScanLat);
    R.Ops += C->Ops;
    R.MeasuredScans += C->ScanLat.count();
    R.ScanKeys += C->ScanKeys;
    R.ScanNs += C->ScanNs;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Checks.
//===----------------------------------------------------------------------===//

/// Post-run checks on a quiescent structure; returns its snapshot for
/// the probe scans.
std::vector<SetKey> checkRun(const std::string &What, ConcurrentSet &Set,
                             uint64_t Prefilled, const LoopResult &R,
                             Tally &T) {
  T.Attempted += R.Ops;
  if (!Set.checkInvariants()) {
    T.fatal(What + ": checkInvariants() failed");
    T.Failed = T.Attempted;
  }
  int64_t Expected = static_cast<int64_t>(Prefilled);
  uint64_t Enqueued = 0, Completed = 0, BadScans = 0;
  for (const auto &C : R.Clients) {
    Expected += static_cast<int64_t>(C->Inserted) -
                static_cast<int64_t>(C->Removed);
    Enqueued += C->Enqueued;
    Completed += C->Completed;
    BadScans += C->BadScans;
  }
  std::vector<SetKey> Snap = Set.snapshot();
  if (static_cast<int64_t>(Snap.size()) != Expected)
    T.fail(R.Ops, What + ": size balance broken: expected " +
                      std::to_string(Expected) + " keys, found " +
                      std::to_string(Snap.size()));
  if (Completed < Enqueued)
    T.fail(Enqueued - Completed,
           What + ": " + std::to_string(Enqueued - Completed) +
               " enqueued ops never completed");
  if (BadScans)
    T.fail(BadScans, What + ": " + std::to_string(BadScans) +
                         " scans out of order, duplicated or out of range");
  return Snap;
}

/// Probe scans over seed-chosen ScanLen windows, each checked against
/// \p Snap, the set's contents: no writer runs, so every result must
/// equal the snapshot's slice. \p Probers threads (Threads for the
/// timed probes, so the host runs them in the same all-cores state as
/// the window) probe until \p BudgetS has passed, at least MinProbes
/// each; latencies go to \p Into.
void probeScans(const std::string &What, const Workload &W,
                ConcurrentSet &Set, const std::vector<SetKey> &Snap,
                uint64_t Seed, double BudgetS, unsigned MinProbes,
                unsigned Probers, WindowedLatency *Into, Tally &T) {
  const SetKey Span = std::min(W.ScanLen, W.Range);
  const uint64_t LoRange = static_cast<uint64_t>(W.Range - Span + 1);
  constexpr unsigned ProbeWindows = 25;
  const uint64_t Begin = nowNs();
  const uint64_t BudgetNs = static_cast<uint64_t>(BudgetS * 1e9);
  const uint64_t Deadline = Begin + BudgetNs;
  struct Prober {
    WindowedLatency Lat{ProbeWindows};
    uint64_t Probes = 0;
    uint64_t Bad = 0;
  };
  std::vector<Prober> Out(Probers);
  std::vector<std::thread> Pool;
  for (unsigned P = 0; P != Probers; ++P)
    Pool.emplace_back([&, P] {
      vbl::Xoshiro256 Rng(deriveSeed(Seed, 0x9b0bu + P));
      std::vector<SetKey> Keys;
      Prober &Me = Out[P];
      while (Me.Probes < MinProbes || nowNs() < Deadline) {
        const SetKey Lo = static_cast<SetKey>(Rng.nextBounded(LoRange));
        const SetKey Hi = Lo + W.ScanLen - 1;
        Keys.clear();
        const uint64_t T1 = nowNs();
        Set.rangeQuery(Lo, Hi, Keys);
        const uint64_t T2 = nowNs();
        const uint64_t Elapsed = T2 - Begin;
        Me.Lat.add(Elapsed >= BudgetNs
                       ? ProbeWindows - 1
                       : static_cast<unsigned>(Elapsed * ProbeWindows /
                                               BudgetNs),
                   T2 - T1);
        ++Me.Probes;
        const auto B = std::lower_bound(Snap.begin(), Snap.end(), Lo);
        const auto E = std::upper_bound(Snap.begin(), Snap.end(), Hi);
        Me.Bad += !std::equal(Keys.begin(), Keys.end(), B, E);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (const Prober &P : Out) {
    T.Attempted += P.Probes;
    if (P.Bad)
      T.fail(P.Bad, What + ": " + std::to_string(P.Bad) +
                        " probe scans disagree with the snapshot");
    if (Into)
      Into->merge(P.Lat);
  }
}

//===----------------------------------------------------------------------===//
// Setup.
//===----------------------------------------------------------------------===//

struct Built {
  std::unique_ptr<ConcurrentSet> Set;
  uint64_t Prefilled = 0;
  double SetupS = 0;
};

Built build(const std::string &Backend, Access Via,
            const std::vector<SetKey> &Keys) {
  Built B;
  const uint64_t T0 = nowNs();
  B.Set = makeStructure(Backend, Via);
  if (!B.Set) {
    std::fprintf(stderr, "error: cannot build backend '%s'\n",
                 Backend.c_str());
    std::exit(2);
  }
  for (SetKey K : Keys)
    B.Prefilled += B.Set->insert(K);
  B.SetupS = static_cast<double>(nowNs() - T0) * 1e-9;
  return B;
}

/// The checker's self-test: list-contended traffic through FaultySet
/// over vbl. The run's checks must flag it.
bool checkerSelfTest(uint64_t Seed) {
  const Workload &W = Workloads[0];
  const std::vector<SetKey> Keys = prefillKeys(W, Seed);
  auto Faulty = std::make_unique<FaultySet>(vbl::makeSet(W.Backend));
  uint64_t Prefilled = 0;
  for (SetKey K : Keys)
    Prefilled += Faulty->insert(K);
  LoopConfig Cfg;
  Cfg.WarmupS = 0.0;
  Cfg.WindowS = 0.05;
  Cfg.Seed = Seed;
  Cfg.Salt = 99;
  const LoopResult R = runLoop(W, *Faulty, Access::Direct, Cfg);
  Tally T;
  checkRun("self-test", *Faulty, Prefilled, R, T);
  const bool Flagged = T.Failed > 0 && T.Correct;
  std::printf("checker self-test: FaultySet over %s, %llu ops, "
              "ops_failed_frac %.4f -> %s\n",
              W.Backend, static_cast<unsigned long long>(T.Attempted),
              T.Attempted ? static_cast<double>(T.Failed) /
                                static_cast<double>(T.Attempted)
                          : 0.0,
              Flagged ? "flagged (ok)" : "NOT FLAGGED");
  return Flagged;
}

//===----------------------------------------------------------------------===//
// Output.
//===----------------------------------------------------------------------===//

/// Metrics in the order they are set: name, value, unit.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Rows;
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Rows.push_back({Name, {Value, Unit}});
  }
};

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

std::string pmuProbe() {
  perf_event_attr Attr;
  std::memset(&Attr, 0, sizeof(Attr));
  Attr.size = sizeof(Attr);
  Attr.type = PERF_TYPE_HARDWARE;
  Attr.config = PERF_COUNT_HW_CPU_CYCLES;
  Attr.disabled = 1;
  Attr.exclude_kernel = 1;
  Attr.exclude_hv = 1;
  const long Fd = syscall(SYS_perf_event_open, &Attr, 0, -1, -1, 0);
  if (Fd >= 0) {
    close(static_cast<int>(Fd));
    return "present";
  }
  if (errno == ENOENT || errno == EOPNOTSUPP || errno == ENODEV)
    return "absent";
  return std::string("unavailable (") + std::strerror(errno) + ")";
}

void printResult(const Tally &T, const Metrics &M) {
  for (const std::string &N : T.Notes)
    std::printf("check: %s\n", N.c_str());
  std::string J = "{\"correct\": ";
  J += T.Correct && T.Failed == 0 ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(T.Attempted);
  J += ", \"failed\": " + std::to_string(T.Failed);
  J += ", \"metrics\": {";
  bool First = true;
  for (const auto &R : M.Rows) {
    J += First ? "" : ", ";
    First = false;
    J += "\"" + R.first + "\": {\"value\": " + num(R.second.first) +
         ", \"unit\": \"" + R.second.second + "\"}";
  }
  J += "}, \"context\": {";
  J += "\"stats_compiled\": ";
  J += stats::Enabled ? "true" : "false";
  J += ", \"compiler\": \"" + jsonEscape(VBL_PERFBENCH_COMPILER) + "\"";
  J += ", \"pmu\": \"" + jsonEscape(pmuProbe()) + "\"";
  J += ", \"threads\": " + std::to_string(Threads);
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

/// Peak resident set of this process image, less its file-backed and
/// shared pages (the binary and shared libraries, whose resident share
/// depends on the page cache rather than on the program). VmHWM, not
/// ru_maxrss: the latter survives execve, so it would report the
/// launcher's peak when that was larger.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  double HwmKb = 0, FileKb = 0, ShmemKb = 0;
  while (std::getline(Status, Line)) {
    if (Line.rfind("VmHWM:", 0) == 0)
      HwmKb = std::strtod(Line.c_str() + 6, nullptr);
    else if (Line.rfind("RssFile:", 0) == 0)
      FileKb = std::strtod(Line.c_str() + 8, nullptr);
    else if (Line.rfind("RssShmem:", 0) == 0)
      ShmemKb = std::strtod(Line.c_str() + 9, nullptr);
  }
  if (HwmKb == 0) {
    rusage U;
    getrusage(RUSAGE_SELF, &U);
    HwmKb = static_cast<double>(U.ru_maxrss);
  }
  return (HwmKb - FileKb - ShmemKb) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Modes.
//===----------------------------------------------------------------------===//

int runE2e(const Workload &W, uint64_t Seed, double Seconds) {
  if (stats::Enabled) {
    std::fprintf(stderr, "error: e2e mode needs a VBL_STATS=OFF build\n");
    return 2;
  }
  Tally T;

  // The measured structure is the first build. The window runs first,
  // then the quiescent measurements, so they too run on a host that
  // all four clients have kept busy. The checker self-test runs last,
  // after peak RSS is read.
  const std::vector<SetKey> Keys = prefillKeys(W, Seed);
  LatencyHist SetupNs;
  Built B = build(W.Backend, W.Via, Keys);
  SetupNs.add(static_cast<uint64_t>(B.SetupS * 1e9));

  LoopConfig Cfg;
  Cfg.WarmupS = 0.1 * Seconds;
  Cfg.Windows = 9;
  Cfg.WindowS = 0.1 * Seconds;
  Cfg.Seed = Seed;
  const LoopResult R = runLoop(W, *B.Set, W.Via, Cfg);
  // Peak RSS of set-up and window, before the checks and probes add
  // their own snapshot buffers (a hash-set scan collects every key).
  const double PeakRss = peakRssMb();
  const double SlabMb =
      static_cast<double>(NodePool::liveSlabBytes()) / (1 << 20);
  const std::vector<SetKey> Snap =
      checkRun(W.Name, *B.Set, B.Prefilled, R, T);

  // Scan latency: the in-window scans where the mix has them;
  // otherwise (hash-large) probe scans by all clients of the final
  // structure with no writer running. Every workload probes as a check.
  WindowedLatency ProbeLat;
  const bool Timed = W.ScanPer10k == 0;
  probeScans(W.Name, W, *B.Set, Snap, Seed, Timed ? 0.2 * Seconds : 0.0,
             Timed ? 2 : 3, Timed ? Threads : 1, Timed ? &ProbeLat : nullptr,
             T);
  const WindowedLatency &Scan = Timed ? ProbeLat : R.ScanLat;
  B.Set.reset();

  // More set-ups for the median: a fixed count (about half a million
  // inserted keys in all, 3 to 1000 builds) that does not depend on
  // speed, because each build leaves per-thread reclaim bookkeeping
  // behind that later builds pay for.
  const size_t Reps =
      std::clamp<size_t>((size_t{1} << 19) / Keys.size(), 3, 1000);
  while (SetupNs.count() < Reps)
    SetupNs.add(static_cast<uint64_t>(build(W.Backend, W.Via, Keys).SetupS *
                                      1e9));
  if (!checkerSelfTest(Seed))
    T.fatal("the fault-injecting wrapper was not flagged");

  Metrics M;
  M.set("throughput_mops", R.medianMops(), "Mops/s");
  M.set("latency_p50_ns", R.PointLat.percentile(50), "ns");
  M.set("latency_p99_ns", R.PointLat.percentile(99), "ns");
  M.set("scan_latency_p50_us", Scan.percentile(50) / 1e3, "us");
  M.set("scan_latency_p99_us", Scan.percentile(99) / 1e3, "us");
  M.set("setup_s", SetupNs.percentile(50) * 1e-9, "s");
  M.set("peak_rss_mb", PeakRss, "MB");

  std::printf("workload %s: backend %s, %u clients, seed %llu\n", W.Name,
              W.Backend, Threads, static_cast<unsigned long long>(Seed));
  std::printf("  windows (Mops/s):");
  for (double V : R.WindowMops)
    std::printf(" %.3f", V);
  std::printf("\n  set-up: %llu builds of %zu keys, median %.6f s\n",
              static_cast<unsigned long long>(SetupNs.count()), Keys.size(),
              SetupNs.percentile(50) * 1e-9);
  std::printf("  latency samples: %llu point ops, %llu scans (%s)\n",
              static_cast<unsigned long long>(R.PointLat.count()),
              static_cast<unsigned long long>(Scan.count()),
              Timed ? "probes, no writers" : "in-window");
  std::printf("  peak RSS %.2f MB, of which NodePool slabs %.2f MB\n", PeakRss,
              SlabMb);
  std::printf("  ops_failed_frac: %.6f\n",
              T.Attempted ? static_cast<double>(T.Failed) /
                                static_cast<double>(T.Attempted)
                          : 0.0);
  printResult(T, M);
  return 0;
}

/// One untraced rung: build, run, check; returns the loop result.
LoopResult rung(const std::string &Label, const Workload &W,
                const std::string &Backend, Access Via, uint64_t Seed,
                uint64_t Salt, double Seconds, Tally &T) {
  const std::vector<SetKey> Keys = prefillKeys(W, Seed);
  Built B = build(Backend, Via, Keys);
  LoopConfig Cfg;
  Cfg.WarmupS = 0.25 * Seconds;
  Cfg.Windows = 3;
  Cfg.WindowS = 0.25 * Seconds;
  Cfg.Seed = Seed;
  Cfg.Salt = Salt;
  LoopResult R = runLoop(W, *B.Set, Via, Cfg);
  const std::vector<SetKey> Snap =
      checkRun(Label, *B.Set, B.Prefilled, R, T);
  probeScans(Label, W, *B.Set, Snap, Seed, 0.0, 3, 1, nullptr, T);
  std::printf("  rung %-34s %9.3f Mops/s  %8.1f ns/op\n", Label.c_str(),
              R.medianMops(), R.nsPerOp());
  return R;
}

int runLadder(const Workload &Main, uint64_t Seed, double Seconds) {
  Tally T;
  if (!checkerSelfTest(Seed))
    T.fatal("the fault-injecting wrapper was not flagged");
  const Workload &List = *findWorkload("list-contended");
  const Workload &Serve = *findWorkload("serve-zipf");
  const Workload &Hash = *findWorkload("hash-large");
  const Workload &Chunk = *findWorkload("chunk-scan");
  Workload NoScan = Chunk;
  NoScan.ScanPer10k = 0;
  const double Slice = Seconds / 13.0;
  // Rungs of one workload share a salt, so they replay the same traffic.
  const auto NsPerOp = [&](const std::string &Label, const Workload &W,
                           const char *Backend, Access Via, uint64_t Salt) {
    return rung(Label, W, Backend, Via, Seed, Salt, Slice, T).nsPerOp();
  };
  std::printf("ladder (untraced, stats compiled %s), %.2f s per rung:\n",
              stats::Enabled ? "in" : "out", Slice);
  Metrics M;

  // Paper comparison and EBR cost on the Fig. 1 point.
  const double Vbl =
      NsPerOp("list-contended/vbl", List, "vbl", Access::Direct, 1);
  const double Leaky =
      NsPerOp("list-contended/vbl-leaky", List, "vbl-leaky", Access::Direct, 1);
  const double Lazy =
      NsPerOp("list-contended/lazy", List, "lazy", Access::Direct, 1);
  const double Hm = NsPerOp("list-contended/harris-michael", List,
                            "harris-michael", Access::Direct, 1);
  M.set("paper.vbl_over_lazy", Lazy / Vbl, "x");
  M.set("paper.vbl_over_hm", Hm / Vbl, "x");
  M.set("reclaim.ebr_ns_per_op", Vbl - Leaky, "ns");

  // Service ladder: the same Zipf traffic four ways, then the pool.
  const double Routed =
      NsPerOp("serve-zipf/routed-direct", Serve, "vbl", Access::Routed, 2);
  const double PerOp = NsPerOp("serve-zipf/sharded-per-op", Serve, "vbl",
                               Access::ShardedPerOp, 2);
  const double Batch =
      NsPerOp("serve-zipf/batch16", Serve, "vbl", Access::Batch, 2);
  const double Adaptive = NsPerOp("serve-zipf/batch16+adaptive", Serve, "vbl",
                                  Access::Adaptive, 2);
  double Bypass = 0;
  {
    // The whole structure lives and dies inside the bypass scope, as
    // ScopedBypass requires.
    NodePool::ScopedBypass Scope;
    Bypass = NsPerOp("serve-zipf/batch16+adaptive+pool-bypass", Serve, "vbl",
                     Access::Adaptive, 2);
  }
  M.set("service.route_ns_per_op", PerOp - Routed, "ns");
  M.set("service.batch_ns_per_op", Batch - PerOp, "ns");
  M.set("service.combine_ns_per_op", Adaptive - Batch, "ns");
  M.set("pool.ns_per_op", Adaptive - Bypass, "ns");

  // VBR against EBR under the hash.
  const double Vbr = NsPerOp("hash-large/so-hash-vbl-vbr", Hash,
                             "so-hash-vbl-vbr", Access::Direct, 3);
  const double Ebr =
      NsPerOp("hash-large/so-hash-vbl", Hash, "so-hash-vbl", Access::Direct, 3);
  M.set("reclaim.vbr_vs_ebr_ns_per_op", Vbr - Ebr, "ns");

  // The chunk list with its scans, and without them (point-op baseline).
  const double ChunkNs =
      NsPerOp("chunk-scan/vbl-chunk", Chunk, "vbl-chunk", Access::Direct, 4);
  const double PointNs = NsPerOp("chunk-scan/vbl-chunk 0%-scan", NoScan,
                                 "vbl-chunk", Access::Direct, 4);
  std::printf("  chunk-scan point-op baseline (0%% scans): %.1f ns/op\n",
              PointNs);

  // The named workload's own rung, untraced, for trace.overhead_frac.
  const std::string Name = Main.Name;
  const double MainNs = Name == "list-contended" ? Vbl
                        : Name == "serve-zipf"   ? Adaptive
                        : Name == "hash-large"   ? Vbr
                                                 : ChunkNs;
  M.set("untraced_mops", Threads * 1e3 / MainNs, "Mops/s");
  printResult(T, M);
  return 0;
}

/// Mean of a log2 histogram, each bucket at its midpoint (bucket B
/// holds [2^(B-1), 2^B - 1]; bucket 0 is exactly 0).
double histMean(const std::array<uint64_t, stats::HistogramBuckets> &H) {
  double Sum = 0, N = 0;
  for (size_t B = 1; B != H.size(); ++B) {
    const double Lo = std::ldexp(1.0, static_cast<int>(B) - 1);
    Sum += static_cast<double>(H[B]) * (Lo + (2 * Lo - 1)) / 2;
    N += static_cast<double>(H[B]);
  }
  N += static_cast<double>(H[0]);
  return N > 0 ? Sum / N : 0.0;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

/// Per-span-name durations and self times over every client's buffer;
/// self time is the span's duration minus the part its children cover.
struct SpanStats {
  std::map<std::string, LatencyHist> Dur, Self;
};

SpanStats summarize(const std::vector<std::unique_ptr<Client>> &Clients) {
  SpanStats S;
  for (const auto &C : Clients) {
    const std::vector<Span> &Sp = C->Spans.spans();
    std::vector<uint64_t> ChildNs(Sp.size(), 0);
    for (const Span &X : Sp)
      if (X.Parent != Span::NoParent)
        ChildNs[X.Parent] += X.End - X.Start;
    for (size_t I = 0; I != Sp.size(); ++I) {
      const uint64_t D = Sp[I].End - Sp[I].Start;
      S.Dur[Sp[I].Name].add(D);
      S.Self[Sp[I].Name].add(D > ChildNs[I] ? D - ChildNs[I] : 0);
    }
  }
  return S;
}

void writeSpans(std::ofstream &Out, const char *Workload,
                const std::vector<std::unique_ptr<Client>> &Clients) {
  for (size_t T = 0; T != Clients.size(); ++T) {
    const std::vector<Span> &Sp = Clients[T]->Spans.spans();
    for (size_t I = 0; I != Sp.size(); ++I)
      Out << "{\"workload\":\"" << Workload << "\",\"thread\":" << T
          << ",\"id\":" << I << ",\"name\":\"" << Sp[I].Name
          << "\",\"start_ns\":" << Sp[I].Start << ",\"end_ns\":" << Sp[I].End
          << ",\"parent\":"
          << (Sp[I].Parent == Span::NoParent
                  ? int64_t{-1}
                  : static_cast<int64_t>(Sp[I].Parent))
          << "}\n";
  }
}

double medianOf(const SpanStats &S, const std::string &Name) {
  const auto It = S.Dur.find(Name);
  return It == S.Dur.end() ? 0.0 : It->second.percentile(50);
}

int runTrace(const Workload &Main, uint64_t Seed, double Seconds,
             const std::string &SpanPath) {
  if (!stats::Enabled) {
    std::fprintf(stderr, "error: trace mode needs a VBL_STATS=ON build\n");
    return 2;
  }
  Tally T;
  if (!checkerSelfTest(Seed))
    T.fatal("the fault-injecting wrapper was not flagged");
  std::ofstream SpanOut;
  if (!SpanPath.empty())
    SpanOut.open(SpanPath);
  Metrics M;
  const double Slice = Seconds / 4.0;
  using stats::Counter;
  std::printf("traced base rungs, %.2f s each:\n", Slice);

  // hash-large first: the pool's slab figures are read on a fresh
  // process.
  for (const char *Name :
       {"hash-large", "list-contended", "serve-zipf", "chunk-scan"}) {
    const Workload &W = *findWorkload(Name);
    const std::vector<SetKey> Keys = prefillKeys(W, Seed);
    const stats::Snapshot Before = stats::snapshotAll();
    const size_t Slab0 = NodePool::liveSlabBytes();
    Built B = build(W.Backend, W.Via, Keys);
    const size_t Slab1 = NodePool::liveSlabBytes();
    LoopConfig Cfg;
    Cfg.WarmupS = 0.2 * Slice;
    Cfg.WindowS = 0.8 * Slice;
    Cfg.Traced = true;
    Cfg.Seed = Seed;
    const LoopResult R = runLoop(W, *B.Set, W.Via, Cfg);
    const stats::Snapshot Life = stats::snapshotAll().delta(Before);
    const std::vector<SetKey> Snap =
        checkRun(W.Name, *B.Set, B.Prefilled, R, T);
    probeScans(W.Name, W, *B.Set, Snap, Seed, 0.0, 3, 1, nullptr, T);

    const stats::Snapshot &D = R.Delta;
    const double Ops = static_cast<double>(R.MeasuredOps);
    const double Kops = Ops / 1e3;
    const double Updates = static_cast<double>(R.MeasuredUpdates);
    const double Mops = static_cast<double>(R.MeasuredOps) * 1e-6 /
                        R.MeasuredSeconds;
    const SpanStats S = summarize(R.Clients);
    std::printf("  %-15s %9.3f Mops/s traced; spans (name: n, p50 dur, "
                "p50 self ns):\n",
                W.Name, Mops);
    for (const auto &[SpanName, Durs] : S.Dur)
      std::printf("    %-24s n=%-6llu dur %9.1f  self %9.1f\n",
                  SpanName.c_str(),
                  static_cast<unsigned long long>(Durs.count()),
                  Durs.percentile(50), S.Self.at(SpanName).percentile(50));
    if (SpanOut)
      writeSpans(SpanOut, W.Name, R.Clients);
    if (&W == &Main)
      M.set("traced_mops", Mops, "Mops/s");

    const std::string N = W.Name;
    if (N == "list-contended") {
      M.set("backend.insert_ns", medianOf(S, "backend.insert"), "ns");
      M.set("backend.remove_ns", medianOf(S, "backend.remove"), "ns");
      M.set("backend.contains_ns", medianOf(S, "backend.contains"), "ns");
      M.set("backend.hops_per_op",
            ratio(static_cast<double>(D.get(Counter::ListTraversalHops)), Ops),
            "hops");
      M.set("backend.traversals_per_op",
            ratio(static_cast<double>(D.get(Counter::ListTraversals)), Ops),
            "traversals");
      M.set("backend.restarts_per_update",
            ratio(static_cast<double>(D.get(Counter::ListRestarts)), Updates),
            "count");
      M.set("backend.trylock_fail_per_update",
            ratio(static_cast<double>(D.get(Counter::ListTrylockFailures)),
                  Updates),
            "count");
      M.set("backend.validation_abort_per_update",
            ratio(static_cast<double>(
                      D.get(Counter::ListValidationAborts) +
                      D.get(Counter::ListValueValidationAborts)),
                  Updates),
            "count");
      M.set("backend.lock_retries_per_update",
            ratio(static_cast<double>(D.get(Counter::LockAcquireRetries)),
                  Updates),
            "count");
    } else if (N == "serve-zipf") {
      M.set("service.enqueue_ns", medianOf(S, "service.enqueue"), "ns");
      M.set("service.flush_ns", medianOf(S, "service.enqueue_flush"), "ns");
      const double Combined =
          static_cast<double>(D.get(Counter::ServiceOpsCombined));
      const double Direct =
          static_cast<double>(D.get(Counter::ServiceOpsDirect));
      const double Rounds =
          static_cast<double>(D.get(Counter::ServiceCombineRounds));
      M.set("service.ops_per_visit",
            ratio(Ops,
                  static_cast<double>(D.get(Counter::ServiceBatchFlushes))),
            "ops");
      M.set("service.combined_share", ratio(Combined, Combined + Direct),
            "frac");
      M.set("service.ops_per_combine_round", ratio(Combined, Rounds), "ops");
      M.set("service.handoffs_per_round",
            ratio(static_cast<double>(D.get(Counter::ServiceCombineHandoffs)),
                  Rounds),
            "count");
      M.set("epoch.advances_per_kop",
            ratio(static_cast<double>(D.get(Counter::EpochAdvances)), Kops),
            "1/kop");
      M.set("epoch.stalls_per_kop",
            ratio(static_cast<double>(D.get(Counter::EpochStalls)), Kops),
            "1/kop");
      M.set("epoch.lag_mean", histMean(D.hist(stats::Histogram::EpochLag)),
            "epochs");
      M.set("epoch.backlog",
            static_cast<double>(Life.get(Counter::EpochRetired)) -
                static_cast<double>(Life.get(Counter::EpochFreed)),
            "nodes");
      const double Hits = static_cast<double>(D.get(Counter::PoolHits));
      M.set("pool.hit_ratio",
            ratio(Hits, Hits + static_cast<double>(D.get(Counter::PoolMisses))),
            "frac");
      M.set("pool.global_refills_per_kop",
            ratio(static_cast<double>(R.GlobalRefills), Kops), "1/kop");
    } else if (N == "hash-large") {
      LatencyHist All;
      for (const char *Op :
           {"backend.insert", "backend.remove", "backend.contains"})
        if (S.Dur.count(Op))
          All.merge(S.Dur.at(Op));
      M.set("map.ns_per_op", All.percentile(50), "ns");
      M.set("map.hops_per_op",
            ratio(static_cast<double>(D.get(Counter::ListTraversalHops)), Ops),
            "hops");
      const double Inits =
          static_cast<double>(Life.get(Counter::MapBucketInits));
      M.set("map.bucket_inits_per_kop",
            ratio(Inits, (static_cast<double>(Keys.size()) + Ops) / 1e3),
            "1/kop");
      M.set("map.init_chain_mean",
            ratio(static_cast<double>(Life.get(Counter::MapBucketInitChain)),
                  Inits),
            "links");
      const double Reused = static_cast<double>(D.get(Counter::VbrReused));
      M.set("vbr.reuse_ratio",
            ratio(Reused,
                  Reused + static_cast<double>(D.get(Counter::VbrFreshAllocs))),
            "frac");
      M.set("vbr.birth_rejects_per_kop",
            ratio(static_cast<double>(D.get(Counter::VbrBirthRejects)), Kops),
            "1/kop");
      M.set("pool.live_slab_mb", static_cast<double>(Slab1) / (1 << 20), "MB");
      M.set("pool.bytes_per_key",
            ratio(static_cast<double>(Slab1 - Slab0),
                  static_cast<double>(B.Prefilled)),
            "B");
    } else if (N == "chunk-scan") {
      const double Scans = static_cast<double>(R.MeasuredScans);
      const double PointKops = (Ops - Scans) / 1e3;
      M.set("chunk.validation_aborts_per_update",
            ratio(static_cast<double>(D.get(Counter::ChunkValidationAborts)),
                  Updates),
            "count");
      M.set("chunk.splits_per_kop",
            ratio(static_cast<double>(D.get(Counter::ChunkSplits)), PointKops),
            "1/kop");
      M.set("chunk.merges_per_kop",
            ratio(static_cast<double>(D.get(Counter::ChunkMerges)), PointKops),
            "1/kop");
      using ChunkAdapter = vbl::SetAdapter<vbl::VblChunkList<7>>;
      if (auto *A = dynamic_cast<ChunkAdapter *>(B.Set.get()))
        M.set("chunk.occupancy_mean",
              ratio(static_cast<double>(Snap.size()),
                    static_cast<double>(A->underlying().chunkCountSlow())),
              "keys");
      M.set("scan.retries_per_scan",
            ratio(static_cast<double>(D.get(Counter::ScanRetries)), Scans),
            "count");
      M.set("scan.fallbacks_per_scan",
            ratio(static_cast<double>(D.get(Counter::ScanFallbacks)), Scans),
            "count");
      M.set("scan.ns_per_key",
            ratio(static_cast<double>(R.ScanNs),
                  static_cast<double>(R.ScanKeys)),
            "ns");
    }
    B.Set.reset();
  }
  if (!SpanPath.empty())
    std::printf("spans written to %s\n", SpanPath.c_str());
  printResult(T, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Mode, WorkloadName, SpanPath;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    if (Flag == "--mode")
      Mode = Value;
    else if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed") {
      Seed = std::strtoull(Value, nullptr, 10);
      HaveSeed = true;
    } else if (Flag == "--seconds")
      Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--spans")
      SpanPath = Value;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", Flag.c_str());
      return 2;
    }
  }
  const Workload *W = findWorkload(WorkloadName);
  if (!W || !HaveSeed || !(Seconds > 0) || Seconds > 120) {
    std::fprintf(stderr,
                 "usage: perfbench --mode e2e|ladder|trace "
                 "--workload NAME --seed N --seconds S [--spans FILE]\n"
                 "workloads: list-contended serve-zipf hash-large "
                 "chunk-scan\n");
    return 2;
  }
  if (Mode == "e2e")
    return runE2e(*W, Seed, Seconds);
  if (Mode == "ladder")
    return runLadder(*W, Seed, Seconds);
  if (Mode == "trace")
    return runTrace(*W, Seed, Seconds, SpanPath);
  std::fprintf(stderr, "error: unknown mode '%s'\n", Mode.c_str());
  return 2;
}
