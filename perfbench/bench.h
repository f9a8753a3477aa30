//===- perfbench/bench.h - Building blocks of the repository benchmark ---===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pieces perfbench.cpp composes: a fence-free clock, a
/// log-linear latency histogram with fixed memory (so the benchmark's
/// own buffers do not move peak RSS with throughput), per-thread span
/// buffers for the traced run, the seeded traffic sources, and two
/// ConcurrentSet wrappers: RoutedSets (the service ladder's "backend
/// per-op, routed by mixKey" rung) and FaultySet (the checker's
/// self-test).
///
//===----------------------------------------------------------------------===//

#ifndef VBL_PERFBENCH_BENCH_H
#define VBL_PERFBENCH_BENCH_H

#include "lists/SetInterface.h"
#include "service/ShardedSet.h"
#include "service/TrafficGen.h"
#include "support/Random.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using vbl::SetKey;
using vbl::SetOp;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stable 64-bit mix of a seed and a salt: every stream the benchmark
/// draws (prefill, per-thread ops, sampling phase, probes) derives from
/// the command-line seed through this.
inline uint64_t deriveSeed(uint64_t Seed, uint64_t Salt) {
  vbl::SplitMix64 Mix(Seed * 0x9e3779b97f4a7c15ULL + Salt);
  Mix.next();
  return Mix.next();
}

/// Log-linear latency histogram: exact below 64 ns, then 64 linear
/// sub-buckets per power of two (~1.6% resolution). Fixed size, so the
/// memory it touches does not grow with the number of samples.
class LatencyHist {
public:
  static constexpr unsigned SubBits = 6;
  static constexpr unsigned Sub = 1u << SubBits;
  static constexpr unsigned MaxExp = 42; // ~73 minutes in ns
  static constexpr unsigned NumBuckets = Sub + (MaxExp - SubBits) * Sub;

  void add(uint64_t Ns) {
    ++Buckets[indexOf(Ns)];
    ++Count;
  }

  void merge(const LatencyHist &O) {
    for (unsigned I = 0; I != NumBuckets; ++I)
      Buckets[I] += O.Buckets[I];
    Count += O.Count;
  }

  uint64_t count() const { return Count; }

  /// Percentile \p P (0..100), linearly interpolated by rank inside the
  /// bucket that holds it. 0 when empty.
  double percentile(double P) const {
    if (Count == 0)
      return 0.0;
    const double Rank = P / 100.0 * static_cast<double>(Count - 1);
    uint64_t Below = 0;
    for (unsigned I = 0; I != NumBuckets; ++I) {
      if (!Buckets[I])
        continue;
      if (static_cast<double>(Below + Buckets[I]) > Rank) {
        const double Frac = (Rank - static_cast<double>(Below) + 0.5) /
                            static_cast<double>(Buckets[I]);
        return static_cast<double>(lowerBound(I)) +
               Frac * static_cast<double>(width(I));
      }
      Below += Buckets[I];
    }
    return static_cast<double>(lowerBound(NumBuckets - 1));
  }

private:
  static unsigned indexOf(uint64_t V) {
    if (V < Sub)
      return static_cast<unsigned>(V);
    const unsigned Exp = static_cast<unsigned>(std::bit_width(V)) - 1;
    if (Exp >= MaxExp)
      return NumBuckets - 1;
    const unsigned Shift = Exp - SubBits;
    return Sub + (Exp - SubBits) * Sub +
           static_cast<unsigned>((V >> Shift) - Sub);
  }
  static uint64_t lowerBound(unsigned I) {
    if (I < Sub)
      return I;
    const unsigned Exp = (I - Sub) / Sub + SubBits;
    const uint64_t Mant = Sub + (I - Sub) % Sub;
    return Mant << (Exp - SubBits);
  }
  static uint64_t width(unsigned I) {
    return I < Sub ? 1 : uint64_t{1} << ((I - Sub) / Sub);
  }

  std::array<uint64_t, NumBuckets> Buckets{};
  uint64_t Count = 0;
};

/// One LatencyHist per measurement window. A percentile is reported as
/// the median over windows of that window's percentile, so a host
/// hiccup that lands in one window moves one sample, not the result.
/// A window's percentile counts only when at least ten samples lie
/// beyond it; when fewer than half the windows qualify, the percentile
/// of all samples together is reported instead.
class WindowedLatency {
public:
  explicit WindowedLatency(unsigned Windows = 1) : PerWindow(Windows) {}

  void add(unsigned Window, uint64_t Ns) { PerWindow[Window].add(Ns); }

  void merge(const WindowedLatency &O) {
    if (PerWindow.size() < O.PerWindow.size())
      PerWindow.resize(O.PerWindow.size());
    for (size_t I = 0; I != O.PerWindow.size(); ++I)
      PerWindow[I].merge(O.PerWindow[I]);
  }

  uint64_t count() const {
    uint64_t N = 0;
    for (const LatencyHist &H : PerWindow)
      N += H.count();
    return N;
  }

  double percentile(double P) const {
    std::vector<double> V;
    LatencyHist All;
    size_t Used = 0;
    for (const LatencyHist &H : PerWindow) {
      All.merge(H);
      Used += H.count() != 0;
      if (static_cast<double>(H.count()) * (1.0 - P / 100.0) >= 10.0)
        V.push_back(H.percentile(P));
    }
    if (V.empty() || 2 * V.size() < Used)
      return All.percentile(P);
    std::sort(V.begin(), V.end());
    const size_t M = V.size() / 2;
    return V.size() % 2 ? V[M] : 0.5 * (V[M - 1] + V[M]);
  }

private:
  std::vector<LatencyHist> PerWindow;
};

//===----------------------------------------------------------------------===//
// Spans (traced run only).
//===----------------------------------------------------------------------===//

/// One timed interval at a layer boundary. Parent indexes the same
/// thread's buffer (NoParent for a root); spans of one client op share
/// the root's index as their request id.
struct Span {
  static constexpr uint32_t NoParent = UINT32_MAX;
  const char *Name;
  uint64_t Start;
  uint64_t End;
  uint32_t Parent;
};

/// Per-thread span buffer with a hard cap: recording stops when full,
/// so a long run cannot grow the buffer without bound.
class SpanBuffer {
public:
  explicit SpanBuffer(size_t Cap) : Cap(Cap) { Spans.reserve(Cap); }

  bool full() const { return Spans.size() + 4 > Cap; }

  uint32_t open(const char *Name, uint64_t Start) {
    Spans.push_back({Name, Start, Start, Span::NoParent});
    return static_cast<uint32_t>(Spans.size() - 1);
  }
  void close(uint32_t Id, uint64_t End) { Spans[Id].End = End; }
  void child(uint32_t Parent, const char *Name, uint64_t Start,
             uint64_t End) {
    Spans.push_back({Name, Start, End, Parent});
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  size_t Cap;
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Traffic.
//===----------------------------------------------------------------------===//

struct Op {
  SetOp Kind = SetOp::Contains;
  SetKey Key = 0;
  SetKey Hi = 0; // RangeQuery only
};

/// Which share of ops are rangeQuery scans, and over how many keys.
struct ScanMix {
  unsigned Per10k = 0; ///< scans per 10000 ops
  SetKey Range = 0;    ///< key range the window is drawn from
  SetKey Len = 0;      ///< keys per window

  /// With probability Per10k/10000, turns \p O into a scan over a
  /// uniformly placed window and returns true.
  bool draw(vbl::Xoshiro256 &Rng, Op &O) const {
    if (!Per10k || Rng.nextBounded(10000) >= Per10k)
      return false;
    const SetKey Span = std::min(Len, Range);
    O.Kind = SetOp::RangeQuery;
    O.Key = static_cast<SetKey>(
        Rng.nextBounded(static_cast<uint64_t>(Range - Span + 1)));
    O.Hi = O.Key + Len - 1;
    return true;
  }
};

/// Uniform keys over [0, Range): the scan mix first, the rest split
/// UpdatePercent updates (insert/remove coin) and contains.
class UniformTraffic {
public:
  UniformTraffic(uint64_t Seed, SetKey Range, unsigned UpdatePercent,
                 const ScanMix &Scans)
      : Rng(Seed), Range(Range), UpdatePercent(UpdatePercent),
        Scans(Scans) {}

  Op next() {
    Op O;
    if (Scans.draw(Rng, O))
      return O;
    O.Key = static_cast<SetKey>(Rng.nextBounded(static_cast<uint64_t>(Range)));
    if (Rng.nextPercent(UpdatePercent))
      O.Kind = (Rng.next() & 1) ? SetOp::Insert : SetOp::Remove;
    return O;
  }

private:
  vbl::Xoshiro256 Rng;
  SetKey Range;
  unsigned UpdatePercent;
  ScanMix Scans;
};

/// The serving tier's traffic: TrafficGen's Zipfian keys over many
/// simulated sessions, this worker's slice of them, plus the scan mix.
class ZipfTraffic {
public:
  ZipfTraffic(const vbl::service::TrafficConfig &Cfg, unsigned Worker,
              unsigned Workers, uint64_t ScanSeed, const ScanMix &Scans)
      : Gen(Cfg, Worker, Workers), ScanRng(ScanSeed), Scans(Scans) {}

  Op next() {
    Op O;
    if (Scans.draw(ScanRng, O))
      return O;
    const vbl::service::TrafficGen::Item It = Gen.next();
    O.Kind = It.Op;
    O.Key = It.Key;
    return O;
  }

private:
  vbl::service::TrafficGen Gen;
  vbl::Xoshiro256 ScanRng;
  ScanMix Scans;
};

//===----------------------------------------------------------------------===//
// ConcurrentSet wrappers.
//===----------------------------------------------------------------------===//

/// S independent backend instances, each op routed by the service's
/// own mixKey: the bottom rung of the service ladder, i.e. what
/// ShardedSet does minus ShardedSet.
class RoutedSets final : public vbl::ConcurrentSet {
public:
  RoutedSets(const std::string &Backend, unsigned Shards)
      : Name("routed:" + Backend) {
    for (unsigned I = 0; I != Shards; ++I)
      Sets.push_back(vbl::makeSet(Backend));
  }

  bool valid() const {
    for (const auto &S : Sets)
      if (!S)
        return false;
    return !Sets.empty();
  }

  bool insert(SetKey Key) override { return route(Key).insert(Key); }
  bool remove(SetKey Key) override { return route(Key).remove(Key); }
  bool contains(SetKey Key) override { return route(Key).contains(Key); }
  size_t rangeQuery(SetKey Lo, SetKey Hi,
                    std::vector<SetKey> &Out) override {
    const size_t Entry = Out.size();
    for (auto &S : Sets)
      S->rangeQuery(Lo, Hi, Out);
    std::sort(Out.begin() + static_cast<ptrdiff_t>(Entry), Out.end());
    return Out.size() - Entry;
  }
  std::vector<SetKey> snapshot() const override {
    std::vector<SetKey> Keys;
    for (const auto &S : Sets) {
      std::vector<SetKey> Part = S->snapshot();
      Keys.insert(Keys.end(), Part.begin(), Part.end());
    }
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  }
  bool checkInvariants() const override {
    for (const auto &S : Sets)
      if (!S->checkInvariants())
        return false;
    return true;
  }
  const std::string &name() const override { return Name; }

private:
  vbl::ConcurrentSet &route(SetKey Key) {
    return *Sets[vbl::service::mixKey(Key) % Sets.size()];
  }

  std::string Name;
  std::vector<std::unique_ptr<vbl::ConcurrentSet>> Sets;
};

/// Fault injector for the checker's self-test: every FaultPeriod-th
/// insert reports success without applying it. The benchmark's checks
/// must flag a run over this wrapper; a checker that passes it is
/// broken.
class FaultySet final : public vbl::ConcurrentSet {
public:
  static constexpr uint64_t FaultPeriod = 1000;

  explicit FaultySet(std::unique_ptr<vbl::ConcurrentSet> Inner)
      : Inner(std::move(Inner)), Name("faulty:" + this->Inner->name()) {}

  bool insert(SetKey Key) override {
    if (Inserts.fetch_add(1, std::memory_order_relaxed) % FaultPeriod ==
        FaultPeriod - 1)
      return true;
    return Inner->insert(Key);
  }
  bool remove(SetKey Key) override { return Inner->remove(Key); }
  bool contains(SetKey Key) override { return Inner->contains(Key); }
  size_t rangeQuery(SetKey Lo, SetKey Hi,
                    std::vector<SetKey> &Out) override {
    return Inner->rangeQuery(Lo, Hi, Out);
  }
  std::vector<SetKey> snapshot() const override { return Inner->snapshot(); }
  bool checkInvariants() const override { return Inner->checkInvariants(); }
  const std::string &name() const override { return Name; }

private:
  std::unique_ptr<vbl::ConcurrentSet> Inner;
  std::string Name;
  std::atomic<uint64_t> Inserts{0};
};

} // namespace perfbench

#endif // VBL_PERFBENCH_BENCH_H
