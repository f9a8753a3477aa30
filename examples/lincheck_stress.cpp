//===- examples/lincheck_stress.cpp - Linearizability as a service -------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// Build & run:  ./build/examples/lincheck_stress --algo vbl ...
///
/// Stress any registered algorithm under a contended workload while
/// recording the real-time operation history, then decide
/// linearizability with the per-key checker. Useful as a harness for
/// new algorithm variants: wire the variant into the registry, run
/// this, and get a concrete counterexample key when it is broken.
///
//===----------------------------------------------------------------------===//

#include "lin/LinChecker.h"
#include "lists/SetInterface.h"
#include "support/Barrier.h"
#include "support/CommandLine.h"
#include "support/Random.h"
#include "support/Timing.h"

#include <cstdio>
#include <thread>
#include <vector>

using namespace vbl;
using namespace vbl::lin;

int main(int Argc, char **Argv) {
  FlagSet Flags("Record a concurrent history and check linearizability");
  Flags.addString("algo", "vbl", "algorithm under test (see registry)");
  Flags.addInt("threads", 4, "worker threads");
  Flags.addInt("range", 8, "key range (small = contended)");
  Flags.addInt("ops-per-thread", 20000, "operations per worker");
  Flags.addInt("rounds", 3, "independent rounds (fresh list each)");
  Flags.addInt("seed", 1, "base seed");
  if (!Flags.parse(Argc, Argv))
    return 1;

  const std::string Algo = Flags.getString("algo");
  const auto Threads = static_cast<unsigned>(Flags.getInt("threads"));
  const SetKey Range = Flags.getInt("range");
  const auto Ops = static_cast<int>(Flags.getInt("ops-per-thread"));
  const auto Rounds = static_cast<int>(Flags.getInt("rounds"));

  for (int Round = 0; Round != Rounds; ++Round) {
    auto Set = makeSet(Algo);
    if (!Set) {
      std::fprintf(stderr, "error: unknown algorithm '%s'\n",
                   Algo.c_str());
      return 1;
    }
    std::vector<SetKey> Initial;
    for (SetKey Key = 0; Key < Range; Key += 2) {
      Set->insert(Key);
      Initial.push_back(Key);
    }

    HistoryRecorder Recorder(Threads);
    SpinBarrier Barrier(Threads);
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != Threads; ++T) {
      Workers.emplace_back([&, T, Round] {
        auto &Log = Recorder.threadLog(T);
        Xoshiro256 Rng(
            static_cast<uint64_t>(Flags.getInt("seed")) + T +
            1000 * static_cast<uint64_t>(Round));
        Barrier.arriveAndWait();
        for (int I = 0; I != Ops; ++I) {
          const SetKey Key = static_cast<SetKey>(
              Rng.nextBounded(static_cast<uint64_t>(Range)));
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
    for (auto &Worker : Workers)
      Worker.join();

    const Stopwatch CheckTimer;
    const LinResult Result = checkSetHistory(Recorder.merged(), Initial);
    std::printf("round %d: %zu ops on '%s' -> %s (checked in %.2fs)\n",
                Round, Recorder.totalOps(), Algo.c_str(),
                linVerdictName(Result.Verdict),
                CheckTimer.elapsedSeconds());
    if (!Result.ok()) {
      std::printf("  %s (seed %lld, %s)\n", Result.Message.c_str(),
                  static_cast<long long>(Flags.getInt("seed")),
                  hostContext().c_str());
      return 1;
    }
  }
  return 0;
}
