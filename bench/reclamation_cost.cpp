//===- bench/reclamation_cost.cpp - 3-way reclamation comparison ---------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// The paper's Java implementations lean on the GC; its technical
/// report evaluates C++ translations *without* memory management. This
/// bench quantifies what safe reclamation costs each algorithm on the
/// contended Fig. 1 workload where retirement traffic is highest, one
/// panel per list with the leaky no-op domain as the ceiling:
///
///  - vbl / lazy: leaky vs EBR vs VBR. EBR pays one fence-bearing
///    announce per operation plus amortized collection; VBR pays an
///    acquire clock load plus rare birth-check restarts, and its
///    immediate in-place reuse hands updaters cache-warm nodes — the
///    expectation (EXPERIMENTS.md) is that VBR closes most of the
///    EBR-to-leaky gap on update-heavy settings.
///  - harris-michael: leaky vs EBR, the lock-free comparator's price
///    for the per-op announce.
///
//===----------------------------------------------------------------------===//

#include "harness/BenchJson.h"
#include "harness/TablePrinter.h"
#include "support/CommandLine.h"

using namespace vbl;
using namespace vbl::harness;

int main(int Argc, char **Argv) {
  FlagSet Flags("Reclamation cost: epoch-based vs leaky");
  Flags.addUnsignedList("threads", {1, 2, 4}, "thread counts");
  Flags.addInt("range", 50, "key range");
  Flags.addInt("update-percent", 20, "percentage of updates");
  Flags.addInt("duration-ms", 80, "measured window per repetition");
  Flags.addInt("warmup-ms", 25, "warm-up per window");
  Flags.addInt("repeats", 2, "repetitions per point");
  Flags.addInt("seed", 42, "base RNG seed");
  Flags.addString("json", "", "optional path for vbl-bench-v1 records");
  Flags.addBool("stats", false,
                "collect internal counters and report them per structure");
  if (!Flags.parse(Argc, Argv))
    return 1;
  setStatsCollection(Flags.getBool("stats"));

  WorkloadConfig Base;
  Base.UpdatePercent =
      static_cast<unsigned>(Flags.getInt("update-percent"));
  Base.KeyRange = Flags.getInt("range");
  Base.DurationMs = static_cast<unsigned>(Flags.getInt("duration-ms"));
  Base.WarmupMs = static_cast<unsigned>(Flags.getInt("warmup-ms"));
  Base.Repeats = static_cast<unsigned>(Flags.getInt("repeats"));
  Base.Seed = static_cast<uint64_t>(Flags.getInt("seed"));

  // Leaky first in every panel: it is the no-reclamation ceiling the
  // managed domains are measured against. VBR exists only for the
  // lock-based lists, so the harris-michael panel has two columns.
  struct PanelSpec {
    const char *Title;
    std::vector<std::string> Algorithms;
  };
  const std::vector<PanelSpec> Panels = {
      {"vbl: leaky vs EBR vs VBR", {"vbl-leaky", "vbl", "vbl-vbr"}},
      {"lazy: leaky vs EBR vs VBR", {"lazy-leaky", "lazy", "lazy-vbr"}},
      {"vbl-chunk: leaky vs EBR vs VBR",
       {"vbl-chunk-leaky", "vbl-chunk", "vbl-chunk-vbr"}},
      {"harris-michael: leaky vs EBR",
       {"harris-michael-leaky", "harris-michael"}},
  };
  BenchJsonReport Report;
  Report.setContext("bench_binary", "reclamation_cost");
  for (const PanelSpec &Spec : Panels) {
    Panel P(Spec.Title, Spec.Algorithms, Flags.getUnsignedList("threads"));
    P.measureAll(Base);
    P.print();
    P.appendJson(Report, Base);
  }
  if (!Flags.getString("json").empty())
    if (!Report.writeFile(Flags.getString("json")))
      return 1;
  return 0;
}
