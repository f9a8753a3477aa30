//===- lin/LinChecker.h - Linearizability checking for set histories -----===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides linearizability (§2.1, Herlihy & Wing) of a history of set
/// operations.
///
/// The checker exploits the structure of the set type: an operation on
/// key k reads and writes only k's presence bit, and any two operations
/// on different keys commute in every state. Hence a set history is
/// linearizable iff each per-key projection is linearizable against a
/// single boolean "presence" object — the standard decomposition that
/// turns an NP-hard general problem into independent small searches.
///
/// Each per-key projection is decided with Wing-Gong style DFS over
/// linearization prefixes, memoized exactly on (frontier index, sorted
/// holes, presence): cost n * 2^w where w is the history's maximal
/// per-key concurrency (bounded by the thread count), not its length.
/// A search that visits more than MaxSearchStates states gives up with
/// an Inconclusive verdict — never a violation it could not prove.
///
//===----------------------------------------------------------------------===//

#ifndef VBL_LIN_LINCHECKER_H
#define VBL_LIN_LINCHECKER_H

#include "lin/History.h"

#include <cstddef>
#include <string>
#include <vector>

namespace vbl {
namespace lin {

/// Per-key search budget: distinct (frontier, holes, presence) states
/// one single-key search may memoize before it gives up. Fixed, so a
/// verdict never depends on the environment; 20x above the peak the
/// recorded stress suites reach (~5e4 states for 6000 ops on one key).
inline constexpr size_t MaxSearchStates = size_t(1) << 20;

/// Three-way outcome: a search that runs out of budget proves nothing.
enum class LinVerdict : uint8_t {
  Linearizable, ///< A linearization exists for every key.
  Violation,    ///< Some key's projection provably has none.
  Inconclusive, ///< No violation found, but some key's search hit
                ///  MaxSearchStates before deciding.
};

/// Stable name of \p V ("Linearizable", "Violation", "Inconclusive").
const char *linVerdictName(LinVerdict V);

/// Outcome of a linearizability check.
struct LinResult {
  LinVerdict Verdict = LinVerdict::Linearizable;
  /// When not Linearizable: the key that was violated (or, for
  /// Inconclusive, the first key whose search ran out of budget).
  SetKey ViolatingKey = 0;
  /// Human-readable description of the verdict for test output.
  std::string Message;

  bool ok() const { return Verdict == LinVerdict::Linearizable; }
};

/// Checks a complete history of set operations, starting from a set
/// containing exactly \p InitialKeys.
///
/// Limitations (documented contract): all operations must be complete
/// (the harness joins threads before checking), and per-key concurrency
/// must not exceed 64 simultaneous operations (MaxWindow).
LinResult checkSetHistory(const std::vector<CompletedOp> &History,
                          const std::vector<SetKey> &InitialKeys);

/// Checks a single-key projection against a boolean presence object.
/// Exposed for unit tests; \p Ops need not be sorted.
LinVerdict checkSingleKeyHistory(std::vector<CompletedOp> Ops,
                                 bool InitiallyPresent);

/// Host facts a stress failure needs for replay: "nproc=N
/// clocksource=NAME" (the clocksource read from sysfs, "unknown" where
/// unavailable). Some interleavings only occur with several cores.
std::string hostContext();

/// Lowers range scans to per-key Contains observations suitable for
/// checkSetHistory: for every key of \p Universe inside a scan's
/// [Lo, Hi] window, one synthesized Contains whose result is whether
/// the scan reported the key, carrying the scan's full [Invoke,
/// Response] interval. This is the widened-interval contract: a scan
/// is linearizable per key iff each such observation can be justified
/// at SOME point inside the scan — exactly what the per-key search
/// then decides. Keys outside \p Universe are ignored (a scan cannot
/// be blamed for keys no operation ever touched).
std::vector<CompletedOp>
decomposeScans(const std::vector<CompletedScan> &Scans,
               const std::vector<SetKey> &Universe);

} // namespace lin
} // namespace vbl

#endif // VBL_LIN_LINCHECKER_H
