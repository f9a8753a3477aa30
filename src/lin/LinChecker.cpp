//===- lin/LinChecker.cpp - Linearizability checking ---------------------===//
//
// Part of the VBL project: a reproduction of "Optimal Concurrency for
// List-Based Sets" (PACT 2021).
//
//===----------------------------------------------------------------------===//

#include "lin/LinChecker.h"

#include "support/Compiler.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace vbl;
using namespace vbl::lin;

namespace {

/// Wing-Gong style DFS over linearization prefixes of one key's history.
///
/// The done-set is represented as "everything before Frontier except the
/// ops listed in Holes". Holes are remaining ops that were *skipped
/// over* by the chosen linearization; their count is bounded by the true
/// operation concurrency (ops whose real-time intervals are still open),
/// which stays small even when an oversubscribed thread is preempted
/// mid-operation and its interval stretches over hundreds of later ops.
///
/// Failed states are memoized by their exact encoding, never a hash: a
/// colliding hash would prune a live branch and report a violation the
/// history does not have.
class SingleKeySearch {
public:
  SingleKeySearch(std::vector<CompletedOp> OpsIn, bool Present)
      : Ops(std::move(OpsIn)), InitialPresent(Present) {
    std::sort(Ops.begin(), Ops.end(),
              [](const CompletedOp &A, const CompletedOp &B) {
                return A.Invoke < B.Invoke;
              });
    // Suffix minimum of responses: minimal response among ops[i..).
    SuffixMinResp.assign(Ops.size() + 1, UINT64_MAX);
    for (size_t I = Ops.size(); I != 0; --I)
      SuffixMinResp[I - 1] =
          std::min(SuffixMinResp[I], Ops[I - 1].Response);
  }

  LinVerdict run() {
    if (search())
      return LinVerdict::Linearizable;
    return Exhausted ? LinVerdict::Inconclusive : LinVerdict::Violation;
  }

private:
  /// Applies one operation's contract to the presence bit. Returns
  /// false if the recorded result contradicts the state.
  static bool applyOp(const CompletedOp &Op, bool Present,
                      bool &NextPresent) {
    switch (Op.Op) {
    case SetOp::Insert:
      if (Op.Result == Present)
        return false; // insert succeeds iff absent
      NextPresent = true;
      return true;
    case SetOp::Remove:
      if (Op.Result != Present)
        return false; // remove succeeds iff present
      NextPresent = false;
      return true;
    case SetOp::Contains:
      if (Op.Result != Present)
        return false;
      NextPresent = Present;
      return true;
    case SetOp::RangeQuery:
      // Scans never reach the per-key search directly: decomposeScans()
      // lowers them to Contains observations first. A raw RangeQuery
      // record is a caller bug; fail the check loudly rather than guess.
      return false;
    }
    vbl_unreachable("covered switch");
  }

  /// Exact memo key: (Frontier, Present) then the sorted holes, each
  /// as a base-128 varint of its distance below the previous one.
  /// Holes sit just below the frontier, so most encode in one byte.
  static std::string encodeState(size_t Frontier,
                                 const std::vector<uint32_t> &Holes,
                                 bool Present) {
    std::string Key;
    const auto Put = [&Key](uint64_t V) {
      for (; V >= 0x80; V >>= 7)
        Key.push_back(static_cast<char>((V & 0x7f) | 0x80));
      Key.push_back(static_cast<char>(V));
    };
    Put((uint64_t{Frontier} << 1) | (Present ? 1 : 0));
    uint64_t Prev = Frontier;
    for (auto It = Holes.rbegin(); It != Holes.rend(); ++It) {
      Put(Prev - *It);
      Prev = *It;
    }
    return Key;
  }

  /// A search state whose candidates are being tried: ops in Holes
  /// (sorted) and ops at indices >= Frontier are remaining. Next counts
  /// the candidates tried so far — the holes first, then the ops from
  /// the frontier on.
  struct Frame {
    size_t Frontier;
    std::vector<uint32_t> Holes;
    bool Present;
    uint64_t MinResp;
    size_t Next = 0;
  };

  enum class Entered { Goal, Failed, Pushed };

  /// Enters state (Frontier, Holes, Present): the goal, a state that is
  /// memoized or over budget, or a new frame on Stack.
  Entered enter(size_t Frontier, std::vector<uint32_t> Holes,
                bool Present) {
    if (Frontier == Ops.size() && Holes.empty())
      return Entered::Goal;
    if (Exhausted)
      return Entered::Failed;
    std::sort(Holes.begin(), Holes.end());
    if (!Visited.insert(encodeState(Frontier, Holes, Present)).second)
      return Entered::Failed; // Explored (and failed) before.
    if (Visited.size() > MaxSearchStates) {
      Exhausted = true;
      return Entered::Failed;
    }
    // An op can be linearized first iff it is invoked before every
    // remaining op's response (Wing-Gong candidate rule).
    uint64_t MinResp = SuffixMinResp[Frontier];
    for (uint32_t Hole : Holes)
      MinResp = std::min(MinResp, Ops[Hole].Response);
    Stack.push_back({Frontier, std::move(Holes), Present, MinResp});
    return Entered::Pushed;
  }

  /// Next op of \p F to try linearizing first, or SIZE_MAX when none
  /// is left: holes in ascending order, then ops from the frontier on
  /// until one is invoked after MinResp.
  size_t nextCandidate(Frame &F) const {
    while (F.Next < F.Holes.size()) {
      const uint32_t Hole = F.Holes[F.Next++];
      if (Ops[Hole].Invoke <= F.MinResp)
        return Hole;
    }
    const size_t I = F.Frontier + (F.Next - F.Holes.size());
    if (I == Ops.size() || Ops[I].Invoke > F.MinResp)
      return SIZE_MAX;
    ++F.Next;
    return I;
  }

  /// Depth-first search with an explicit stack: a history of thousands
  /// of ops would otherwise recurse once per linearized op.
  bool search() {
    Entered E = enter(0, {}, InitialPresent);
    while (E != Entered::Goal && !Stack.empty()) {
      Frame &F = Stack.back();
      const size_t I = nextCandidate(F);
      if (I == SIZE_MAX) {
        Stack.pop_back(); // Every candidate failed.
        continue;
      }
      bool NextPresent = F.Present;
      if (!applyOp(Ops[I], F.Present, NextPresent))
        continue;
      std::vector<uint32_t> Holes = F.Holes;
      size_t Frontier = F.Frontier;
      if (I < Frontier) {
        // I was a hole.
        Holes.erase(std::find(Holes.begin(), Holes.end(),
                              static_cast<uint32_t>(I)));
      } else {
        // Ops [Frontier, I) were skipped over: they become holes.
        for (size_t J = Frontier; J != I; ++J)
          Holes.push_back(static_cast<uint32_t>(J));
        Frontier = I + 1;
      }
      E = enter(Frontier, std::move(Holes), NextPresent);
    }
    return E == Entered::Goal;
  }

  std::vector<CompletedOp> Ops;
  std::vector<uint64_t> SuffixMinResp;
  bool InitialPresent;
  std::unordered_set<std::string> Visited;
  std::vector<Frame> Stack;
  bool Exhausted = false;
};

} // namespace

const char *vbl::lin::linVerdictName(LinVerdict V) {
  switch (V) {
  case LinVerdict::Linearizable:
    return "Linearizable";
  case LinVerdict::Violation:
    return "Violation";
  case LinVerdict::Inconclusive:
    return "Inconclusive";
  }
  return "Unknown";
}

LinVerdict vbl::lin::checkSingleKeyHistory(std::vector<CompletedOp> Ops,
                                           bool InitiallyPresent) {
  SingleKeySearch Search(std::move(Ops), InitiallyPresent);
  return Search.run();
}

std::string vbl::lin::hostContext() {
  std::string Clock = "unknown";
  std::ifstream In(
      "/sys/devices/system/clocksource/clocksource0/current_clocksource");
  if (In)
    In >> Clock;
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " clocksource=" + Clock;
}

std::vector<CompletedOp>
vbl::lin::decomposeScans(const std::vector<CompletedScan> &Scans,
                         const std::vector<SetKey> &Universe) {
  std::vector<CompletedOp> Synthesized;
  for (const CompletedScan &Scan : Scans) {
    std::unordered_set<SetKey> Reported(Scan.Keys.begin(),
                                        Scan.Keys.end());
    for (SetKey Key : Universe) {
      if (Key < Scan.Lo || Key > Scan.Hi)
        continue;
      Synthesized.push_back({SetOp::Contains, Key,
                             Reported.count(Key) == 1, Scan.Invoke,
                             Scan.Response, Scan.Thread});
    }
  }
  return Synthesized;
}

LinResult vbl::lin::checkSetHistory(
    const std::vector<CompletedOp> &History,
    const std::vector<SetKey> &InitialKeys) {
  std::unordered_map<SetKey, std::vector<CompletedOp>> PerKey;
  for (const CompletedOp &Op : History)
    PerKey[Op.Key].push_back(Op);

  std::unordered_set<SetKey> Initial(InitialKeys.begin(),
                                     InitialKeys.end());

  // A violation on any key decides the history; budget exhaustion on
  // one key only downgrades the verdict, so keep checking the rest.
  LinResult Result;
  for (auto &[Key, Ops] : PerKey) {
    const size_t Count = Ops.size();
    const LinVerdict V = checkSingleKeyHistory(std::move(Ops),
                                               Initial.count(Key) == 1);
    if (V == LinVerdict::Violation) {
      Result.Verdict = V;
      Result.ViolatingKey = Key;
      Result.Message = "no linearization exists for the " +
                       std::to_string(Count) + " operations on key " +
                       std::to_string(Key);
      return Result;
    }
    if (V == LinVerdict::Inconclusive && Result.ok()) {
      Result.Verdict = V;
      Result.ViolatingKey = Key;
      Result.Message = "inconclusive: the search over the " +
                       std::to_string(Count) + " operations on key " +
                       std::to_string(Key) + " exceeded " +
                       std::to_string(MaxSearchStates) + " states";
    }
  }
  return Result;
}
