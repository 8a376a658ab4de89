//===- core/Planner.h - Re-memoization planning (svat/svai) -----*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central component of the paper's value predictor (section 4). At the
/// end of each invocation it takes the per-chunk work counters and decides
/// which chunks must memoize live-ins at which local work thresholds during
/// the *next* invocation, so that the recorded values split the following
/// invocation into equal-work chunks (dynamic load balancing).
///
/// The planner is expressed purely in chunks: the paper runs exactly one
/// chunk per thread, while the oversubscribed runtime plans
/// ChunksPerThread * NumThreads chunks and lets the work-stealing scheduler
/// map them onto threads. With one chunk per thread the two are identical.
///
/// Paper assumptions encoded here:
///  1. the total work of the next invocation matches this one;
///  2. the per-chunk work distribution of the next invocation matches this
///     one (the reading consistent with the paper's worked example: work
///     {10,1,1} with 3 chunks yields svat=[4,8], svai=[0,1] for chunk 0
///     and empty lists for the others).
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_PLANNER_H
#define SPICE_CORE_PLANNER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spice {
namespace core {

/// One memoization instruction for a chunk: "when your local work counter
/// exceeds Threshold, record the current live-ins into SVA row Row".
struct MemoEntry {
  uint64_t Threshold; ///< svat entry (local work units).
  unsigned Row;       ///< svai entry (SVA row index, 0-based).

  bool operator==(const MemoEntry &O) const {
    return Threshold == O.Threshold && Row == O.Row;
  }
};

/// Per-chunk memoization schedules for the next invocation.
struct MemoizationPlan {
  /// PerThread[i] is chunk i's (svat, svai) list, thresholds ascending.
  /// An empty list is the paper's "head of svat set to infinity". (The
  /// field keeps its historical name: with ChunksPerThread == 1, chunk i
  /// is exactly thread i of the paper.)
  std::vector<std::vector<MemoEntry>> PerThread;

  /// Total work the plan was computed from.
  uint64_t TotalWork = 0;

  bool empty() const {
    for (const auto &L : PerThread)
      if (!L.empty())
        return false;
    return true;
  }
};

/// Computes the plan from the finished invocation's per-chunk work.
///
/// \p Work has one entry per chunk in chunk order; chunks that executed
/// nothing (inactive or squashed) must carry 0. Targets are the cumulative
/// positions k*W/NumChunks (k = 1..NumChunks-1); target k lands in the
/// chunk whose cumulative work interval contains it and becomes SVA row
/// k-1. Returns an all-empty plan when W == 0.
MemoizationPlan planMemoization(const std::vector<uint64_t> &Work,
                                unsigned NumChunks);

/// Arena-reuse variant: recomputes the plan into \p Plan, reusing its
/// per-chunk entry lists' capacity instead of allocating a fresh plan.
/// This is the hot-path spelling -- SpiceLoop replans after every
/// invocation, and a re-invoked loop's plan shape is stable, so the
/// steady state allocates nothing. Semantics identical to
/// planMemoization.
void planMemoizationInto(const std::vector<uint64_t> &Work,
                         unsigned NumChunks, MemoizationPlan &Plan);

/// Deterministic greedy list-scheduling makespan: assigns the chunks of
/// \p ChunkWork, in chunk order, each to the currently least-loaded of
/// \p Workers execution contexts, and returns the resulting maximum
/// per-context load. This models the runtime's work-stealing scheduler
/// (an idle worker always takes the next pending chunk) without the
/// timing noise of real thread interleavings, so load-imbalance metrics
/// derived from it are reproducible. With Workers >= ChunkWork.size() it
/// degenerates to the largest chunk -- the paper's one-chunk-per-thread
/// imbalance.
uint64_t listScheduleMakespan(const std::vector<uint64_t> &ChunkWork,
                              unsigned Workers);

/// Streaming cursor over one chunk's plan: Algorithm 2 of the paper.
class MemoCursor {
public:
  MemoCursor() = default;
  explicit MemoCursor(const std::vector<MemoEntry> *Entries)
      : Entries(Entries) {}

  /// The work count the next recording waits for: the row is due once
  /// the chunk's work counter exceeds it. UINT64_MAX when the plan is
  /// exhausted, so a loop can hold it in a register and compare its
  /// counter against it without re-checking the plan.
  uint64_t nextThreshold() const {
    if (!Entries || Next >= Entries->size())
      return UINT64_MAX;
    return (*Entries)[Next].Threshold;
  }

  /// The SVA row of the due entry; advances the cursor. Only valid while
  /// nextThreshold() is not UINT64_MAX.
  unsigned take() { return (*Entries)[Next++].Row; }

  /// Returns the SVA row to record into when \p WorkSoFar exceeds the
  /// current threshold, advancing the cursor; ~0u otherwise.
  unsigned shouldRecord(uint64_t WorkSoFar) {
    return WorkSoFar > nextThreshold() ? take() : ~0u;
  }

private:
  const std::vector<MemoEntry> *Entries = nullptr;
  size_t Next = 0;
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_PLANNER_H
