//===- core/ChunkController.h - Adaptive chunk-granularity control *- C++ -*-=//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online controller behind LoopOptions::ChunkPolicy::Adaptive: it
/// replaces the static ChunksPerThread knob with a per-loop feedback
/// loop over the counters the runtime already tracks. No single static k
/// wins across workloads -- loops that conflict at nearly every chunk
/// boundary (mcf's stale potentials) re-execute *more* recovery work
/// as chunks get finer, while skewed or churning loops want finer
/// chunks so the work-stealing scheduler can smooth the imbalance the
/// one-invocation-stale plan leaves behind (both measured in
/// bench/ablation_loadbalance.cpp).
///
/// The controller is a deterministic epoch-based hill climb over the
/// chunks-per-thread ladder (k doubles or halves, clamped to
/// [MinK, MaxK]):
///
///  * every completed parallel invocation contributes one
///    InvocationSample; after EpochInvocations samples the controller
///    scores the epoch (useful-work fraction divided by the observed
///    load-imbalance penalty -- see score());
///  * every k move recuts the memoization plan, so the first epoch on a
///    new rung runs with transitional boundaries; the controller
///    discards SettleEpochs epochs after each move and only scores the
///    settled behavior (probe comparisons are settled-vs-settled);
///  * while *probing*, it compares the epoch score against the previous
///    epoch's: an improvement beyond the Deadband keeps moving in the
///    same direction; a regression -- or a flat result -- steps back and
///    settles on the rung it came from (a move must earn its keep, so
///    noise never walks k away from a good setting);
///  * once *steady*, it holds k (hysteresis) until the epoch score
///    DETERIORATES by more than Drift below the score it settled on -- a
///    workload shift -- and then resumes probing, picking the first
///    direction from the counters themselves: a high recovery or wasted
///    fraction means chunk boundaries are hurting (go coarser; when
///    already at MinK, hold instead of probing the known-bad way),
///    otherwise the remaining suspect is load imbalance (go finer).
///    Improvements are absorbed into the tracked score, never probed:
///    if the current k got better, there is no evidence against it.
///
/// The controller consumes plain numbers and owns no clock, so its k
/// trajectory is a pure function of the sample trace: tests replay a
/// recorded trace and assert the exact decisions
/// (tests/chunk_controller_test.cpp). SpiceLoop feeds it per-invocation
/// stat deltas and re-plans memoization for the chosen chunk count; the
/// current state is exposed through SpiceLoop::tuning() as a LoopTuning
/// snapshot. docs/tuning.md is the operator guide.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_CHUNKCONTROLLER_H
#define SPICE_CORE_CHUNKCONTROLLER_H

#include <cstdint>

namespace spice {
namespace core {

/// Knobs of the adaptive chunk controller; defaults are the
/// ChunkPolicy::Adaptive defaults (see core/SpiceConfig.h).
struct ChunkControllerConfig {
  /// Inclusive chunks-per-thread range the controller moves within.
  unsigned MinK = 1;
  unsigned MaxK = 8;
  /// Parallel invocations scored per decision. Sequential invocations
  /// carry no chunk-granularity signal and do not count.
  unsigned EpochInvocations = 6;
  /// Relative score change treated as noise: moves are only made on
  /// improvements/regressions beyond this band (hysteresis). Epoch means
  /// of squash-heavy loops wander several percent, so the band is wide
  /// enough that a probe must show a real gain to keep the new k.
  double Deadband = 0.08;
  /// Once steady, an epoch score DETERIORATION beyond this fraction of
  /// the tracked steady score re-opens probing (workload shift). Wander
  /// within the band -- and any improvement -- is absorbed into the
  /// tracked score instead: a k that got better needs no probe.
  double Drift = 0.30;
  /// Recovery fraction above which the re-probe direction is "coarser"
  /// (conflict-dense loops re-execute more at finer granularity).
  double RecoveryHigh = 0.05;
  /// Wasted (squashed-chunk) fraction above which the re-probe direction
  /// is likewise "coarser": churn-heavy list loops lose whole chunks to
  /// rare squashes, and finer chunks only add boundaries to lose at.
  double WasteHigh = 0.05;
  /// Epochs discarded (not scored) after every k move. Changing the
  /// granularity recuts the memoization plan, and the first invocations
  /// on the new rung run with transitional boundaries (grown rows fill
  /// in one invocation later; squash recovery invalidates rows); scoring
  /// that churn would systematically undervalue every probe. One settle
  /// epoch makes probe comparisons settled-vs-settled.
  unsigned SettleEpochs = 1;
};

/// One completed invocation's counter deltas, as SpiceLoop tracks them
/// (see SpiceStats for the cumulative definitions).
struct InvocationSample {
  /// Iterations committed by this invocation (TotalIterations delta).
  uint64_t Iterations = 0;
  /// Re-executed iterations among them (RecoveryIterations delta).
  uint64_t RecoveryIterations = 0;
  /// Discarded iterations of squashed chunks (WastedIterations delta).
  uint64_t WastedIterations = 0;
  /// Chunks executed off their home lane (StolenChunks delta).
  uint64_t StolenChunks = 0;
  /// Admission-queue wait of this invocation (QueuedMicros delta).
  uint64_t QueuedMicros = 0;
  /// Execution-context makespan / ideal for this invocation, or <= 0
  /// when unavailable (squashed invocations are not sampled).
  double LoadImbalance = 0.0;
  /// Planner-granularity max-chunk / ideal-chunk, or <= 0 (same rule).
  double ChunkImbalance = 0.0;
  /// True for a sequential invocation: no usable granularity signal.
  bool Sequential = false;
};

/// Deterministic hill-climbing controller for one loop's effective
/// chunks-per-thread. Not thread-safe by itself: SpiceLoop drives it
/// from the (single) thread resolving the loop's invocations.
class ChunkController {
public:
  explicit ChunkController(const ChunkControllerConfig &Config);

  /// Chunks per thread the next invocation should plan for.
  unsigned currentK() const { return K; }

  /// Consumes one completed invocation and returns the k for the next
  /// one (changes only at epoch boundaries).
  unsigned onInvocation(const InvocationSample &S);

  /// Epoch objective of one sample: the fraction of executed iterations
  /// that were useful (committed once, not re-executed, not discarded)
  /// divided by the load-imbalance penalty. Higher is better; exposed so
  /// tests and benches score exactly like the controller.
  static double score(const InvocationSample &S);

  /// Where the controller is in its decision cycle.
  enum class Mode : uint8_t {
    Probing, ///< Comparing epoch scores, moving along the ladder.
    Steady,  ///< Settled; holding k until the score drifts.
  };

  /// Introspection state, surfaced through SpiceLoop::tuning().
  struct Snapshot {
    unsigned K = 1;            ///< Current chunks per thread.
    Mode M = Mode::Probing;    ///< Decision-cycle phase.
    int Direction = 1;         ///< +1 probing finer ladder steps, -1 coarser.
    unsigned EpochFill = 0;    ///< Samples accumulated toward the next epoch.
    double LastEpochScore = 0; ///< Score of the last completed epoch.
    double SteadyScore = 0;    ///< Reference score the Steady hold tracks.
    uint64_t Decisions = 0;    ///< Completed epochs.
    uint64_t Grows = 0;        ///< Moves to a finer k.
    uint64_t Shrinks = 0;      ///< Moves to a coarser k.
    uint64_t Reprobes = 0;     ///< Steady holds broken by score drift.
  };
  Snapshot snapshot() const;

private:
  /// Moves K one ladder step in \p Dir (double/halve, clamped). Returns
  /// false when already at the boundary (K unchanged).
  bool step(int Dir);

  /// Consumes one epoch's mean score and decides the next move.
  void decide(double EpochScore, double EpochRecoveryFraction,
              double EpochWasteFraction);

  ChunkControllerConfig Cfg;
  unsigned K;
  int Dir = 1;
  unsigned SettleLeft = 0; ///< Epochs left to discard after a k move.
  Mode M = Mode::Probing;
  bool HavePrev = false; ///< A previous epoch score exists to compare to.
  double PrevScore = 0.0;
  double SteadyScore = 0.0;
  double LastEpochScore = 0.0;

  // Epoch accumulators.
  unsigned Fill = 0;
  double ScoreAcc = 0.0;
  uint64_t IterAcc = 0;
  uint64_t RecoveryAcc = 0;
  uint64_t WasteAcc = 0;

  // Decision counters (Snapshot).
  uint64_t Decisions = 0;
  uint64_t Grows = 0;
  uint64_t Shrinks = 0;
  uint64_t Reprobes = 0;
};

/// One loop's tuning snapshot (SpiceLoop::tuning()): the effective
/// chunking the next invocation will use plus the controller state that
/// chose it. For ChunkPolicy::Static loops the snapshot simply restates
/// the pinned k.
struct LoopTuning {
  /// Chunk policy in effect.
  bool Adaptive = false;
  /// Effective chunks per thread the next invocation plans for.
  unsigned ChunksPerThread = 1;
  /// Chunks the next invocation's memoization plan targets
  /// (ChunksPerThread * runtime threads; what Planner cuts).
  unsigned PlannedChunks = 1;
  /// Controller bounds (MinK == MaxK == ChunksPerThread when static).
  unsigned MinK = 1;
  unsigned MaxK = 1;
  /// Mean worker-lane share of this loop's parallel invocations,
  /// relative to the runtime's worker count: GrantedLanes /
  /// (parallel invocations * pool workers). 0 when nothing ran parallel.
  double LaneShare = 0.0;
  /// Controller state; defaulted for static loops.
  ChunkController::Snapshot Controller;
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_CHUNKCONTROLLER_H
