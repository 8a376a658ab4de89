//===- core/SpiceLoop.h - Speculative parallel iteration chunks -*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SpiceLoop is the native-runtime embodiment of the paper's technique:
/// given a loop expressed as a live-in transition function plus a private
/// reduction state, it executes each invocation as a chain of speculative
/// chunks. The paper runs exactly t chunks on t threads; this runtime
/// decouples the two (LoopOptions::ChunksPerThread): an invocation is
/// split into k*t chunks scheduled onto per-worker deques with work
/// stealing, so a mis-balanced or mis-predicted chunk no longer idles
/// every other core.
///
/// A SpiceLoop is a lightweight handle on a SpiceRuntime: the runtime
/// owns the single shared WorkerPool and the admission Scheduler, and
/// each invocation is granted a partition of the worker lanes by the
/// scheduler's LanePolicy, so many loops -- invoked from the same or
/// different client threads -- share one set of pre-allocated threads:
///
/// \code
///   SpiceRuntime RT(/*NumThreads=*/4);            // one pool, process-wide
///   auto Loop = RT.makeLoop(Traits, LoopOptions{}); // per-loop policy
///   auto Result = Loop.invoke(Head);              // submit(Head).get()
/// \endcode
///
/// Invocation is submission-based: submit(Start) admits the invocation
/// to the runtime's scheduler and returns a SpiceFuture immediately. As
/// soon as the scheduler grants lanes (inside submit when the pool has
/// free workers, else deferred until another invocation releases its
/// lanes), the speculative chunks start executing on the granted
/// workers; the non-speculative chunk 0 and the ordered commit chain
/// run on the client thread inside SpiceFuture::get()/wait(). The
/// client never waits for a grant: driving a still-queued invocation
/// runs its chunk 0 at once, a grant that lands meanwhile launches the
/// speculative chunks beside it, and an invocation still queued when
/// chunk 0 ends is withdrawn and finished inline, each remaining chunk
/// running direct as a promoted chunk does. invoke() is literally
/// submit(Start).get() -- the synchronous spelling -- and a client can
/// overlap invocations of *different* loops by holding several futures
/// (one loop handle still runs one invocation at a time; see
/// core/SpiceFuture.h for future semantics).
///
/// Serving layers batch: submitBatch(Starts) admits N invocations as
/// ONE scheduler request returning a SpiceBatchFuture -- one admission
/// trip and one lane lease amortized across the batch, the elements
/// executing in submission order on the driving thread. Admission
/// itself is bounded: queue caps plus RuntimeConfig::OverloadPolicy
/// shed overload as OverloadError futures instead of growing the queue
/// (see core/Scheduler.h and docs/serving.md).
///
/// A loop is adapted through a Traits object (or assembled from lambdas
/// with spice::LoopBuilder, see core/LoopBuilder.h):
///
/// \code
///   struct ListMin {
///     using LiveIn = Node *;            // speculated live-ins S
///     struct State { long Min; ... };   // reductions + live-outs
///     State initialState();             // identity values
///     // One iteration: returns false when the loop exits (no iteration
///     // executed). Shared mutable memory goes through Mem.
///     bool step(LiveIn &LI, State &S, SpecSpace &Mem);
///     // Ordered (left-to-right) merge of a later chunk into Into.
///     void combine(State &Into, State &&Chunk);
///     // Optional: per-iteration work weight (cost-based load balancing).
///     uint64_t weight(const LiveIn &LI);
///   };
/// \endcode
///
/// Protocol per invocation (paper sections 3-4, generalized to chunks):
///  * chunk 0 (main thread, non-speculative) starts from the real live-in;
///    chunk i >= 1 starts from SVA row i-1 (the value memoized last
///    invocation) and is queued on worker lane (i-1) mod lanes;
///  * every chunk with a successor compares its live-in against the
///    successor's predicted start at the top of each iteration; a match
///    validates the successor and ends the chunk;
///  * a natural loop exit in chunk i means chunks i+1.. mis-speculated:
///    they are squashed via cooperative resteer and their buffered stores
///    are discarded. A chunk runs in segments of detail::AbortPollStride
///    (256) iterations and polls its signal word (run / promote / abort)
///    at each segment head, so a squashed chunk stops within one stride;
///  * promotion: once chunk J-1 has committed and J's start is
///    validated, no older chunk is running, so the resolving thread
///    signals J to promote. At its next segment head J validates its
///    logged reads, commits its buffer and runs the rest of its range
///    direct and without the MaxSpecIterations budget, as chunk 0 does;
///    the resolving thread then has nothing left to validate or commit
///    for it. A promotion-time validation failure stops J there and is
///    recovered like a failed commit-time validation. A promoted chunk's
///    direct stores, like chunk 0's, are not rolled back when an
///    exception unwinds the invocation;
///  * every chunk runs Algorithm 2 re-memoization driven by the plan the
///    central component computed from the previous invocation's work
///    counters (dynamic load balancing);
///  * speculative chunks buffer stores in a per-chunk SpecWriteBuffer;
///    with conflict detection enabled their reads are value-validated at
///    commit (commits are ordered, performed by the resolving main
///    thread or, once promoted, by the chunk itself), and a failed
///    validation squashes the chunk;
///  * recovery: with ChunksPerThread == 1 a failed validated chunk
///    triggers the paper's sequential re-execution of the remainder. With
///    oversubscription the failed chunk is instead re-enqueued as a
///    stealable recovery chunk -- any idle worker (or the resolving main
///    thread) picks it up while the not-yet-invalidated successor chunks
///    keep running, so recovery proceeds concurrently and validated
///    downstream work is only discarded if its reads really conflict.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_SPICELOOP_H
#define SPICE_CORE_SPICELOOP_H

#include "core/BootstrapSampler.h"
#include "core/ChunkController.h"
#include "core/Planner.h"
#include "core/Scheduler.h"
#include "core/SpecWriteBuffer.h"
#include "core/SpiceConfig.h"
#include "core/SpiceFuture.h"
#include "core/SpiceRuntime.h"
#include "core/WorkerPool.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace spice {
namespace core {

/// Detects an optional Traits::weight(LiveIn) member.
template <typename Traits, typename LiveIn>
concept HasWeight = requires(Traits T, const LiveIn &LI) {
  { T.weight(LI) } -> std::convertible_to<uint64_t>;
};

/// Speculatively parallelized loop. One instance per static loop; reuse it
/// across invocations so the value predictor can learn. A lightweight
/// handle: execution runs on the SpiceRuntime's shared worker pool.
template <typename Traits> class SpiceLoop {
public:
  using LiveIn = typename Traits::LiveIn;
  using State = typename Traits::State;

  /// Registers a loop with per-loop policy \p Opts on \p Runtime (the
  /// preferred spelling is Runtime.makeLoop(T, Opts)). The runtime -- and
  /// its shared pool -- must outlive the loop.
  SpiceLoop(Traits &T, SpiceRuntime &Runtime, const LoopOptions &Opts = {})
      : SpiceLoop(T, Opts, /*Owned=*/nullptr, &Runtime) {}

  /// Legacy constructor: builds a dedicated single-loop runtime from
  /// \p Config (one private pool per loop, as before the SpiceRuntime
  /// split). Deprecated -- it notes loudly at runtime (once per process)
  /// and will be removed; create one SpiceRuntime and register loops
  /// with SpiceRuntime::makeLoop instead.
  SpiceLoop(Traits &T, const SpiceConfig &Config)
      : SpiceLoop(T, Config.loop(),
                  std::make_unique<SpiceRuntime>(Config.runtime())) {
    reportDeprecationNote(
        "SpiceLoop(Traits&, SpiceConfig) builds a private single-loop "
        "runtime and is deprecated; construct a SpiceRuntime and use "
        "SpiceRuntime::makeLoop(traits, LoopOptions) so loops share one "
        "worker pool");
  }

  ~SpiceLoop() {
    if (InvokeInFlight.load(std::memory_order_acquire))
      reportFatalError("destroying a SpiceLoop while a submitted "
                       "invocation is unresolved; get()/wait() its "
                       "SpiceFuture (or destroy the future) first");
    if (RT)
      RT->unregisterLoop();
  }

  SpiceLoop(const SpiceLoop &) = delete;
  SpiceLoop &operator=(const SpiceLoop &) = delete;

  /// Executes one invocation starting from \p Start and returns the merged
  /// state (reductions and live-outs): the synchronous spelling of
  /// submit(Start).get(). Different loops of one runtime may invoke
  /// concurrently, but each individual loop is driven by one client
  /// thread at a time (the predictor state is per-loop); overlapping
  /// invoke()/submit() calls on the same handle abort with a diagnostic.
  State invoke(const LiveIn &Start) { return submit(Start).get(); }

  /// Admits one invocation starting from \p Start to the runtime's
  /// scheduler and returns its completion future. The speculative chunks
  /// start on worker lanes as soon as the scheduler grants them (by
  /// RuntimeConfig::Policy); chunk 0 and the ordered commit chain run on
  /// the thread that drives the future (get/wait -- see
  /// core/SpiceFuture.h). The loop handle runs one invocation at a time:
  /// the next submit() must wait until this future resolves. \p Start
  /// and the Traits object must stay valid until resolution.
  SpiceFuture<State> submit(const LiveIn &Start) {
    return SpiceFuture<State>(submitStarts({Start}));
  }

  /// Admits \p Starts.size() invocations as ONE scheduler request and
  /// returns their SpiceBatchFuture: one admission-queue trip and one
  /// lane lease amortized over the whole batch, which is what makes
  /// per-request cost scale for serving workloads (docs/serving.md).
  /// The elements execute in submission order on the thread driving the
  /// future -- element k's live-in predictions come from element k-1's
  /// run, so batches of a warmed loop stay parallel throughout, while a
  /// cold loop (no predictions at submit time) runs the whole batch
  /// sequentially. The loop handle still runs one *submission* at a
  /// time; the queue caps count a batch as Starts.size() invocations.
  /// An empty batch returns an invalid future. \p Starts is copied;
  /// the Traits object must stay valid until resolution.
  SpiceBatchFuture<State> submitBatch(std::span<const LiveIn> Starts) {
    if (Starts.empty())
      return SpiceBatchFuture<State>();
    return SpiceBatchFuture<State>(
        submitStarts(std::vector<LiveIn>(Starts.begin(), Starts.end())));
  }

  /// Plain sequential execution with no Spice machinery (baseline oracle
  /// for tests and benchmarks). Does not touch predictor state.
  State runSequentialReference(LiveIn LI) {
    State S = T.initialState();
    SpecSpace Direct;
    while (T.step(LI, S, Direct)) {
    }
    return S;
  }

  /// Live cumulative counters. The reference stays valid for the loop's
  /// lifetime but is updated *during* resolution, so a reader overlapping
  /// an in-flight invocation can see a half-updated invocation; use
  /// lastStats() for a consistent snapshot. docs/stats.md documents
  /// which counters are cumulative and which are per-invocation means.
  const SpiceStats &stats() const { return Stats; }

  /// Consistent snapshot of the cumulative counters as of the last
  /// *completed* invocation (batch element): taken by the driving thread
  /// after all of the invocation's bookkeeping, so every counter in it
  /// agrees about how many invocations it covers. Call from the thread
  /// that drives this loop's futures (or between invocations).
  SpiceStats lastStats() const { return LastStats; }

  /// Tuning introspection: the effective chunk granularity the next
  /// invocation will plan for, this loop's observed mean lane share, and
  /// -- for ChunkPolicy::Adaptive loops -- the controller state behind
  /// it (see core/ChunkController.h and docs/tuning.md). Static loops
  /// report their pinned k with a default controller snapshot. Same
  /// consistency rule as lastStats(): read between invocations.
  LoopTuning tuning() const {
    LoopTuning Tune;
    Tune.Adaptive = Controller != nullptr;
    Tune.ChunksPerThread = effectiveK();
    Tune.PlannedChunks = PlanChunks;
    if (Opts.adaptiveChunking()) {
      Tune.MinK = Opts.Chunking.MinK;
      Tune.MaxK = Opts.Chunking.MaxK;
    } else {
      Tune.MinK = Tune.MaxK = Tune.ChunksPerThread;
    }
    const uint64_t Parallel =
        Stats.Invocations - Stats.SequentialInvocations;
    const unsigned Workers =
        Config.NumThreads > 1 ? Config.NumThreads - 1 : 1;
    Tune.LaneShare =
        Parallel ? static_cast<double>(Stats.GrantedLanes) /
                       (static_cast<double>(Parallel) * Workers)
                 : 0.0;
    if (Controller) {
      Tune.Controller = Controller->snapshot();
    } else {
      Tune.Controller.K = Tune.ChunksPerThread;
      Tune.Controller.M = ChunkController::Mode::Steady;
    }
    return Tune;
  }

  /// Effective flat view of this loop's configuration: the runtime's
  /// thread count merged with the per-loop options.
  const SpiceConfig &config() const { return Config; }

  /// The per-loop half of the configuration.
  const LoopOptions &options() const { return Opts; }

  /// The runtime this loop is registered on.
  SpiceRuntime &runtime() const { return *RT; }

  /// Current memoization plan (exposed for tests and load-balance benches).
  const MemoizationPlan &currentPlan() const { return Plan; }

  /// Number of SVA rows currently holding a prediction.
  unsigned validRows() const {
    unsigned N = 0;
    for (uint8_t V : RowValid)
      N += V;
    return N;
  }

  /// Valid prediction prefix (the next invocation's chunk start values,
  /// i.e. its chunk boundaries). Exposed for benches and tests that
  /// analyze chunk geometry -- e.g. re-deriving load imbalance under a
  /// cost model the runtime's work metric cannot see.
  std::vector<LiveIn> predictions() const {
    return std::vector<LiveIn>(SVA.begin(),
                               SVA.begin() + countLaunchableSpecChunks());
  }

  /// Aggregate SpecWriteBuffer introspection across this loop's
  /// per-chunk buffer pool (the buffers live for the loop's lifetime and
  /// are reused by every invocation). Same consistency rule as
  /// lastStats(): read between invocations.
  SpecBufferPoolStats bufferPoolStats() const {
    SpecBufferPoolStats P;
    P.Buffers = Buffers.size();
    for (const SpecWriteBuffer &B : Buffers) {
      P.TableSlots += B.capacity();
      P.Rehashes += B.rehashes();
      if (!B.usesInlineStorage())
        ++P.HeapTables;
    }
    return P;
  }

private:
  enum class ChunkStatus : uint8_t {
    Matched, ///< Found the successor's predicted live-in: chunk complete.
    Exited,  ///< Reached the natural loop exit.
    Squashed,///< Aborted by the runtime (mis-speculation upstream of us).
    Runaway, ///< Hit MaxSpecIterations (stale-pointer cycle guard).
    Conflict,///< Promotion-time read validation failed: stopped there.
  };

  /// What the resolving thread tells a speculative chunk; polled once per
  /// segment head. Run is the launch state; Promote publishes the buffer
  /// and switches the chunk to direct stores; Abort squashes it.
  enum class ChunkSignal : uint8_t { Run, Promote, Abort };

  /// Where a chunk of the running invocation is. 32 bits: the resolving
  /// thread parks on it (detail::ParkWord is a futex word).
  enum class ChunkProgress : uint32_t { Queued, Running, Done };

  struct ChunkResult {
    ChunkStatus Status = ChunkStatus::Exited;
    uint64_t Work = 0;
    uint64_t Iterations = 0;
    bool Stolen = false; ///< Executed off its home lane (steal or help).
    /// Published its buffer at a promotion and ran on direct: nothing
    /// left to validate or commit.
    bool Promoted = false;
    std::optional<State> S;
    std::vector<unsigned> WrittenRows;
  };

  /// True when iterations count Traits::weight work units instead of 1.
  bool weighted() const {
    if constexpr (HasWeight<Traits, LiveIn>)
      return Config.UseWeightedWork;
    return false;
  }

  /// Work units of the iteration starting at \p LI; \p Weighted is
  /// weighted(), hoisted out of the caller's loop.
  uint64_t weightOf(const LiveIn &LI, bool Weighted) {
    if constexpr (HasWeight<Traits, LiveIn>) {
      if (Weighted)
        return T.weight(LI);
    }
    return 1;
  }

  /// Longest launchable prefix: chunk i+1 needs a valid SVA row i. Capped
  /// at the current plan's chunk count -- after an adaptive shrink, rows
  /// beyond it are stale and must not launch (they are also invalidated
  /// eagerly in setEffectiveK; the cap makes the invariant local).
  unsigned countLaunchableSpecChunks() const {
    const unsigned Limit = PlanChunks > 0 ? PlanChunks - 1 : 0;
    unsigned N = 0;
    while (N < Limit && N < SVA.size() && RowValid[N])
      ++N;
    return N;
  }

  /// Runs one chunk. \p Target is the successor's predicted start (null
  /// for the last active chunk); \p ChunkIdx is 0 for the non-speculative
  /// main chunk. \p IterBudget caps speculative iterations (normally
  /// Config.MaxSpecIterations; tighter for main-helped chunks, see
  /// helpIterBudget()).
  ///
  /// The loop runs in segments of at most detail::AbortPollStride
  /// iterations. Only a segment head checks the budget and polls the
  /// chunk's signal word; state and counters stay in locals until the
  /// chunk ends. An iteration is the compare of the work counter against
  /// the held memoization threshold, the detection compare and T.step.
  ChunkResult runChunk(LiveIn LI, const LiveIn *Target, unsigned ChunkIdx,
                       MemoCursor Cursor, uint64_t IterBudget) {
    ChunkResult R;
    State S = T.initialState();
    const bool Speculative = ChunkIdx != 0;
    SpecSpace Mem =
        Speculative ? SpecSpace(&specBuf(ChunkIdx)) : SpecSpace();
    const bool Weighted = weighted();
    // A local copy: T.step may store to memory, so comparing through
    // Target would reload the prediction every iteration.
    const bool HasTarget = Target != nullptr;
    const LiveIn Successor = HasTarget ? *Target : LI;
    // A budget of 0 still runs one iteration, as a budget of 1 does.
    uint64_t Budget =
        Speculative ? std::max<uint64_t>(IterBudget, 1) : UINT64_MAX;
    uint64_t Threshold = Cursor.nextThreshold();
    uint64_t Work = 0, Iters = 0, SegmentEnd = 0;
    for (;; ++Iters) {
      if (Iters == SegmentEnd) {
        if (Iters == Budget) {
          R.Status = ChunkStatus::Runaway;
          break;
        }
        if (Speculative) {
          // Acquire: a promoted chunk must see its predecessors' stores.
          const ChunkSignal Sig =
              Signals[ChunkIdx].load(std::memory_order_acquire);
          if (Sig == ChunkSignal::Abort) {
            R.Status = ChunkStatus::Squashed;
            break;
          }
          if (Sig == ChunkSignal::Promote && !R.Promoted) {
            if (!publish(specBuf(ChunkIdx))) {
              R.Status = ChunkStatus::Conflict;
              break;
            }
            R.Promoted = true;
            Mem = SpecSpace();
            Budget = UINT64_MAX;
          }
        }
        SegmentEnd = Iters + std::min(detail::AbortPollStride, Budget - Iters);
      }
      // Algorithm 2: bump the work counter, then memoize when a threshold
      // is crossed (before the detection check so a threshold equal to the
      // chunk length still fires and refreshes the successor's row).
      const uint64_t W = weightOf(LI, Weighted);
      Work += W;
      if (Work > Threshold) [[unlikely]] {
        recordRow(Cursor.take(), LI, R);
        Threshold = Cursor.nextThreshold();
      }
      if (HasTarget && LI == Successor) {
        R.Status = ChunkStatus::Matched;
        Work -= W; // The matched iteration belongs to the successor.
        break;
      }
      if (!T.step(LI, S, Mem)) {
        R.Status = ChunkStatus::Exited;
        Work -= W; // Exit test only; no iteration executed.
        break;
      }
    }
    R.Work = Work;
    R.Iterations = Iters;
    R.S = std::move(S);
    return R;
  }

  /// Promotion of a chunk whose predecessors have all committed:
  /// validates its logged reads against memory (which now holds every
  /// older store) and publishes its buffered stores. False on a conflict;
  /// the buffer is then left for the resolving thread to discard.
  bool publish(SpecWriteBuffer &Buf) {
    if (Config.EnableConflictDetection && !Buf.validateReads())
      return false;
    Buf.commit();
    return true;
  }

  void recordRow(unsigned Row, const LiveIn &LI, ChunkResult &R) {
    assert(Row < SVA.size() && "memoization row out of range");
    SVA[Row] = LI;
    RowValid[Row] = 1;
    R.WrittenRows.push_back(Row);
  }

  /// Sequential invocation: no predictions available (first invocation, or
  /// every row invalidated). Memoizes via the plan when one exists,
  /// otherwise through the bootstrap sampler.
  State invokeSequential(LiveIn LI) {
    ++Stats.SequentialInvocations;
    State S = T.initialState();
    SpecSpace Direct;
    uint64_t Work = 0;
    bool UsePlan = !Plan.empty();
    MemoCursor Cursor =
        UsePlan ? MemoCursor(&Plan.PerThread[0]) : MemoCursor();
    ChunkResult Dummy;
    if (!UsePlan)
      Sampler.reset();
    const bool Weighted = weighted();
    for (;;) {
      uint64_t W = weightOf(LI, Weighted);
      Work += W;
      if (UsePlan) {
        if (unsigned Row = Cursor.shouldRecord(Work); Row != ~0u)
          recordRow(Row, LI, Dummy);
      } else {
        Sampler.offer(Work, LI);
      }
      if (!T.step(LI, S, Direct)) {
        Work -= W;
        break;
      }
      ++Stats.TotalIterations;
    }
    if (!UsePlan)
      seedFromSampler();
    planNext({Work});
    LastStats = Stats;
    return S;
  }

  void seedFromSampler() {
    std::optional<std::vector<LiveIn>> Rows = Sampler.extract(PlanChunks);
    if (!Rows)
      return; // Too few iterations: stay sequential next time too.
    for (size_t I = 0; I != Rows->size(); ++I) {
      SVA[I] = (*Rows)[I];
      RowValid[I] = 1;
    }
  }

  /// Executes chunk \p C against the prediction snapshot and publishes its
  /// result. Runs on workers, and -- in oversubscribed mode -- on the
  /// resolving main thread as well.
  void executeChunk(unsigned C, const std::vector<LiveIn> &Pred,
                    unsigned ActiveChunks, bool Stolen,
                    uint64_t IterBudget) {
    const LiveIn *Target = C < ActiveChunks ? &Pred[C] : nullptr;
    // The resolving thread may be parked waiting for this chunk to start
    // (see WaitForChunk).
    Progress[C].Value.store(ChunkProgress::Running,
                            std::memory_order_seq_cst);
    detail::wake(Progress[C]);
    ChunkResult R = runChunk(Pred[C - 1], Target, C, cursorFor(C),
                             IterBudget);
    R.Stolen = Stolen;
    Results[C] = std::move(R);
    // seq_cst + wake: the resolving thread may have parked on Running
    // (WaitForChunk); when it has not, the wake is one load.
    Progress[C].Value.store(ChunkProgress::Done, std::memory_order_seq_cst);
    detail::wake(Progress[C]);
  }

  /// Iteration cap for speculative chunks the resolving main thread
  /// executes inline. Main is the only writer of the signal words, so
  /// while it runs a chunk nobody can squash that chunk; an unbounded
  /// mis-predicted chunk (stale-pointer cycle) would stall resolution
  /// for Config.MaxSpecIterations. A healthy chunk is about
  /// TotalWork/NumChunks work units (>= its iterations, weights are
  /// >= 1), so 4x that plus slack never cuts real work short; a false
  /// Runaway simply routes the chunk through the normal recovery
  /// requeue -- executed with the full budget once off the main thread.
  uint64_t helpIterBudget() const {
    if (Plan.TotalWork == 0)
      return Config.MaxSpecIterations;
    // Divide by the plan's own chunk count: under adaptive chunking the
    // running invocation executes the chunks its plan cut, which may
    // differ from the freshly chosen PlanChunks.
    const uint64_t Chunks = std::max<uint64_t>(1, Plan.PerThread.size());
    uint64_t Budget = 4 * (Plan.TotalWork / Chunks) + 1024;
    return std::min(Budget, Config.MaxSpecIterations);
  }

  class AsyncInvocation;

  /// Shared admission path of submit()/submitBatch(): one scheduler
  /// request covering all of \p Starts (size 1 for a plain submit).
  std::unique_ptr<AsyncInvocation> submitStarts(std::vector<LiveIn> Starts) {
    assert(!Starts.empty() && "a submission needs at least one start");
    if (InvokeInFlight.exchange(true, std::memory_order_acquire))
      reportFatalError("SpiceLoop::submit/invoke while a previous "
                       "invocation of this loop handle is unresolved; a "
                       "loop is driven by one client thread at a time "
                       "(use one loop per client, many loops per "
                       "runtime)");
    const size_t N = Starts.size();
    Stats.Invocations += N;
    RT->noteSubmitted();
    auto Inv = std::make_unique<AsyncInvocation>(*this, std::move(Starts));
    unsigned ActiveChunks = countLaunchableSpecChunks();
    if (ActiveChunks == 0) {
      // No usable predictions: every element runs the sequential
      // protocol, executed by whoever drives the future. The scheduler
      // is not involved -- no lanes are needed.
      Inv->Phase.store(AsyncInvocation::InvPhase::SeqPending,
                       std::memory_order_release);
    } else {
      Inv->ActiveChunks = ActiveChunks;
      // Before the request enters the scheduler: the driver may start
      // chunk 0 before any grant lands. One invocation per loop is in
      // flight, and only its own chunks write SVA.
      prepareParallel(ActiveChunks);
      Inv->Phase.store(AsyncInvocation::InvPhase::Queued,
                       std::memory_order_release);
      Scheduler::Request R;
      R.RequestedLanes = ActiveChunks;
      R.AllowStealing = oversubscribed();
      R.Priority = Config.Priority;
      R.Owner = std::this_thread::get_id();
      R.Invocations = static_cast<unsigned>(N);
      R.DeadlineMicros = Config.SubmitDeadlineMicros;
      R.LoopTag = this;
      R.LoopCap = Config.MaxQueuedSubmissions;
      R.OnGrant = [I = Inv.get()](WorkerPool::SessionHandle S,
                                  uint64_t Micros) {
        I->onGrant(std::move(S), Micros);
      };
      R.OnDrop = [I = Inv.get()] { I->onDropped(); };
      Inv->Ticket = RT->scheduler().submit(std::move(R));
      if (Inv->Ticket == 0)
        // Admission control shed the request (queue cap under Reject,
        // or DeadlineDrop with a still-full queue): no callback will
        // ever run, and the future resolves to OverloadError when
        // driven. Same thread as the client, so a plain store is safe.
        Inv->Phase.store(AsyncInvocation::InvPhase::Dropped,
                         std::memory_order_release);
    }
    return Inv;
  }

  /// One submitted request -- a single invocation or a whole batch: the
  /// shared state between the future the client holds, the scheduler's
  /// grant/drop callbacks, and the driving thread. Phases: SeqPending
  /// (no predictions, every element runs sequentially in wait()), or
  /// Queued -> Granted (lanes leased, element 0's chunks launched) or
  /// Inline (withdrawn: the driver runs every chunk itself) ->
  /// Resolved, with Dropped replacing both when admission control shed
  /// the request. The driver never waits for a grant: it claims a
  /// still-queued request and runs element 0's chunk 0 at once (see
  /// settle()). Elements execute strictly in submission order on the
  /// driving thread; a lane lease is held across all of them and
  /// released exactly once in finish() -- so an abandoned batch neither
  /// leaks lanes nor double-aborts. onGrant/onDropped may run on a
  /// foreign (lane-releasing) thread; each ends with a release store of
  /// Phase, its last touch of this object, which orders its writes
  /// before the driver's reads.
  class AsyncInvocation final : public detail::FutureImpl<State>,
                                public detail::BatchFutureImpl<State> {
  public:
    AsyncInvocation(SpiceLoop &L, std::vector<LiveIn> Starts)
        : L(L), Starts(std::move(Starts)), Results(this->Starts.size()),
          Errs(this->Starts.size()) {}

    // FutureImpl view (plain submit: a batch of one).
    void wait() noexcept override { resolveThrough(Starts.size() - 1); }
    bool ready() const override {
      return Phase.load(std::memory_order_acquire) == InvPhase::Resolved;
    }
    State take() override { return takeElement(0); }

    // BatchFutureImpl view (submitBatch).
    void waitAll() noexcept override { resolveThrough(Starts.size() - 1); }
    void waitUpTo(size_t I) noexcept override { resolveThrough(I); }
    bool allReady() const override { return ready(); }
    size_t count() const override { return Starts.size(); }

    State takeElement(size_t I) override {
      assert(I < Starts.size() && NextElem > I &&
             "takeElement before the element resolved");
      if (Errs[I]) {
        std::exception_ptr E = std::move(Errs[I]);
        Errs[I] = nullptr;
        std::rethrow_exception(E);
      }
      if (!Results[I])
        reportFatalError("batch element taken twice (each element of a "
                         "SpiceBatchFuture may be consumed once)");
      State S = std::move(*Results[I]);
      Results[I].reset();
      return S;
    }

  private:
    friend class SpiceLoop;

    enum class InvPhase : int {
      SeqPending,
      Queued,
      Granted,
      Inline,
      Dropped,
      Resolved
    };

    /// Grant callback (scheduler): lease in hand, launch element 0's
    /// speculative chunks -- beside chunk 0 when the driver has already
    /// started it -- then publish the session to the driver.
    void onGrant(WorkerPool::SessionHandle S, uint64_t Micros) {
      L.bindChunkBuffers(ActiveChunks, S.get());
      L.launchChunks(*S, ActiveChunks);
      Session = std::move(S);
      QueuedMicros = Micros;
      // Last touch: the driver may destroy this object once it sees
      // Granted.
      Phase.store(InvPhase::Granted, std::memory_order_release);
    }

    /// Drop callback (scheduler deadline sweep): the request left the
    /// admission queue ungranted and unclaimed; the driver sheds it.
    void onDropped() {
      Phase.store(InvPhase::Dropped, std::memory_order_release);
    }

    /// Yield-spins while the request is Queued: a grant or drop that
    /// took it off the queue is publishing, which takes a buffer bind
    /// and a launch, never a wait on other work.
    void awaitPublished() {
      while (Phase.load(std::memory_order_acquire) == InvPhase::Queued)
        std::this_thread::yield();
    }

    /// Driver side, once element 0's chunk 0 has ended (or unwound):
    /// the session the request's speculative chunks run on, or null to
    /// run them inline. A request still queued is withdrawn -- a
    /// deferred grant of zero lanes; a withdraw that loses to a grant
    /// in flight waits for its publication. Moves the request's queue
    /// time into \p Queued, so only element 0 reports it.
    WorkerSession *settle(uint64_t &Queued) {
      if (Phase.load(std::memory_order_acquire) == InvPhase::Queued) {
        if (std::optional<uint64_t> W = L.RT->scheduler().withdraw(Ticket)) {
          QueuedMicros = *W;
          Phase.store(InvPhase::Inline, std::memory_order_relaxed);
        } else {
          awaitPublished();
        }
      }
      Queued = std::exchange(QueuedMicros, 0);
      return Session.get();
    }

    /// Driver core: executes elements NextElem..Last in submission
    /// order, storing each outcome, and finishes the request when the
    /// last element is done. One thread drives a future, so this is
    /// never concurrent with itself. Idempotent past the end.
    void resolveThrough(size_t Last) noexcept {
      if (Phase.load(std::memory_order_acquire) == InvPhase::Resolved)
        return;
      Last = std::min(Last, Starts.size() - 1);
      if (!Began) {
        Began = true;
        // Claim a still-queued request: its chunk 0 starts now and the
        // deadline sweep leaves it alone. A request already off the
        // queue has its grant or drop in flight.
        if (Phase.load(std::memory_order_acquire) == InvPhase::Queued &&
            !L.RT->scheduler().claim(Ticket))
          awaitPublished();
        if (Phase.load(std::memory_order_acquire) == InvPhase::Dropped) {
          // Admission control shed the request. It was one scheduler
          // request, so it sheds as one: every element resolves to the
          // same overload outcome.
          std::exception_ptr E = std::make_exception_ptr(OverloadError(
              "submission shed by the runtime's admission control "
              "(queue cap under OverloadPolicy::Reject, or deadline "
              "expiry under OverloadPolicy::DeadlineDrop)"));
          for (size_t I = 0; I != Starts.size(); ++I)
            Errs[I] = E;
          NextElem = Starts.size();
        }
      }
      while (NextElem <= Last) {
        size_t I = NextElem;
        try {
          Results[I] = runElement(I);
        } catch (...) {
          // Stored per element, surfaced by get(); swallowed by an
          // abandoning destructor. Workers have no unwind path by
          // design, so this is always the client's own callable
          // throwing on this thread -- the session was joined on the
          // unwind (SessionJoiner) and the batch continues with the
          // next element.
          Errs[I] = std::current_exception();
        }
        NextElem = I + 1;
      }
      if (NextElem == Starts.size())
        finish();
    }

    /// One element's execution on the driving thread. Element 0 of a
    /// parallel request resolves the chunks launched at grant time (or
    /// inline); every later element re-launches the held session -- or
    /// runs inline again -- against the predictions its predecessor
    /// refreshed, or runs sequentially when none are valid (lanes idle
    /// for that element, but order is preserved).
    State runElement(size_t I) {
      if (Phase.load(std::memory_order_relaxed) == InvPhase::SeqPending)
        return L.invokeSequential(Starts[I]);
      unsigned Active = ActiveChunks;
      if (I > 0) {
        Active = L.countLaunchableSpecChunks();
        if (Active == 0)
          return L.invokeSequential(Starts[I]);
        L.prepareParallel(Active);
        if (Session) {
          // The leased workers are parked between elements (the previous
          // element joined them), so reopening the deques is race-free.
          Session->reopenQueues();
          L.bindChunkBuffers(Active, Session.get());
          L.launchChunks(*Session, Active);
        }
      }
      return L.resolveParallel(*this, Starts[I], Active);
    }

    /// Exactly-once completion of the whole request: release the lane
    /// lease (offering deferred grants), clear the loop's in-flight
    /// flag, and publish Resolved.
    void finish() noexcept {
      Session.reset();
      L.InvokeInFlight.store(false, std::memory_order_release);
      L.RT->noteResolved();
      Phase.store(InvPhase::Resolved, std::memory_order_release);
    }

    SpiceLoop &L;
    std::vector<LiveIn> Starts; ///< One per element, submission order.
    unsigned ActiveChunks = 0;  ///< Element 0's launchable chunks.
    uint64_t Ticket = 0;        ///< Admission-queue id (claim/withdraw).
    WorkerPool::SessionHandle Session;
    uint64_t QueuedMicros = 0;
    std::atomic<InvPhase> Phase{InvPhase::SeqPending};
    std::vector<std::optional<State>> Results; ///< Per-element outcome.
    std::vector<std::exception_ptr> Errs;      ///< Per-element error.
    size_t NextElem = 0; ///< Next element to execute (driver only).
    bool Began = false;  ///< Driver entered resolution (driver only).
  };

  /// Per-invocation setup: snapshot the predictions into PredArena
  /// (memoization overwrites SVA during the run) and reset the per-chunk
  /// machinery. Runs on the thread that submits the request (for later
  /// batch elements, the driver) before any chunk starts; the scheduler
  /// mutex orders it before a grant callback, whose launch publishes it
  /// to the workers. One invocation per loop is in flight at a time
  /// (InvokeInFlight), so the loop-owned arena is safe and its capacity
  /// is reused by every invocation.
  void prepareParallel(unsigned ActiveChunks) {
    PredArena.assign(SVA.begin(), SVA.begin() + ActiveChunks);
    for (unsigned I = 0; I <= ActiveChunks; ++I) {
      Signals[I].store(ChunkSignal::Run, std::memory_order_relaxed);
      Progress[I].Value.store(ChunkProgress::Queued,
                              std::memory_order_relaxed);
      specBuf(I).clear();
      Results[I].reset();
    }
  }

  /// The write buffer chunk \p C runs against this invocation: the
  /// loop-owned buffer by default, or a node-local pool buffer while a
  /// NUMA binding is active (bindChunkBuffers).
  SpecWriteBuffer &specBuf(unsigned C) { return *BufPtrs[C]; }

  /// NUMA half of a launch: when the runtime runs a multi-node
  /// placement, each speculative chunk draws its SpecWriteBuffer from
  /// the shard of the node owning the chunk's home lane, so a chunk's
  /// speculative writes -- and the commit chain's reads of them -- stay
  /// in node-local memory. Without placement (or for the sequential
  /// chunk 0, which buffers nothing) the loop-owned buffers are used
  /// unchanged and this is a no-op. Balanced by releaseChunkBuffers.
  void bindChunkBuffers(unsigned ActiveChunks, WorkerSession *S) {
    if (!S || S->lanes() == 0 || !RT->pool().hasBufferShards())
      return;
    const unsigned Lanes = S->lanes();
    for (unsigned C = 1; C <= ActiveChunks; ++C) {
      unsigned Node = S->laneNode(homeLane(C, Lanes));
      SpecWriteBuffer *B = RT->pool().acquireSpecBuffer(Node);
      // Pool buffers serve every loop of the runtime: take this loop's
      // read-logging mode with the draw.
      B->setLogReads(Config.EnableConflictDetection);
      DrawnBufs.emplace_back(Node, B);
      BufPtrs[C] = B;
    }
  }

  /// Returns pool-drawn buffers to their node shards (cleared, so the
  /// next borrower starts empty) and repoints every chunk at its
  /// loop-owned buffer. Runs only after the session is joined -- no
  /// worker can still be writing through BufPtrs.
  void releaseChunkBuffers() {
    if (DrawnBufs.empty())
      return;
    for (size_t C = 0; C != BufPtrs.size(); ++C)
      BufPtrs[C] = &Buffers[C];
    for (auto &[Node, B] : DrawnBufs) {
      B->clear();
      RT->pool().releaseSpecBuffer(Node, B);
    }
    DrawnBufs.clear();
  }

  /// Grant-side launch: queue the speculative chunks on the granted
  /// lanes and wake the leased workers. With a sole client the
  /// session holds min(pool size, ActiveChunks) lanes, the pre-scheduler
  /// schedule; a capped grant simply queues more chunks per lane. The
  /// job context (session pointer, active count, PredArena) lives in the
  /// loop so the lambda captures only `this` -- small enough for
  /// std::function's inline storage, so a launch never heap-allocates.
  ///
  /// At an effective k of 1 nothing is pushed after launch (no recovery
  /// requeue, no main-thread help), so the deques close right here: each
  /// worker's job returns as soon as its queued chunks are done, and the
  /// final join is normally a single read of a counter already at 0.
  void launchChunks(WorkerSession &S, unsigned ActiveChunks) {
    const unsigned Lanes = S.lanes();
    for (unsigned C = 1; C <= ActiveChunks; ++C)
      S.pushChunk(homeLane(C, Lanes), C);
    if (!oversubscribed())
      S.closeQueues();
    Launch.S = &S;
    Launch.ActiveChunks = ActiveChunks;
    S.launch([this](unsigned Lane) {
      uint32_t C;
      bool Stolen;
      while (Launch.S->acquireChunk(Lane, C, Stolen))
        executeChunk(C, PredArena, Launch.ActiveChunks, Stolen,
                     Config.MaxSpecIterations);
    });
  }

  /// Driver side of one parallel invocation (one batch element): chunk
  /// 0, the ordered commit chain, recovery, and the per-invocation
  /// bookkeeping. Runs on the thread driving the future. Chunk 0 starts
  /// at once; then \p Inv settles the session: the lease whose workers
  /// have run the speculative chunks since their launch (at the grant,
  /// possibly mid-chunk-0), or none when the request was withdrawn. The
  /// driver then runs chunks 1..ActiveChunks itself, each promoted
  /// before it starts, so it runs direct from its first segment head
  /// and commits with the rows and counters a committed speculative
  /// chunk records. The session is *borrowed*: the request keeps the
  /// lease afterwards (a batch re-launches it element by element) and
  /// releases it exactly once when the whole request completes
  /// (AsyncInvocation::finish). On exit -- normal or unwinding -- the
  /// leased workers are joined and the queues closed, so the caller may
  /// reopen and re-launch.
  State resolveParallel(AsyncInvocation &Inv, const LiveIn &Start,
                        unsigned ActiveChunks) {
    const auto ResolveStart = std::chrono::steady_clock::now();
    const std::vector<LiveIn> &Pred = PredArena;
    const SpiceStats Before = Stats;
    const unsigned PlanChunksBefore = PlanChunks;
    // Oversubscription only changes behavior when there can be more
    // chunks than workers; an effective k of 1 must reproduce the
    // paper's fixed chunk-per-thread schedule exactly. Same answer as at
    // launch: the controller only moves k after the join below.
    const bool Oversubscribed = oversubscribed();
    // If a Traits callable throws mid-invocation, the lanes must still be
    // joined before the handle returns them to the shared pool -- a
    // session destroyed with its job in flight would lease busy workers
    // to other loops. An unwind out of chunk 0 settles first, so a grant
    // that landed meanwhile is joined too. Squash the orphaned chunks
    // and drain; idempotent on the normal path (queues already closed,
    // wait a no-op). At k=1 the queues were closed at launch, so this
    // only joins.
    struct SessionJoiner {
      SpiceLoop &L;
      AsyncInvocation &Inv;
      unsigned ActiveChunks;
      bool Settled = false;
      WorkerSession *S = nullptr;
      uint64_t QueuedMicros = 0;
      WorkerSession *settle() {
        Settled = true;
        return S = Inv.settle(QueuedMicros);
      }
      ~SessionJoiner() {
        if (!Settled)
          settle();
        if (!S)
          return; // Inline: no chunk was launched.
        for (unsigned I = 0; I <= ActiveChunks; ++I)
          L.Signals[I].store(ChunkSignal::Abort, std::memory_order_relaxed);
        S->closeQueues();
        S->wait();
        // Safe only here: the join above is what guarantees no worker
        // still writes through the chunk buffers.
        L.releaseChunkBuffers();
      }
    } Joiner{*this, Inv, ActiveChunks};
    Results[0] = runChunk(Start, &Pred[0], /*ChunkIdx=*/0,
                          cursorFor(0), Config.MaxSpecIterations);
    WorkerSession *const Session = Joiner.settle();
    const unsigned Lanes = Session ? Session->lanes() : 0;
    const uint64_t QueuedMicros = Joiner.QueuedMicros;
    Stats.LaunchedSpecThreads += ActiveChunks;
    Stats.QueuedMicros += QueuedMicros;
    Stats.GrantedLanes += Lanes;

    // Waits for chunk C to finish. Inline, it runs C instead: C is
    // already promoted, so it runs direct from its first segment head.
    // In oversubscribed mode the main thread makes itself useful by
    // draining pending chunks while it waits. A
    // helped chunk whose start is already validated (P == C) gets the
    // full budget; a still-speculative one is clamped so main can never
    // be wedged inside a chunk only it could abort. Once nothing is
    // pending -- only main pushes, so nothing will be -- C is queued on or
    // running on a worker. Main spins, then parks, until C starts, then
    // yield-spins for up to detail::YieldBeforePark and parks again until
    // C is done. Most chunks end inside the yield window, where waking a
    // parked main would add a full wake-up (about 50 us on a KVM guest);
    // a chunk that runs on beside main for longer (a buffered chunk
    // finishing well after chunk 0) would otherwise cost main's CPU for
    // its whole remaining length.
    auto WaitForChunk = [&](unsigned C) {
      if (!Session) {
        // No thread waits on C's progress word: run it bare.
        Results[C] = runChunk(Pred[C - 1],
                              C < ActiveChunks ? &Pred[C] : nullptr, C,
                              cursorFor(C), Config.MaxSpecIterations);
        return;
      }
      uint32_t P;
      while (Oversubscribed &&
             Progress[C].Value.load(std::memory_order_acquire) !=
                 ChunkProgress::Done &&
             Session->helpPopFront(P)) {
        ++Stats.MainHelpedChunks;
        executeChunk(P, Pred, ActiveChunks, /*Stolen=*/true,
                     P == C ? Config.MaxSpecIterations : helpIterBudget());
      }
      auto Started = [](ChunkProgress S) { return S != ChunkProgress::Queued; };
      ChunkProgress Now = detail::spinThenPark(Progress[C], Started);
      const auto ParkAt =
          std::chrono::steady_clock::now() + detail::YieldBeforePark;
      while (Now != ChunkProgress::Done) {
        if (std::chrono::steady_clock::now() < ParkAt)
          std::this_thread::yield(); // Lets a preempted worker run on us.
        else
          detail::park(Progress[C], Now);
        Now = Progress[C].Value.load(std::memory_order_acquire);
      }
    };

    // --- Ordered chain resolution (main thread) ---
    // Work/Requeues live in loop-owned arenas: one invocation is in
    // flight per loop, and reusing their capacity keeps the per-submit
    // resolution allocation-free.
    State Merged = std::move(*Results[0]->S);
    WorkArena.assign(PlanChunks, 0);
    std::vector<uint64_t> &Work = WorkArena;
    Work[0] = Results[0]->Work;
    Stats.TotalIterations += Results[0]->Iterations;

    // Release: the promoted chunk's acquire at its segment head makes
    // every committed store (chunk 0's direct ones included) visible.
    auto Promote = [&](unsigned J) {
      Signals[J].store(ChunkSignal::Promote, std::memory_order_release);
    };
    bool PrevMatched = Results[0]->Status == ChunkStatus::Matched;
    if (PrevMatched)
      Promote(1);
    unsigned Committed = 0;     // Highest committed speculative chunk.
    unsigned RecoverFrom = ~0u; // Chunk to re-execute serially (legacy).
    bool AnyFailure = false;    // A validated chunk failed and was redone.
    RequeueArena.assign(ActiveChunks + 1, 0);
    std::vector<unsigned> &Requeues = RequeueArena;
    for (unsigned J = 1; J <= ActiveChunks;) {
      if (!PrevMatched) {
        // Chunk J's start was never seen: mis-speculation. Squash.
        Signals[J].store(ChunkSignal::Abort, std::memory_order_relaxed);
        ++J;
        continue;
      }
      // Chunk J's start was validated and J promoted, so it terminates
      // by itself.
      WaitForChunk(J);
      ChunkResult &R = *Results[J];
      bool Healthy =
          R.Status == ChunkStatus::Matched || R.Status == ChunkStatus::Exited;
      // A promoted chunk validated and published its buffer itself.
      bool ReadsOk = R.Status != ChunkStatus::Conflict &&
                     (R.Promoted || !Config.EnableConflictDetection ||
                      specBuf(J).validateReads());
      if (!Healthy || !ReadsOk) {
        assert(Session && "an inline chunk runs promoted and cannot fail");
        if (!ReadsOk)
          ++Stats.ConflictSquashes;
        AnyFailure = true;
        if (Oversubscribed && Requeues[J] < Config.MaxRecoveryRequeues) {
          // Steal-aware recovery: discard the failed execution and
          // re-enqueue the chunk from its validated start. Successors
          // keep running -- their own commit-time validation decides
          // whether their work survives the redone chunk.
          ++Requeues[J];
          ++Stats.RecoveryChunks;
          ++Stats.SquashedThreads;
          Stats.WastedIterations += R.Iterations;
          if (R.Stolen)
            ++Stats.StolenChunks;
          for (unsigned Row : R.WrittenRows)
            RowValid[Row] = 0;
          specBuf(J).clear();
          Results[J].reset();
          Progress[J].Value.store(ChunkProgress::Queued,
                                  std::memory_order_relaxed);
          // Still the oldest chunk: the re-execution runs direct from
          // its first segment head.
          Promote(J);
          // Front of the lane: J blocks the whole commit chain, so it
          // must run before any more-speculative pending chunk.
          Session->pushChunkFront(homeLane(J, Lanes), J);
          continue; // Same J: wait for the recovery execution.
        }
        // Paper protocol (and oversubscribed last resort): everything
        // from J on is redone sequentially by the main thread.
        RecoverFrom = J;
        PrevMatched = false;
        Signals[J].store(ChunkSignal::Abort, std::memory_order_relaxed);
        ++J;
        continue;
      }
      if (R.Promoted)
        ++Stats.PromotedChunks;
      else
        specBuf(J).commit();
      T.combine(Merged, std::move(*R.S));
      Work[J] = R.Work;
      Stats.TotalIterations += R.Iterations;
      if (Requeues[J] > 0) {
        // This was a recovery execution: its iterations are re-executed
        // work, exactly like the paper's serial recovery accounts them.
        Stats.RecoveryIterations += R.Iterations;
        if (R.Stolen)
          ++Stats.StolenRecoveryChunks;
      }
      Committed = J;
      PrevMatched = R.Status == ChunkStatus::Matched;
      ++J;
      if (PrevMatched && J <= ActiveChunks)
        Promote(J);
    }
    // Exhaustiveness: the chain either commits through a chunk that
    // Exited (loop complete), stops at a squash whose predecessor Exited
    // (also complete: the predecessor covered the remainder), or stops at
    // an unhealthy validated chunk (RecoverFrom set). The last active
    // chunk has no detection target, so it can never end Matched.
    bool NeedRecovery = RecoverFrom != ~0u;
    if (NeedRecovery)
      Merged = runRecovery(std::move(Merged), Pred[RecoverFrom - 1], Work,
                           RecoverFrom);

    if (Session) {
      Session->closeQueues();
      Session->wait(); // The request's finish() returns the leased lanes.
      // Steal locality: fold this element's deque counters into the loop
      // stats now (before the LastStats snapshot below); the exchange
      // leaves the session's counters at zero for the next batch element.
      const detail::ChunkDeques::StealCounters SC =
          Session->takeStealCounters();
      Stats.LocalSteals += SC.Local;
      Stats.RemoteSteals += SC.Remote;
    }

    // Post-join bookkeeping: wasted work and stale rows of dead chunks.
    bool AnySquash = AnyFailure;
    for (unsigned J = Committed + 1; J <= ActiveChunks; ++J) {
      AnySquash = true;
      ++Stats.SquashedThreads;
      if (!Results[J])
        continue; // Squashed inline before it started.
      ChunkResult &R = *Results[J];
      Stats.WastedIterations += R.Iterations;
      specBuf(J).clear();
      for (unsigned Row : R.WrittenRows)
        RowValid[Row] = 0; // Memoized by a dead chunk: untrustworthy.
    }
    for (unsigned J = 1; J <= ActiveChunks; ++J)
      if (Results[J] && Results[J]->Stolen)
        ++Stats.StolenChunks;

    if (AnySquash)
      ++Stats.MisspeculatedInvocations;
    else
      ++Stats.FullySpeculativeInvocations;

    // Load balance: only meaningful for fully validated invocations. The
    // metric is re-derived from chunk granularity: the observed per-chunk
    // work is list-scheduled onto the invocation's execution contexts
    // (deterministic model of the work-stealing scheduler); with one
    // chunk per thread this reduces to the paper's max-chunk ratio.
    if (!AnySquash) {
      uint64_t Total = 0, MaxChunk = 0;
      for (unsigned J = 0; J <= ActiveChunks; ++J) {
        Total += Work[J];
        MaxChunk = std::max(MaxChunk, Work[J]);
      }
      if (Total > 0) {
        // The invocation's real execution contexts: the leased lanes
        // plus the resolving main thread. With a sole client this equals
        // min(NumThreads, ActiveChunks + 1), the pre-runtime value;
        // under pool contention it reflects the partition actually held
        // (the driver alone for an inline run).
        unsigned ExecUnits = Lanes + 1;
        ChunkWorkArena.assign(Work.begin(),
                              Work.begin() + ActiveChunks + 1);
        uint64_t Makespan = listScheduleMakespan(ChunkWorkArena, ExecUnits);
        double Ideal =
            static_cast<double>(Total) / static_cast<double>(ExecUnits);
        Stats.ImbalanceSum += static_cast<double>(Makespan) / Ideal;
        ++Stats.ImbalanceSamples;
        double IdealChunk = static_cast<double>(Total) /
                            static_cast<double>(ActiveChunks + 1);
        Stats.ChunkImbalanceSum +=
            static_cast<double>(MaxChunk) / IdealChunk;
        ++Stats.ChunkImbalanceSamples;
      }
    }

    // Feedback: marginal throughput to the scheduler's lane-rate EWMA
    // (fed under every policy so LanePolicy::Adaptive starts warm), and
    // the invocation's counter deltas to the chunk controller, which may
    // move PlanChunks for the *next* plan.
    const uint64_t ResolveMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - ResolveStart)
            .count());
    RT->scheduler().noteThroughput(
        this, Stats.TotalIterations - Before.TotalIterations, Lanes,
        ResolveMicros);
    if (Controller) {
      InvocationSample Sample;
      Sample.Iterations = Stats.TotalIterations - Before.TotalIterations;
      Sample.RecoveryIterations =
          Stats.RecoveryIterations - Before.RecoveryIterations;
      Sample.WastedIterations =
          Stats.WastedIterations - Before.WastedIterations;
      Sample.StolenChunks = Stats.StolenChunks - Before.StolenChunks;
      Sample.QueuedMicros = QueuedMicros;
      if (Stats.ImbalanceSamples > Before.ImbalanceSamples)
        Sample.LoadImbalance = Stats.ImbalanceSum - Before.ImbalanceSum;
      if (Stats.ChunkImbalanceSamples > Before.ChunkImbalanceSamples)
        Sample.ChunkImbalance =
            Stats.ChunkImbalanceSum - Before.ChunkImbalanceSum;
      setEffectiveK(Controller->onInvocation(Sample));
    }

    // The first validated invocation after a k move cuts the next plan
    // against the rows it recorded, which the next invocation runs.
    if (PlanCutAtMove && !AnySquash && workAtRecordedRows(Work, ActiveChunks))
      PlanCutAtMove = false;
    PlanCutAtMove |= PlanChunks != PlanChunksBefore;
    planNext(Work);
    LastStats = Stats;
    return Merged;
  }

  /// After a k move the plan that ran was cut for PlanChunks chunks
  /// while the invocation ran the old granularity's boundaries, so the
  /// rows it recorded are not the boundaries it ran -- and the next
  /// invocation runs the recorded rows. Rewrites \p Work (the per-chunk
  /// work of a fully validated invocation) into the work each chunk of
  /// the next invocation sees if this invocation's work recurs: a row
  /// chunk J recorded at threshold t lies t past J's start, a row kept
  /// from before at the start of the chunk it predicted. Returns false,
  /// leaving \p Work alone, when a launchable row's position is unknown
  /// or out of order.
  bool workAtRecordedRows(std::vector<uint64_t> &Work,
                          unsigned ActiveChunks) {
    constexpr uint64_t Unknown = UINT64_MAX;
    std::vector<uint64_t> Pos(SVA.size(), Unknown);
    uint64_t Start = 0;
    for (unsigned J = 0; J < ActiveChunks; ++J)
      Pos[J] = Start += Work[J]; // Row J predicted chunk J+1's start.
    Start = 0;
    for (unsigned J = 0; J <= ActiveChunks; ++J) {
      for (unsigned Row : Results[J]->WrittenRows)
        for (const MemoEntry &E : Plan.PerThread[J])
          if (E.Row == Row)
            Pos[Row] = Start + E.Threshold;
      Start += Work[J];
    }
    const unsigned Next = countLaunchableSpecChunks();
    uint64_t Prev = 0;
    for (unsigned Row = 0; Row != Next; ++Row) {
      if (Pos[Row] == Unknown || Pos[Row] < Prev || Pos[Row] > Start)
        return false;
      Prev = Pos[Row];
    }
    Work.resize(Next + 1);
    Prev = 0;
    for (unsigned Row = 0; Row != Next; ++Row) {
      Work[Row] = Pos[Row] - Prev;
      Prev = Pos[Row];
    }
    Work[Next] = Start - Prev;
    return true;
  }

  /// Sequential re-execution from \p From to the natural exit after a
  /// validated chunk produced an unusable result. Runs concurrently with
  /// doomed speculative chunks (which only touch private buffers).
  State runRecovery(State Merged, LiveIn LI, std::vector<uint64_t> &Work,
                    unsigned FailedChunk) {
    State S = T.initialState();
    SpecSpace Direct;
    uint64_t Iters = 0;
    while (T.step(LI, S, Direct))
      ++Iters;
    T.combine(Merged, std::move(S));
    // Positionally, the redone iterations replace the failed chunk's
    // segment (and everything after it).
    Work[FailedChunk] = Iters;
    Stats.RecoveryIterations += Iters;
    Stats.TotalIterations += Iters;
    return Merged;
  }

  /// Home lane of speculative chunk \p C: round-robin over the launched
  /// lanes, so early chunks sit at the front of distinct deques.
  static unsigned homeLane(unsigned C, unsigned Lanes) {
    return (C - 1) % Lanes;
  }

  MemoCursor cursorFor(unsigned ChunkIdx) {
    if (Plan.PerThread.size() <= ChunkIdx)
      return MemoCursor();
    return MemoCursor(&Plan.PerThread[ChunkIdx]);
  }

  /// True when the next launch runs more than one chunk per thread: the
  /// deques stay open for recovery requeues and main-thread help, and
  /// workers may steal. False reproduces the paper's schedule.
  bool oversubscribed() const { return effectiveK() > 1; }

  /// Effective chunks per thread the next invocation plans for: the
  /// controller's pick under ChunkPolicy::Adaptive, the pinned k
  /// otherwise.
  unsigned effectiveK() const {
    return Controller ? Controller->currentK()
                      : Config.maxChunksPerThread();
  }

  /// Applies a controller decision: retarget the next plan at \p K
  /// chunks per thread. On a shrink, SVA rows at and beyond the new last
  /// chunk are stale boundaries and are invalidated -- chunk boundaries
  /// 0..PlanChunks-2 stay valid, so the next invocation still runs fully
  /// parallel (with one transiently fat last chunk the fresh plan then
  /// rebalances). On a grow, rows beyond the old range are already
  /// invalid and fill in naturally once the wider plan has run: the new
  /// granularity takes full effect one invocation later.
  void setEffectiveK(unsigned K) {
    const unsigned NewPlanChunks = std::min(
        NumChunks, std::max(1u, Config.NumThreads * std::max(1u, K)));
    if (NewPlanChunks == PlanChunks)
      return;
    if (NewPlanChunks < PlanChunks)
      for (size_t Row = NewPlanChunks > 0 ? NewPlanChunks - 1 : 0;
           Row < RowValid.size(); ++Row)
        RowValid[Row] = 0;
    PlanChunks = NewPlanChunks;
  }

  /// Central predictor component: plan the next invocation's memoization.
  void planNext(const std::vector<uint64_t> &Work) {
    if (Config.NumThreads < 2)
      return;
    if (!Config.RememoizeEveryInvocation && !Plan.empty() &&
        Plan.PerThread.size() == PlanChunks)
      return; // Memoize-once: keep the plan while the granularity holds.
              // A controller retarget (PlanChunks moved) still recuts --
              // the old boundaries describe chunks that no longer exist,
              // and without the recut an adaptive probe would execute the
              // old granularity and read as a no-op.
    PadScratch.assign(Work.begin(), Work.end());
    std::vector<uint64_t> &Padded = PadScratch;
    if (Padded.size() > PlanChunks) {
      // Shrink transition: the finished invocation ran more chunks than
      // the next plan targets. The next invocation's last chunk covers
      // every span from PlanChunks-1 on (its boundary rows were just
      // invalidated), so fold that work into it -- the plan's recording
      // points then land inside chunks that will actually run.
      for (size_t J = PlanChunks; J < Padded.size(); ++J)
        Padded[PlanChunks - 1] += Padded[J];
      Padded.resize(PlanChunks);
    }
    Padded.resize(PlanChunks, 0);
    // In-place replan: the plan's per-chunk lists keep their capacity,
    // so the steady-state replan after every invocation is
    // allocation-free.
    planMemoizationInto(Padded, PlanChunks, Plan);
  }

  /// Delegation target of both public constructors: \p Owned is the
  /// private runtime of a legacy-constructed loop (null when registering
  /// on a shared one).
  SpiceLoop(Traits &T, const LoopOptions &Opts,
            std::unique_ptr<SpiceRuntime> Owned,
            SpiceRuntime *Shared = nullptr)
      : T(T), OwnedRT(std::move(Owned)),
        RT(Shared ? Shared : OwnedRT.get()), Opts(validated(Opts)),
        Config(mergedConfig(RT->config(), this->Opts)),
        NumChunks(Config.numChunks()), PlanChunks(NumChunks),
        Sampler(std::max(Config.BootstrapCapacity,
                         static_cast<size_t>(2 * NumChunks))),
        SVA(NumChunks > 1 ? NumChunks - 1 : 0), RowValid(SVA.size(), 0),
        Buffers(NumChunks),
        Signals(std::make_unique<std::atomic<ChunkSignal>[]>(NumChunks)),
        Progress(std::make_unique<detail::ParkWord<ChunkProgress>[]>(
            NumChunks)),
        Results(NumChunks) {
    BufPtrs.reserve(Buffers.size());
    for (SpecWriteBuffer &B : Buffers) {
      B.setLogReads(Config.EnableConflictDetection);
      BufPtrs.push_back(&B);
    }
    // NumChunks (and every invocation-sized structure above) is sized
    // for the policy's largest k; adaptive loops start at MinK and the
    // controller moves PlanChunks within the allocation.
    if (Config.adaptiveChunking() && Config.NumThreads > 1) {
      ChunkControllerConfig CC;
      CC.MinK = Config.Chunking.MinK;
      CC.MaxK = Config.Chunking.MaxK;
      CC.EpochInvocations = Config.Chunking.EpochInvocations;
      Controller = std::make_unique<ChunkController>(CC);
      setEffectiveK(Controller->currentK());
    }
    RT->registerLoop();
  }

  /// Registration-time validation of the per-loop options; fatal on a
  /// configuration that previously fell back silently.
  static const LoopOptions &validated(const LoopOptions &Opts) {
    if (Opts.adaptiveChunking()) {
      if (Opts.Chunking.MinK == 0 || Opts.Chunking.MaxK < Opts.Chunking.MinK)
        reportFatalError(
            "ChunkPolicy::Adaptive bounds are invalid at loop "
            "registration: require 1 <= MinK <= MaxK (MinK = 0 or "
            "MaxK < MinK given)");
    } else if (Opts.maxChunksPerThread() == 0) {
      reportFatalError(
          "LoopOptions::ChunksPerThread is 0 at loop registration; the "
          "oversubscription degree must be >= 1 (1 = the paper's one "
          "chunk per thread). The old silent fallback to 1 has been "
          "removed");
    }
    return Opts;
  }

  Traits &T;
  std::unique_ptr<SpiceRuntime> OwnedRT; ///< Legacy ctor only.
  SpiceRuntime *RT;                      ///< Never null.
  LoopOptions Opts;
  SpiceConfig Config; ///< Effective view: runtime threads + Opts.
  unsigned NumChunks; ///< Allocation bound: chunks at the largest k.
  /// Chunks the next invocation's memoization plan targets (== NumChunks
  /// for static policies; moved by the controller inside the allocation
  /// for adaptive ones). Written only between invocations by the thread
  /// driving the loop.
  unsigned PlanChunks;
  BootstrapSampler<LiveIn> Sampler;
  MemoizationPlan Plan;
  std::vector<LiveIn> SVA;
  std::vector<uint8_t> RowValid;
  std::vector<SpecWriteBuffer> Buffers;
  /// Per-chunk buffer indirection: BufPtrs[C] is the buffer chunk C
  /// actually runs against. Normally &Buffers[C]; while a NUMA binding
  /// is active it points at a node-local pool buffer instead
  /// (bindChunkBuffers / releaseChunkBuffers). Same write/publish
  /// discipline as PredArena.
  std::vector<SpecWriteBuffer *> BufPtrs;
  /// (node, buffer) pairs drawn from the pool's node shards for the
  /// in-flight invocation; empty whenever no invocation is bound.
  std::vector<std::pair<unsigned, SpecWriteBuffer *>> DrawnBufs;
  /// Per-chunk signal word (ChunkSignal), written by the resolving
  /// thread and polled by the chunk at each segment head.
  std::unique_ptr<std::atomic<ChunkSignal>[]> Signals;
  /// Per-chunk progress, written by whoever executes the chunk; the
  /// resolving thread waits on it in WaitForChunk.
  std::unique_ptr<detail::ParkWord<ChunkProgress>[]> Progress;
  std::vector<std::optional<ChunkResult>> Results;
  /// Launch context captured by reference from the worker lambda so the
  /// lambda closes over `this` alone (8 bytes -- fits std::function's
  /// small-buffer storage, so launching chunks never heap-allocates).
  /// Written in launchChunks before WorkerSession::launch, whose bump of
  /// each worker's mailbox publishes it to the workers.
  struct LaunchCtx {
    WorkerSession *S = nullptr;
    unsigned ActiveChunks = 0;
  };
  LaunchCtx Launch;
  /// Reusable per-invocation scratch. Safe as members because at most
  /// one invocation is in flight per loop (InvokeInFlight): written in
  /// prepareParallel/resolveParallel before workers start (ordered by
  /// the scheduler mutex and the mailbox bump in launch), read-only
  /// while chunks run.
  std::vector<LiveIn> PredArena;
  std::vector<uint64_t> WorkArena;
  std::vector<uint64_t> PadScratch;
  std::vector<uint64_t> ChunkWorkArena;
  std::vector<unsigned> RequeueArena;
  SpiceStats Stats;
  /// Snapshot of Stats at the last completed invocation (lastStats()).
  SpiceStats LastStats;
  /// Adaptive chunk-granularity controller; null for static policies.
  /// Driven only between invocations by the thread driving the loop.
  std::unique_ptr<ChunkController> Controller;
  /// The current plan was cut at a k move and no validated invocation
  /// has run it yet (see workAtRecordedRows).
  bool PlanCutAtMove = false;
  /// Guards against overlapping invoke() on one handle (see invoke()).
  std::atomic<bool> InvokeInFlight{false};
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_SPICELOOP_H
