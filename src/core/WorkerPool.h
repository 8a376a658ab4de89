//===- core/WorkerPool.h - Shared workers, leased lane sessions -*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper pre-allocates threads to cores at program entry and wakes them
/// with a new_invocation token per loop invocation, avoiding per-invocation
/// spawn cost. WorkerPool reproduces that: N persistent threads, each
/// waiting on its own cache-line-aligned mailbox. A launch writes the job
/// slot and bumps that worker's sequence number -- a per-worker token, no
/// pool lock, no broadcast. One pool is shared by every loop of a
/// SpiceRuntime, so an invocation no longer owns the threads -- it
/// *leases* them:
///
///   WorkerPool::SessionHandle S = Pool.acquireSession(MaxLanes, Stealing);
///   for (...) S->pushChunk(Lane, Chunk);
///   S->launch([&](unsigned Lane) { ... S->acquireChunk(Lane, ...) ... });
///   ... S->helpPopFront(...) / S->pushChunkFront(...) ...
///   S->closeQueues();
///   S->wait();            // Handle destruction returns the lanes.
///
/// acquireSession() partitions the free workers: it hands out up to
/// MaxLanes of them (blocking only while none are free), so concurrent
/// invocations -- of different loops, from different client threads --
/// split the pool instead of serializing on it. The pool mutex guards
/// only that leasing and the release; launch, chunk hand-off and join
/// never take it. Each session owns its own chunk deques (one lane per
/// leased worker): a worker pops its own lane from the front (oldest,
/// least speculative chunk first) and, when its lane is empty, steals
/// from the back of the session's other lanes (the most speculative
/// chunk, leaving earlier chunks to their owner). The producer (the
/// client thread that acquired the session) may keep pushing chunks --
/// e.g. recovery chunks after a mis-speculation -- until it calls
/// closeQueues(), and may itself drain pending chunks front-first via
/// helpPopFront(). Closing the deques before launch() makes every
/// worker's job return as soon as the queued chunks are done, so wait()
/// usually finds the join already complete. The deque lanes are
/// mutex-guarded: chunks are coarse units of loop work, so queue
/// transfer cost is irrelevant next to chunk execution and the simple
/// locking keeps the protocol easy to reason about (and TSan-clean).
///
/// Every wait on the invocation path -- a worker waiting for its next
/// launch, an acquirer waiting for a chunk, the session's client waiting
/// for a chunk to start or for the join -- goes through
/// detail::spinThenPark: a short bounded spin on one 32-bit word
/// (detail::ParkWord), then a futex park on it, woken by the writer's
/// detail::wake. Nothing on those paths uses a condition variable or the
/// pool mutex. The one wait that may last a whole chunk, the resolving
/// thread's wait for a running chunk (SpiceLoop), yield-spins for
/// detail::YieldBeforePark and then parks on the chunk's progress word.
///
/// Anti-affinity: before it wakes a worker that last ran on the posting
/// thread's CPU, a post takes that CPU out of the worker's CPU mask --
/// the mask the worker recorded right after WorkerStartHook, so
/// placement and user pinning are narrowed, never overridden
/// (keepOffCallerCpu). Left to itself, a virtualized host can keep
/// waking the worker onto the very CPU where the client then runs chunk
/// 0, for minutes at a time, and the two then take turns: the
/// invocation runs serially.
///
/// When the pool is built with a multi-node topology::Placement
/// (docs/topology.md), locality shapes all of this: leases take
/// node-contiguous worker ranges (packing an invocation onto one node,
/// with a trim-to-node rule when no node has enough free lanes), steals
/// scan victims same-core -> same-node -> remote and count their
/// locality (ChunkDeques::takeStealCounters), and released sessions and
/// warm SpecWriteBuffers park on per-node freelist shards so a reused
/// session or buffer is warm in the right node's cache. Without a
/// placement -- or on a single node -- none of it engages and every
/// path below is bit-for-bit the topology-blind behavior.
///
/// The pre-session one-shot API (launch/wait + pool-level queues) is kept
/// for single-client users and tests; it drives workers 0..Count-1
/// directly and may not be mixed with concurrent sessions.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_WORKERPOOL_H
#define SPICE_CORE_WORKERPOOL_H

#include "topology/Placement.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace spice {
namespace core {

class SpecWriteBuffer;
class WorkerPool;

namespace detail {

/// Spin iterations a waiter spends polling before it parks: one pause
/// each, about 20 ns on current x86 cores, so roughly 10 us. Sized on a
/// 4-vCPU KVM guest with the mixed_serving benchmark (~100 us
/// invocations): 512 cut the median latency about as much as 256 or 768
/// without raising CPU time per invocation; 1024 and more bought a few
/// more us of latency for 7-15% more CPU, spent by workers idling
/// between a client's calls.
inline constexpr unsigned SpinBeforePark = 512;

/// How long the resolving thread yield-spins on a chunk that has started
/// before it parks until the chunk is done (SpiceLoop's WaitForChunk).
/// Sized on the same guest: parking after only the SpinBeforePark spin
/// (about 10 us) added a wake-up to most scan_readonly invocations and
/// cost it 3-10%; at 100 us the driver no longer spins through the
/// roughly 1 ms by which a conflict_update chunk outlasts chunk 0.
inline constexpr std::chrono::microseconds YieldBeforePark{100};

/// Iterations a speculative chunk runs between two polls of its signal
/// word (SpiceLoop::runChunk), and so the most a squashed chunk runs on
/// before it stops, or a signalled chunk before it is promoted. At a
/// few ns per otter iteration the poll drops out of the per-iteration
/// cost, and a squashed otter chunk stops within about a microsecond.
inline constexpr uint64_t AbortPollStride = 256;

/// One spin-wait step: a pause hint where the ISA has one.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// A 32-bit word threads park on (spinThenPark) and are woken from
/// (wake). A writer changes Value with a seq_cst operation, then calls
/// wake(). Parked counts the threads inside park(), so waking a word
/// nobody parked on is one load, not a system call.
///
/// On Linux the park is a bare futex wait. libstdc++'s std::atomic::wait
/// first spins with sched_yield, and a thread that yields on a busy host
/// goes to the back of the run queue instead of sleeping: woken workers
/// then started so late that the resolving thread ran whole invocations
/// alone. Elsewhere std::atomic::wait is the fallback.
template <typename T> struct ParkWord {
  static_assert(sizeof(T) == 4 && std::atomic<T>::is_always_lock_free,
                "a futex word is a lock-free 32-bit atomic");
  std::atomic<T> Value{};
  std::atomic<uint32_t> Parked{0};
};

#if defined(__linux__)
/// The futex calls behind park/wake (WorkerPool.cpp): sleep while the
/// 32-bit word at \p Word holds \p Seen, and wake all its sleepers.
void futexWait(const void *Word, uint32_t Seen);
void futexWakeAll(const void *Word);
#endif

/// Blocks while \p W still holds \p Seen; may return spuriously.
template <typename T> void park(ParkWord<T> &W, T Seen) {
  W.Parked.fetch_add(1, std::memory_order_seq_cst);
  if (W.Value.load(std::memory_order_seq_cst) == Seen) {
#if defined(__linux__)
    futexWait(&W.Value, std::bit_cast<uint32_t>(Seen));
#else
    W.Value.wait(Seen, std::memory_order_seq_cst);
#endif
  }
  W.Parked.fetch_sub(1, std::memory_order_relaxed);
}

/// Wakes every thread parked on \p W. Call after the seq_cst write that
/// changed W.Value: the two seq_cst halves (the write then the Parked
/// load here, the Parked increment then the Value load in park) cannot
/// both miss each other, so no wake-up is lost.
template <typename T> void wake(ParkWord<T> &W) {
  if (W.Parked.load(std::memory_order_seq_cst) == 0)
    return;
#if defined(__linux__)
  futexWakeAll(&W.Value);
#else
  W.Value.notify_all();
#endif
}

/// The runtime's single wait mechanism: returns the first value of \p W
/// (acquire load) that \p Ready accepts, polling it SpinBeforePark times
/// before parking.
template <typename T, typename Pred>
T spinThenPark(ParkWord<T> &W, Pred Ready) {
  T V = W.Value.load(std::memory_order_acquire);
  for (unsigned Spins = 0; !Ready(V); ++Spins) {
    if (Spins < SpinBeforePark)
      cpuRelax();
    else
      park(W, V);
    V = W.Value.load(std::memory_order_acquire);
  }
  return V;
}

/// A set of per-lane chunk deques with optional back-stealing. One
/// instance per session (and one pool-level instance for the legacy
/// API); all methods are thread-safe against each other.
class ChunkDeques {
public:
  /// Worker-to-worker steal counts by victim locality, accumulated
  /// since the last takeStealCounters(). Main-thread helpPopFront is
  /// not a steal and counts in neither bucket. Without locality
  /// (setLocality not called since the last reset) every steal is
  /// Local: one node means nothing is remote.
  struct StealCounters {
    uint64_t Local = 0;
    uint64_t Remote = 0;
  };

  /// Prepares \p NumLanes open deques, discarding any previous state
  /// (including locality: the next lease must call setLocality again).
  void reset(unsigned NumLanes, bool AllowStealing);

  /// Installs the steal-locality order for this lease: lane i runs on
  /// pool worker \p Workers[i], whose node and cpu slot \p P knows.
  /// Steals then scan victims same-core -> same-node -> remote (ring
  /// order within each class) instead of the blind ring, and the
  /// counters split by locality. Only between reset() and the first
  /// acquire.
  void setLocality(const topology::Placement &P,
                   const std::vector<unsigned> &Workers);

  /// Clears every lane and lifts a previous close(), keeping the lane
  /// count and stealing mode: the next launch round of a multi-round
  /// session (batch submission). Only valid while no acquirer is active
  /// -- i.e. between a wait() and the next launch(), when the leased
  /// workers are parked.
  void reopen();

  void push(unsigned Lane, uint32_t Chunk);
  void pushFront(unsigned Lane, uint32_t Chunk);

  /// Declares that no further chunks will be pushed; blocked acquirers
  /// drain the remaining chunks and then return false. Idempotent.
  void close();

  /// Worker-side acquire: blocks (spinThenPark on the epoch) until a
  /// chunk is available or the deques are closed and fully drained. Pops
  /// the front of \p Lane's own deque first; otherwise steals from the
  /// back of another lane and sets \p Stolen. Returns false only on
  /// closed-and-empty.
  bool acquire(unsigned Lane, uint32_t &Chunk, bool &Stolen);

  /// Producer-side non-blocking help: pops the oldest pending chunk
  /// across all lanes. Returns false when nothing is pending.
  bool helpPopFront(uint32_t &Chunk);

  /// Pending (not yet acquired) chunks across all lanes.
  size_t pending() const;

  /// Reads and zeroes the steal-locality counters. Only race-free while
  /// no acquirer is active (after a wait(), before the next launch) --
  /// the resolve path reads them once per launch round.
  StealCounters takeStealCounters();

private:
  bool tryAcquire(unsigned Lane, uint32_t &Chunk, bool &Stolen);
  void bumpEpoch();

  /// One per-lane deque. Mutex-guarded; padded indirectly by the
  /// surrounding unique_ptr allocation granularity.
  struct Lane {
    mutable std::mutex M;
    std::deque<uint32_t> Q;
  };

  std::vector<std::unique_ptr<Lane>> Lanes;
  bool Stealing = true;
  std::atomic<bool> Closed{true};
  /// What parked acquirers wait on. Epoch bumps (and wakes) on every
  /// push/close; an acquirer samples it before scanning so a concurrent
  /// push can never be missed. It only needs to differ from the sample,
  /// so wrap-around is harmless.
  ParkWord<uint32_t> Epoch;

  /// Locality state (setLocality). The vectors keep their capacity
  /// across reset() so a recycled session's lease re-fills them without
  /// allocating.
  bool UseLocality = false;
  std::vector<unsigned> LaneNode; ///< lane -> placement node
  std::vector<unsigned> LaneCpu;  ///< lane -> placement cpu slot
  /// Flat victim order: lane i's Lanes.size()-1 victims at offset
  /// i * (Lanes.size() - 1), same-core first, then same-node, then
  /// remote.
  std::vector<unsigned> VictimOrder;
  std::vector<unsigned> OrderScratch; ///< setLocality per-lane scratch.
  std::atomic<uint64_t> LocalSteals{0};
  std::atomic<uint64_t> RemoteSteals{0};
};

} // namespace detail

/// A lease of worker lanes for one invocation: up to MaxLanes workers,
/// partitioned off the shared pool, plus this invocation's private chunk
/// deques. Created by WorkerPool::acquireSession(); destroying the handle
/// returns the workers to the pool. One client thread drives a session
/// (push/launch/help/close/wait); the leased workers run its job.
class WorkerSession {
public:
  /// SessionHandle deleter: returns the lanes and parks the session
  /// object on the pool's freelist for reuse (its deques keep their lane
  /// allocations), instead of destroying it. The pool deletes parked
  /// sessions at teardown.
  struct Recycler {
    void operator()(WorkerSession *S) const;
  };

  ~WorkerSession() {
    assert(!InFlight && "destroying a session with a job still in flight");
  }
  WorkerSession(const WorkerSession &) = delete;
  WorkerSession &operator=(const WorkerSession &) = delete;

  /// Lanes leased to this session (>= 1).
  unsigned lanes() const { return static_cast<unsigned>(Workers.size()); }

  /// Placement node of the worker behind \p Lane; 0 when the pool has
  /// no placement. What the loop's per-chunk buffer draw keys on.
  unsigned laneNode(unsigned Lane) const;

  /// Wakes the leased workers to run Job(LaneIndex), LaneIndex in
  /// [0, lanes()): one mailbox post per leased worker, no pool mutex.
  /// The client thread does not participate and may execute its own
  /// chunk concurrently. Must be paired with wait().
  void launch(std::function<void(unsigned)> Job);

  /// Blocks until every leased worker has finished the launched job
  /// (spinThenPark on the remaining-worker count).
  void wait();

  /// This session's chunk deques (see ChunkDeques; one lane per leased
  /// worker, reset open by acquireSession).
  void pushChunk(unsigned Lane, uint32_t Chunk) { Deques.push(Lane, Chunk); }
  void pushChunkFront(unsigned Lane, uint32_t Chunk) {
    Deques.pushFront(Lane, Chunk);
  }
  void closeQueues() { Deques.close(); }
  /// Reopens the deques for another launch round on the same lease
  /// (batch elements re-launch the session; see SpiceLoop::submitBatch).
  /// Only between wait() and the next launch(), while the leased
  /// workers are parked.
  void reopenQueues() { Deques.reopen(); }
  bool acquireChunk(unsigned Lane, uint32_t &Chunk, bool &Stolen) {
    return Deques.acquire(Lane, Chunk, Stolen);
  }
  bool helpPopFront(uint32_t &Chunk) { return Deques.helpPopFront(Chunk); }
  size_t pendingChunks() const { return Deques.pending(); }

  /// Steal-locality counters of this lease since the last take (see
  /// ChunkDeques::takeStealCounters; read after wait()).
  detail::ChunkDeques::StealCounters takeStealCounters() {
    return Deques.takeStealCounters();
  }

private:
  friend class WorkerPool;
  explicit WorkerSession(WorkerPool &Pool) : Pool(Pool) {}

  WorkerPool &Pool;
  std::vector<unsigned> Workers; ///< Leased worker indices; lane i runs
                                 ///< on worker Workers[i].
  std::thread::id Owner;         ///< Thread that acquired the lease.
  detail::ChunkDeques Deques;
  /// The launched job, stored once per session (not copied per slot).
  /// Written by launch() before the mailbox posts that publish it;
  /// stable until the next launch, which the protocol orders after
  /// wait() -- so workers call it concurrently without copying.
  std::function<void(unsigned)> Job;
  bool InFlight = false; ///< launch() issued, wait() not yet returned.
  /// Workers still running the job. The worker whose decrement reaches
  /// 0 wakes it; wait() spins, then parks on it.
  detail::ParkWord<uint32_t> Remaining;
};

/// Session-freelist counters, read via WorkerPool::sessionPoolStats().
/// A serving workload's steady state is all hits: SessionsCreated stops
/// growing once every concurrency level has been seen.
struct SessionPoolStats {
  /// WorkerSession objects allocated (freelist misses).
  uint64_t SessionsCreated = 0;
  /// Acquisitions served by recycling a parked session -- no session,
  /// deque, or lane allocation.
  uint64_t SessionPoolHits = 0;
};

/// Counters of the pool's per-node SpecWriteBuffer freelist shards
/// (multi-node placement only; see WorkerPool::acquireSpecBuffer).
/// Aggregated across shards by nodeBufferStats().
struct NodeBufferPoolStats {
  /// Buffers allocated (shard freelist misses).
  uint64_t BuffersCreated = 0;
  /// Draws served by a warm buffer from the requested node's shard.
  uint64_t BufferPoolHits = 0;
};

/// Persistent pool of worker threads shared by every loop of a runtime.
/// Invocations lease lanes through sessions; the legacy one-shot API
/// (launch/wait + pool-level queues) drives workers 0..Count-1 directly.
class WorkerPool {
public:
  /// Spawns \p NumWorkers threads; they park immediately. \p
  /// WorkerStartHook, when set, runs once on each worker thread before it
  /// first parks (NUMA / affinity placement); a hook that throws aborts
  /// the process with a diagnostic (the pool cannot run without its
  /// workers). \p Placement, when set, must cover exactly NumWorkers
  /// workers; with more than one node it turns on the locality behavior
  /// described in the file comment.
  explicit WorkerPool(
      unsigned NumWorkers, std::function<void(unsigned)> WorkerStartHook = {},
      std::shared_ptr<const topology::Placement> Placement = nullptr);

  /// Stops and joins all workers. All sessions must have been released.
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  //===--------------------------------------------------------------------===//
  // Placement: the topology view the pool was built with.
  //===--------------------------------------------------------------------===//

  /// The worker placement, or null for a topology-blind pool.
  const topology::Placement *placement() const { return Place.get(); }

  /// Placement nodes the workers span (1 without a placement).
  unsigned numNodes() const { return Place ? Place->numNodes() : 1; }

  /// Home node of worker \p Worker (0 without a placement).
  unsigned nodeOfWorker(unsigned Worker) const {
    return Place ? Place->nodeOfWorker(Worker) : 0;
  }

  /// True when leases, steals, and freelists are node-aware: a
  /// placement with more than one node.
  bool localityActive() const { return Place && Place->numNodes() > 1; }

  /// Snapshot of free (unleased) workers per node into \p Out (sized
  /// numNodes()). The Scheduler's node-packing pass reads this; like
  /// freeWorkers() it is racy by nature.
  void freeWorkersByNode(std::vector<unsigned> &Out) const;

  //===--------------------------------------------------------------------===//
  // Sessions: leased worker lanes for concurrent invocations.
  //===--------------------------------------------------------------------===//

  using SessionHandle =
      std::unique_ptr<WorkerSession, WorkerSession::Recycler>;

  /// Leases min(free workers, MaxLanes) workers as a session, blocking
  /// while no worker is free (concurrent invocations partition the pool;
  /// when they want more lanes than exist, later acquirers wait for the
  /// earlier ones to release). The session's deques are reset open with
  /// one lane per leased worker. Requires a non-empty pool and MaxLanes
  /// >= 1. Destroying the handle returns the lanes. Under a multi-node
  /// placement the lease is node-packed: it comes from one node when a
  /// node has enough free lanes, is trimmed to the largest free node
  /// block when that block covers at least half the ask, and spans
  /// nodes only as a last resort.
  SessionHandle acquireSession(unsigned MaxLanes, bool AllowStealing);

  /// Non-blocking half of the deferred-grant path: leases min(free,
  /// MaxLanes) workers, or returns null when no worker is free. The
  /// lease is accounted to \p Owner -- the thread that will *drive* the
  /// session -- rather than the calling thread, because a deferred grant
  /// executes on whichever thread released the lanes (see
  /// core/Scheduler.h). Self-deadlock diagnostics and the pool's
  /// held-lane bookkeeping key off that owner. \p PreferredNode is the
  /// Scheduler's node-packing hint (Grant::Node): the lease starts on
  /// that node when it still has free lanes; -1 lets the pool pick.
  SessionHandle tryAcquireSessionFor(unsigned MaxLanes, bool AllowStealing,
                                     std::thread::id Owner,
                                     int PreferredNode = -1);

  /// tryAcquireSessionFor with the calling thread as the owner.
  SessionHandle tryAcquireSession(unsigned MaxLanes, bool AllowStealing) {
    return tryAcquireSessionFor(MaxLanes, AllowStealing,
                                std::this_thread::get_id());
  }

  /// Hook invoked (outside the pool mutex) after every session release:
  /// the deferred-grant path. The runtime's Scheduler registers itself
  /// here so freed lanes are offered to queued invocations instead of
  /// only waking blocked acquireSession callers. Must be set before any
  /// session exists and never reassigned afterwards.
  void setReleaseHook(std::function<void()> Hook);

  /// True when the calling thread's sessions lease *every* worker of the
  /// pool: any further blocking acquisition by this thread would be a
  /// certain self-deadlock (only its own stack could free a lane, and it
  /// is about to park). Used by the scheduler's Block-overload
  /// admission wait; always false for an empty pool.
  bool callerHoldsEntirePool() const;

  /// Workers currently not leased to any session (snapshot; racy by
  /// nature, exposed for tests and diagnostics).
  unsigned freeWorkers() const;

  /// Session-freelist counters (see SessionPoolStats). Snapshot under
  /// the pool mutex.
  SessionPoolStats sessionPoolStats() const;

  //===--------------------------------------------------------------------===//
  // Per-node SpecWriteBuffer shards: warm speculative-store buffers that
  // stay node-local. Active only under a multi-node placement
  // (hasBufferShards()); loops fall back to their own buffers otherwise.
  //===--------------------------------------------------------------------===//

  /// True when the pool keeps per-node buffer shards (multi-node
  /// placement): loops should draw chunk buffers from the home lane's
  /// node instead of using their loop-owned (placement-blind) pool.
  bool hasBufferShards() const { return !BufferShards.empty(); }

  /// Draws a buffer from \p Node's shard (allocating on a cold shard).
  /// The buffer may hold a previous draw's contents; clear() before
  /// use. Requires hasBufferShards().
  SpecWriteBuffer *acquireSpecBuffer(unsigned Node);

  /// Returns \p B to \p Node's shard -- the node it was drawn for, so
  /// the warm memory stays with that node's workers.
  void releaseSpecBuffer(unsigned Node, SpecWriteBuffer *B);

  /// Aggregated shard counters (see NodeBufferPoolStats).
  NodeBufferPoolStats nodeBufferStats() const;

  //===--------------------------------------------------------------------===//
  // Legacy one-shot API: drives workers 0..Count-1 with no lease. May not
  // be mixed with concurrent sessions.
  //===--------------------------------------------------------------------===//

  /// Wakes workers 0..Count-1 to run Job(WorkerIndex). The calling thread
  /// does not participate and may do its own chunk concurrently. A launch
  /// must be paired with wait() before the next launch; a re-entrant
  /// launch is a protocol violation and aborts with a diagnostic (it would
  /// otherwise clobber the in-flight job under the workers' feet).
  void launch(unsigned Count, std::function<void(unsigned)> Job);

  /// Blocks until every worker of the current launch has finished.
  void wait();

  /// Pool-level chunk deques backing the legacy API; semantics as in
  /// ChunkDeques. resetQueues must not be called between launch() and
  /// wait().
  void resetQueues(unsigned NumLanes, bool AllowStealing = true);
  void pushChunk(unsigned Lane, uint32_t Chunk);
  void pushChunkFront(unsigned Lane, uint32_t Chunk);
  void closeQueues();
  bool acquireChunk(unsigned Lane, uint32_t &Chunk, bool &Stolen);
  bool helpPopFront(uint32_t &Chunk);
  size_t pendingChunks() const;

private:
  friend class WorkerSession;

  void workerMain(unsigned Index);

  /// Handle-destruction path (WorkerSession::Recycler): returns the
  /// leased lanes, runs the release hook, and parks \p S on the
  /// freelist shard of its first worker's node for reuse instead of
  /// deleting it.
  void recycleSession(WorkerSession *S);

  /// Pops a parked session -- \p Shard's freelist first, then the other
  /// shards -- or allocates a fresh one, bumping the SessionPoolStats
  /// counters. Requires the pool mutex.
  WorkerSession *takeSessionLocked(unsigned Shard);

  /// Node-packing decision for a lease of \p Take lanes (locality
  /// active, pool mutex held): the node to start taking workers from,
  /// and the possibly-trimmed lane count. \p Preferred (a scheduler
  /// grant's node, -1 for none) wins while it has free lanes; otherwise
  /// best-fit (the smallest free block that covers Take), then the
  /// trim-to-node rule: when no node covers Take but the largest free
  /// block covers at least half of it, the lease shrinks to that block
  /// rather than spanning nodes.
  std::pair<unsigned, unsigned> chooseStartNodeLocked(unsigned Take,
                                                      int Preferred) const;

  /// Hands worker \p Worker the job of \p S (null: LegacyJob) on lane
  /// \p Lane and wakes it: the slot writes, keepOffCallerCpu, then a
  /// seq_cst bump of the worker's sequence number and a wake on it.
  /// Lock-free; the caller owns the worker (a lease, or the legacy
  /// no-session rule).
  void post(unsigned Worker, WorkerSession *S, unsigned Lane);

  /// Anti-affinity half of post(): when \p Worker finished its last job
  /// on the CPU the calling thread now runs on, narrows the worker's
  /// mask to the one it recorded at start minus that CPU, before the
  /// wake, so the scheduler cannot place the woken worker where the
  /// caller is about to run chunk 0. One system call, and only then: a
  /// worker that last ran elsewhere keeps its mask. A worker whose
  /// recorded mask has a single CPU, or whose mask could not be set, is
  /// left alone. A no-op off Linux.
  void keepOffCallerCpu(unsigned Worker);

  /// Leases \p Take free workers into \p S on behalf of \p Owner.
  /// Requires the pool mutex and Take <= FreeCount. \p StartNode (-1
  /// without locality) is where the node-contiguous scan begins;
  /// spill-over continues through the remaining nodes by descending
  /// free count.
  void leaseLocked(WorkerSession &S, unsigned Take, std::thread::id Owner,
                   int StartNode);

  /// Per-worker mailbox, one cache line each so a post to one worker
  /// never touches another's line. The worker waits (spinThenPark) for
  /// Seq to move past the last value it consumed; post() writes Session
  /// and Lane first and publishes them with the bump. A worker runs at
  /// most one job at a time: Session is null for legacy launches, and
  /// the job itself lives once in the session (or in LegacyJob).
  struct alignas(64) WorkerSlot {
    detail::ParkWord<uint32_t> Seq;
    WorkerSession *Session = nullptr;
    unsigned Lane = 0;
    bool Leased = false; ///< Guarded by the pool mutex.
    /// keepOffCallerCpu state. Steerable is stored true (release) by the
    /// worker once it recorded a multi-CPU HomeCpus, and false by a
    /// poster whose mask update failed. LastCpu is the CPU the worker
    /// finished its last job on (-1 before its first), stored by the
    /// worker before it reports the job done.
    std::atomic<bool> Steerable{false};
    std::atomic<int> LastCpu{-1};
#if defined(__linux__)
    /// The worker's mask right after WorkerStartHook: what topology
    /// pinning or a user hook chose. Written once, before Steerable.
    cpu_set_t HomeCpus{};
#endif
  };

  /// One node's warm-buffer freelist (multi-node placement only). Own
  /// mutex: buffer draws must not contend with the lease path.
  struct BufferShard {
    std::mutex M;
    std::vector<SpecWriteBuffer *> Free;
    uint64_t Created = 0;
    uint64_t Hits = 0;
  };

  std::vector<std::thread> Threads;
  std::function<void(unsigned)> WorkerStartHook;
  std::shared_ptr<const topology::Placement> Place;
  /// Deferred-grant hook (see setReleaseHook). Written once before any
  /// session exists; read under the pool mutex, invoked outside it.
  std::function<void()> ReleaseHook;

  /// Guards leasing and release (Leased, FreeCount, the freelists); the
  /// launch, chunk and join paths never take it.
  mutable std::mutex Mutex;
  std::condition_variable LeaseCV; ///< acquireSession() callers park here.
  std::vector<WorkerSlot> Slots;
  unsigned FreeCount = 0;
  /// Free workers per placement node (guarded by Mutex; maintained only
  /// while localityActive(), else empty).
  std::vector<unsigned> FreeByNode;
  /// Leased workers per acquiring thread (self-deadlock diagnostic in
  /// acquireSession; keyed by the session's owner, guarded by Mutex).
  std::unordered_map<std::thread::id, unsigned> WorkersHeldByThread;
  /// Legacy launches' job; same single-storage discipline as
  /// WorkerSession::Job.
  std::function<void(unsigned)> LegacyJob;
  detail::ParkWord<uint32_t> LegacyRemaining;
  bool LegacyInFlight = false; ///< Guarded by Mutex.
  /// Set by the destructor before it posts every worker a final wake.
  std::atomic<bool> ShuttingDown{false};
  /// Released sessions parked for reuse, sharded by the node of the
  /// session's first worker -- one shard without locality (guarded by
  /// Mutex; deleted in the pool destructor). Reusing a session reuses
  /// its ChunkDeques lanes and job storage, so the steady-state submit
  /// path allocates no session state at all.
  std::vector<std::vector<WorkerSession *>> FreeSessionShards;
  SessionPoolStats PoolSt;
  /// Per-node warm SpecWriteBuffer freelists (empty without a
  /// multi-node placement; buffers deleted in the pool destructor).
  std::vector<std::unique_ptr<BufferShard>> BufferShards;

  detail::ChunkDeques LegacyDeques;
};

inline unsigned WorkerSession::laneNode(unsigned Lane) const {
  return Pool.nodeOfWorker(Workers[Lane]);
}

} // namespace core
} // namespace spice

#endif // SPICE_CORE_WORKERPOOL_H
