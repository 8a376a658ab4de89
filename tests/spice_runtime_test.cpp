//===- tests/spice_runtime_test.cpp - Shared-runtime API tests ------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The SpiceRuntime API: one shared WorkerPool serving many loops, worker
// lane leasing (WorkerPool sessions), concurrent invocations from
// different client threads (run under TSan in CI), the bit-for-bit
// equivalence of the legacy one-pool-per-loop constructor, and the
// LoopBuilder lambda front-end.
//
//===----------------------------------------------------------------------===//

#include "core/LoopBuilder.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "topology/Placement.h"
#include "topology/Topology.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

//===----------------------------------------------------------------------===//
// WorkerPool sessions: lane leasing
//===----------------------------------------------------------------------===//

TEST(WorkerSession, LeasesUpToMaxLanesAndReturnsThem) {
  WorkerPool Pool(4);
  EXPECT_EQ(Pool.freeWorkers(), 4u);
  {
    WorkerPool::SessionHandle S = Pool.acquireSession(3, true);
    EXPECT_EQ(S->lanes(), 3u);
    EXPECT_EQ(Pool.freeWorkers(), 1u);
  }
  EXPECT_EQ(Pool.freeWorkers(), 4u) << "handle destruction releases lanes";
}

TEST(WorkerSession, ConcurrentSessionsPartitionThePool) {
  WorkerPool Pool(4);
  WorkerPool::SessionHandle A = Pool.acquireSession(3, true);
  WorkerPool::SessionHandle B = Pool.acquireSession(3, true);
  EXPECT_EQ(A->lanes(), 3u);
  EXPECT_EQ(B->lanes(), 1u) << "second session gets what is left";
  EXPECT_EQ(Pool.freeWorkers(), 0u);
}

TEST(WorkerSession, AcquireBlocksUntilALaneIsFree) {
  WorkerPool Pool(2);
  WorkerPool::SessionHandle A = Pool.acquireSession(2, true);
  std::atomic<bool> Acquired{false};
  std::thread Client([&] {
    WorkerPool::SessionHandle B = Pool.acquireSession(1, true);
    Acquired.store(true);
  });
  // The pool is fully leased: the second client must wait for release.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Acquired.load());
  A.reset();
  Client.join();
  EXPECT_TRUE(Acquired.load());
  EXPECT_EQ(Pool.freeWorkers(), 2u);
}

TEST(WorkerSession, RunsJobOncePerLaneWithSessionQueues) {
  WorkerPool Pool(3);
  WorkerPool::SessionHandle S = Pool.acquireSession(3, true);
  std::vector<std::atomic<int>> Hits(30);
  for (uint32_t C = 0; C != 30; ++C)
    S->pushChunk(C % 3, C);
  S->closeQueues();
  S->launch([&](unsigned Lane) {
    uint32_t C;
    bool Stolen;
    while (S->acquireChunk(Lane, C, Stolen))
      Hits[C].fetch_add(1);
  });
  S->wait();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  EXPECT_EQ(S->pendingChunks(), 0u);
}

TEST(WorkerSession, TwoSessionsRunJobsConcurrently) {
  WorkerPool Pool(2);
  WorkerPool::SessionHandle A = Pool.acquireSession(1, false);
  WorkerPool::SessionHandle B = Pool.acquireSession(1, false);
  // Rendezvous across sessions: each job waits (bounded) for the other,
  // which only terminates if both sessions really run at the same time.
  std::atomic<int> Arrived{0};
  auto Rendezvous = [&](unsigned) {
    Arrived.fetch_add(1);
    for (int I = 0; I != 1'000'000 && Arrived.load() < 2; ++I)
      std::this_thread::yield();
  };
  A->launch(Rendezvous);
  B->launch(Rendezvous);
  A->wait();
  B->wait();
  EXPECT_EQ(Arrived.load(), 2);
}

TEST(WorkerSessionDeathTest, NestedBlockingAcquireAborts) {
  // A thread that holds a session and would block acquiring another from
  // the same pool can only be woken by its own stack: that self-deadlock
  // must die with a diagnostic instead of hanging.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WorkerPool Pool(2);
        WorkerPool::SessionHandle A = Pool.acquireSession(2, true);
        WorkerPool::SessionHandle B = Pool.acquireSession(1, true);
      },
      "deadlock");
}

TEST(WorkerSession, NestedAcquireWaitsWhenOtherThreadsHoldLanes) {
  // Counterpart of the death test: a nested acquire while ANOTHER thread
  // holds part of the pool is not a self-deadlock -- it must wait for
  // that thread's release, not abort.
  WorkerPool Pool(2);
  WorkerPool::SessionHandle Mine = Pool.acquireSession(1, true);
  std::atomic<bool> OtherAcquired{false}, OtherMayRelease{false};
  std::thread Other([&] {
    WorkerPool::SessionHandle Theirs = Pool.acquireSession(1, true);
    OtherAcquired.store(true);
    while (!OtherMayRelease.load())
      std::this_thread::yield();
  });
  while (!OtherAcquired.load())
    std::this_thread::yield();
  // Pool exhausted, but not by us alone: this nested acquire must block
  // (not die) until the other thread releases.
  std::thread Unblocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    OtherMayRelease.store(true);
  });
  WorkerPool::SessionHandle Nested = Pool.acquireSession(1, true);
  EXPECT_EQ(Nested->lanes(), 1u);
  Other.join();
  Unblocker.join();
}

TEST(WorkerSession, LegacyLaunchStillWorksBetweenSessions) {
  WorkerPool Pool(2);
  { WorkerPool::SessionHandle S = Pool.acquireSession(2, true); }
  std::atomic<int> N{0};
  Pool.launch(2, [&](unsigned) { N.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(N.load(), 2);
}

//===----------------------------------------------------------------------===//
// SpiceRuntime: many loops, one pool
//===----------------------------------------------------------------------===//

TEST(SpiceRuntime, RegistersAndUnregistersLoops) {
  SpiceRuntime RT(/*NumThreads=*/4);
  EXPECT_EQ(RT.numLoops(), 0u);
  OtterTraits Traits;
  {
    auto L1 = RT.makeLoop(Traits);
    LoopOptions Oversub;
    Oversub.ChunksPerThread = 2;
    auto L2 = RT.makeLoop(Traits, Oversub);
    EXPECT_EQ(RT.numLoops(), 2u);
    EXPECT_EQ(L1.config().NumThreads, 4u);
    EXPECT_EQ(L2.options().ChunksPerThread, 2u);
    EXPECT_EQ(&L1.runtime(), &RT);
  }
  EXPECT_EQ(RT.numLoops(), 0u);
}

TEST(SpiceRuntime, WorkerStartHookRunsOncePerWorker) {
  std::atomic<unsigned> Started{0};
  std::atomic<uint32_t> SeenMask{0};
  {
    RuntimeConfig C;
    C.NumThreads = 4; // 3 workers.
    C.WorkerStartHook = [&](unsigned Index) {
      Started.fetch_add(1);
      SeenMask.fetch_or(1u << Index);
    };
    SpiceRuntime RT(C);
    ClauseList List(200, 91);
    OtterTraits Traits;
    auto Loop = RT.makeLoop(Traits);
    for (int I = 0; I != 3 && List.head(); ++I) {
      OtterTraits::State Got = Loop.invoke(List.head());
      ASSERT_EQ(Got.MinClause, List.findLightestReference());
      List.mutate(Got.MinClause, 1);
    }
  }
  EXPECT_EQ(Started.load(), 3u);
  EXPECT_EQ(SeenMask.load(), 0b111u) << "hook sees worker indices 0..2";
}

TEST(SpiceRuntime, TwoLoopsInterleavedOnOneRuntime) {
  SpiceRuntime RT(/*NumThreads=*/4);

  ClauseList List(500, 81);
  OtterTraits Otter;
  auto Select = RT.makeLoop(Otter);

  BasisTree TreeSpice(500, 82), TreeRef(500, 82);
  McfTraits Mcf;
  LoopOptions McfOpts;
  McfOpts.EnableConflictDetection = true;
  auto Refresh = RT.makeLoop(Mcf, McfOpts);

  // Alternate invocations of the two loops on the same pool.
  for (int I = 0; I != 20 && List.head(); ++I) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Picked = Select.invoke(List.head());
    ASSERT_EQ(Picked.MinClause, Expected) << "interleaved invocation " << I;
    List.mutate(Picked.MinClause, 2);

    int64_t Want = TreeRef.refreshPotentialReference();
    McfTraits::State Got = Refresh.invoke(TreeSpice.traversalStart());
    ASSERT_EQ(Got.Checksum, Want) << "interleaved invocation " << I;
    TreeSpice.mutate(2, 1);
    TreeRef.mutate(2, 1);
  }
  EXPECT_GE(Select.stats().Invocations, 20u);
  EXPECT_GE(Refresh.stats().Invocations, 20u);
}

// The satellite scenario: two distinct loops registered on one shared
// runtime, invoked concurrently from two client threads, with forced
// mispredictions (mid-list removals break memoized rows; stale mcf
// potentials fail read validation). Runs under TSan in CI.
TEST(SpiceRuntime, TwoLoopsInvokedConcurrentlyFromTwoClientThreads) {
  SpiceRuntime RT(/*NumThreads=*/4);

  OtterTraits Otter;
  LoopOptions OtterOpts;
  OtterOpts.ChunksPerThread = 2;
  auto Select = RT.makeLoop(Otter, OtterOpts);
  McfTraits Mcf;
  LoopOptions McfOpts;
  McfOpts.ChunksPerThread = 2;
  McfOpts.EnableConflictDetection = true;
  auto Refresh = RT.makeLoop(Mcf, McfOpts);

  std::atomic<bool> OtterOk{true}, McfOk{true};

  std::thread OtterClient([&] {
    ClauseList List(400, 83);
    for (int I = 0; I != 30 && List.size() > 32; ++I) {
      // Remove a mid-list node: close to a memoized row, so predictions
      // break and the recovery path runs while the other client is busy.
      Clause *Mid = List.head();
      for (size_t S = 0; S != List.size() / 2; ++S)
        Mid = Mid->Next;
      List.remove(Mid);
      Clause *Expected = List.findLightestReference();
      OtterTraits::State Got = Select.invoke(List.head());
      if (Got.MinClause != Expected) {
        OtterOk.store(false);
        return;
      }
      List.mutate(Got.MinClause, 1);
    }
  });

  std::thread McfClient([&] {
    BasisTree TreeSpice(400, 84), TreeRef(400, 84);
    for (int I = 0; I != 30; ++I) {
      int64_t Want = TreeRef.refreshPotentialReference();
      McfTraits::State Got = Refresh.invoke(TreeSpice.traversalStart());
      if (Got.Checksum != Want) {
        McfOk.store(false);
        return;
      }
      // No incremental propagation: stale potentials force conflict
      // squashes and concurrent recovery chunks.
      TreeSpice.mutate(/*Arcs=*/20, /*Relocations=*/0,
                       /*PropagateNow=*/false);
      TreeRef.mutate(20, 0, false);
    }
  });

  OtterClient.join();
  McfClient.join();
  EXPECT_TRUE(OtterOk.load()) << "otter loop diverged from its oracle";
  EXPECT_TRUE(McfOk.load()) << "mcf loop diverged from its oracle";
  EXPECT_GE(Select.stats().Invocations, 20u);
  EXPECT_GE(Refresh.stats().Invocations, 30u);
}

// Same two-client scenario on a deliberately starved pool (NumThreads=2,
// one worker): sessions must take turns leasing the single lane without
// deadlock or corruption.
TEST(SpiceRuntime, ConcurrentClientsShareASingleWorker) {
  SpiceRuntime RT(/*NumThreads=*/2);
  OtterTraits OtterA, OtterB;
  auto LoopA = RT.makeLoop(OtterA);
  auto LoopB = RT.makeLoop(OtterB);

  std::atomic<bool> AOk{true}, BOk{true};
  auto Client = [](decltype(LoopA) &Loop, uint64_t Seed,
                   std::atomic<bool> &Ok) {
    ClauseList List(300, Seed);
    for (int I = 0; I != 25 && List.head(); ++I) {
      Clause *Expected = List.findLightestReference();
      OtterTraits::State Got = Loop.invoke(List.head());
      if (Got.MinClause != Expected) {
        Ok.store(false);
        return;
      }
      List.mutate(Got.MinClause, 2);
    }
  };
  std::thread TA([&] { Client(LoopA, 85, AOk); });
  std::thread TB([&] { Client(LoopB, 86, BOk); });
  TA.join();
  TB.join();
  EXPECT_TRUE(AOk.load());
  EXPECT_TRUE(BOk.load());
}

//===----------------------------------------------------------------------===//
// Bit-for-bit equivalence with the legacy one-pool-per-loop constructor
//===----------------------------------------------------------------------===//

namespace {

/// Runs the stable-list otter workload (no churn: fully deterministic
/// stats, no timing-dependent squash counters) and returns the stats.
template <typename LoopT> SpiceStats runStableOtter(LoopT &Loop) {
  ClauseList List(600, 5);
  for (int I = 0; I != 10; ++I) {
    typename OtterTraits::State Got = Loop.invoke(List.head());
    EXPECT_EQ(Got.MinClause, List.findLightestReference());
  }
  return Loop.stats();
}

void expectStatsEqual(const SpiceStats &A, const SpiceStats &B) {
  EXPECT_EQ(A.Invocations, B.Invocations);
  EXPECT_EQ(A.SequentialInvocations, B.SequentialInvocations);
  EXPECT_EQ(A.MisspeculatedInvocations, B.MisspeculatedInvocations);
  EXPECT_EQ(A.FullySpeculativeInvocations, B.FullySpeculativeInvocations);
  EXPECT_EQ(A.TotalIterations, B.TotalIterations);
  EXPECT_EQ(A.SquashedThreads, B.SquashedThreads);
  EXPECT_EQ(A.LaunchedSpecThreads, B.LaunchedSpecThreads);
  EXPECT_EQ(A.ConflictSquashes, B.ConflictSquashes);
  EXPECT_EQ(A.RecoveryIterations, B.RecoveryIterations);
  EXPECT_EQ(A.WastedIterations, B.WastedIterations);
  EXPECT_EQ(A.StolenChunks, B.StolenChunks);
  EXPECT_EQ(A.MainHelpedChunks, B.MainHelpedChunks);
  EXPECT_EQ(A.RecoveryChunks, B.RecoveryChunks);
  EXPECT_EQ(A.StolenRecoveryChunks, B.StolenRecoveryChunks);
  EXPECT_EQ(A.LocalSteals, B.LocalSteals);
  EXPECT_EQ(A.RemoteSteals, B.RemoteSteals);
  // Scheduler-era fields: a sole client is always granted immediately
  // (0 queued micros) with the same lane partition on both paths.
  EXPECT_EQ(A.QueuedMicros, B.QueuedMicros);
  EXPECT_EQ(A.QueuedMicros, 0u);
  EXPECT_EQ(A.GrantedLanes, B.GrantedLanes);
  EXPECT_DOUBLE_EQ(A.ImbalanceSum, B.ImbalanceSum);
  EXPECT_EQ(A.ImbalanceSamples, B.ImbalanceSamples);
  EXPECT_DOUBLE_EQ(A.ChunkImbalanceSum, B.ChunkImbalanceSum);
  EXPECT_EQ(A.ChunkImbalanceSamples, B.ChunkImbalanceSamples);
}

} // namespace

TEST(SpiceRuntime, RuntimeLoopMatchesLegacyLoopStatsBitForBit) {
  // ChunksPerThread == 1, sole loop, sole client: the runtime handle must
  // reproduce the legacy private-pool protocol stats exactly.
  OtterTraits TraitsLegacy, TraitsRuntime;
  SpiceConfig Legacy;
  Legacy.NumThreads = 4;
  SpiceLoop<OtterTraits> LegacyLoop(TraitsLegacy, Legacy);
  SpiceStats A = runStableOtter(LegacyLoop);

  SpiceRuntime RT(/*NumThreads=*/4);
  auto RuntimeLoop = RT.makeLoop(TraitsRuntime);
  SpiceStats B = runStableOtter(RuntimeLoop);

  expectStatsEqual(A, B);
  EXPECT_EQ(A.SequentialInvocations, 1u);
  EXPECT_EQ(A.FullySpeculativeInvocations, 9u);
}

TEST(SpiceRuntime, OversubscribedRuntimeLoopMatchesLegacyStats) {
  OtterTraits TraitsLegacy, TraitsRuntime;
  SpiceConfig Legacy;
  Legacy.NumThreads = 4;
  Legacy.ChunksPerThread = 4;
  SpiceLoop<OtterTraits> LegacyLoop(TraitsLegacy, Legacy);
  SpiceStats A = runStableOtter(LegacyLoop);

  SpiceRuntime RT(/*NumThreads=*/4);
  LoopOptions Oversub;
  Oversub.ChunksPerThread = 4;
  auto RuntimeLoop = RT.makeLoop(TraitsRuntime, Oversub);
  SpiceStats B = runStableOtter(RuntimeLoop);

  // A stable list never squashes, so every deterministic counter must
  // agree; steal/help counters are timing-dependent under
  // oversubscription and are exempt.
  EXPECT_EQ(A.Invocations, B.Invocations);
  EXPECT_EQ(A.SequentialInvocations, B.SequentialInvocations);
  EXPECT_EQ(A.MisspeculatedInvocations, B.MisspeculatedInvocations);
  EXPECT_EQ(A.FullySpeculativeInvocations, B.FullySpeculativeInvocations);
  EXPECT_EQ(A.TotalIterations, B.TotalIterations);
  EXPECT_EQ(A.LaunchedSpecThreads, B.LaunchedSpecThreads);
}

//===----------------------------------------------------------------------===//
// Exit at chunk end: at k = 1 the deques close at launch
//===----------------------------------------------------------------------===//

TEST(ExitAtChunkEnd, BatchOnOneLeaseReopensAndRelaunches) {
  // Every element after the first reopens the deques that the previous
  // launch closed, and re-launches the same leased lanes.
  SpiceRuntime RT(/*NumThreads=*/4);
  OtterTraits Traits;
  auto Loop = RT.makeLoop(Traits); // Default LoopOptions: k = 1.
  ClauseList List(600, 5);
  Clause *Want = List.findLightestReference();
  EXPECT_EQ(Loop.invoke(List.head()).MinClause, Want); // Bootstrap.
  const SpiceStats Before = Loop.stats();

  std::vector<Clause *> Starts(12, List.head());
  SpiceBatchFuture<OtterTraits::State> F = Loop.submitBatch(Starts);
  std::vector<OtterTraits::State> Out = F.take();
  ASSERT_EQ(Out.size(), 12u);
  for (const OtterTraits::State &S : Out)
    EXPECT_EQ(S.MinClause, Want);

  const SpiceStats &After = Loop.stats();
  EXPECT_EQ(After.Invocations - Before.Invocations, 12u);
  EXPECT_EQ(After.FullySpeculativeInvocations -
                Before.FullySpeculativeInvocations,
            12u);
  EXPECT_EQ(After.GrantedLanes - Before.GrantedLanes, 12u * 3u)
      << "every element re-launches the three leased lanes";
  EXPECT_EQ(RT.schedulerStats().Submitted, 1u);
  EXPECT_EQ(RT.pool().sessionPoolStats().SessionsCreated, 1u);
  EXPECT_EQ(RT.pool().freeWorkers(), 3u);
}

TEST(ExitAtChunkEnd, ThrowingStepJoinsBeforeBuffersReturn) {
  // Chunk 0 throws on the driving thread while the workers are still
  // writing into node-drawn SpecWriteBuffers. The unwind must join them
  // before the buffers go back to their shards (TSan reports a write
  // racing the shard's clear otherwise), and release the lanes.
  RuntimeConfig C;
  C.NumThreads = 5;
  C.Topology = topology::PlacementConfig::overrideWith(
      topology::Topology::fromNodeSizes({2, 2}));
  SpiceRuntime RT(C);
  ASSERT_TRUE(RT.pool().hasBufferShards());

  constexpr int64_t N = 1 << 14;
  std::vector<int64_t> Cells(N, 0);
  const std::thread::id MainId = std::this_thread::get_id();
  bool Armed = false;
  auto Sum = LoopBuilder<int64_t, uint64_t>()
                 .step([&](int64_t &I, uint64_t &S, SpecSpace &Mem) {
                   if (I >= N)
                     return false;
                   if (Armed && I == N / 8 &&
                       std::this_thread::get_id() == MainId)
                     throw std::runtime_error("client bug");
                   Mem.write(&Cells[I], I);
                   S += static_cast<uint64_t>(I);
                   ++I;
                   return true;
                 })
                 .combine([](uint64_t &Into, uint64_t &&Chunk) {
                   Into += Chunk;
                 })
                 .build(RT);

  const uint64_t Want = static_cast<uint64_t>(N) * (N - 1) / 2;
  EXPECT_EQ(Sum.invoke(0), Want); // Bootstrap (sequential).
  Armed = true;
  SpiceFuture<uint64_t> F = Sum.submit(0);
  EXPECT_THROW(F.get(), std::runtime_error);
  EXPECT_EQ(RT.pool().freeWorkers(), 4u);
  const NodeBufferPoolStats AfterThrow = RT.pool().nodeBufferStats();
  EXPECT_GT(AfterThrow.BuffersCreated, 0u);

  Armed = false;
  EXPECT_EQ(Sum.invoke(0), Want);
  for (int64_t I = 0; I != N; ++I)
    ASSERT_EQ(Cells[I], I);
  const NodeBufferPoolStats Next = RT.pool().nodeBufferStats();
  EXPECT_EQ(Next.BuffersCreated, AfterThrow.BuffersCreated)
      << "the unwound invocation returned every buffer it drew";
  EXPECT_GT(Next.BufferPoolHits, AfterThrow.BufferPoolHits);
}

//===----------------------------------------------------------------------===//
// LoopBuilder: the lambda front-end
//===----------------------------------------------------------------------===//

namespace {

struct BuilderNode {
  long Value;
  BuilderNode *Next;
};

} // namespace

TEST(LoopBuilder, ListMinMatchesReference) {
  std::vector<BuilderNode> Arena(5000);
  BuilderNode *Head = nullptr;
  for (size_t I = 0; I != Arena.size(); ++I) {
    Arena[I] = {static_cast<long>((I * 2654435761u) % 1000003), Head};
    Head = &Arena[I];
  }

  SpiceRuntime RT(/*NumThreads=*/4);
  auto Min =
      LoopBuilder<BuilderNode *, long>()
          .init([] { return std::numeric_limits<long>::max(); })
          .step([](BuilderNode *&N, long &Best, SpecSpace &) {
            if (!N)
              return false;
            Best = std::min(Best, N->Value);
            N = N->Next;
            return true;
          })
          .combine(
              [](long &Into, long &&Chunk) { Into = std::min(Into, Chunk); })
          .build(RT);
  EXPECT_EQ(RT.numLoops(), 1u);

  long Want = std::numeric_limits<long>::max();
  for (const BuilderNode &N : Arena)
    Want = std::min(Want, N.Value);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Min.invoke(Head), Want) << "invocation " << I;
  EXPECT_EQ(Min.stats().Invocations, 5u);
  EXPECT_EQ(Min.stats().SequentialInvocations, 1u);
  EXPECT_EQ(Min.stats().MisspeculatedInvocations, 0u);
}

TEST(LoopBuilder, WeightInstallsWeightedWorkMetric) {
  std::vector<BuilderNode> Arena(2000);
  BuilderNode *Head = nullptr;
  for (size_t I = 0; I != Arena.size(); ++I) {
    Arena[I] = {static_cast<long>(I % 97), Head};
    Head = &Arena[I];
  }

  SpiceRuntime RT(/*NumThreads=*/4);
  auto Sum =
      LoopBuilder<BuilderNode *, uint64_t>()
          .step([](BuilderNode *&N, uint64_t &S, SpecSpace &) {
            if (!N)
              return false;
            S += static_cast<uint64_t>(N->Value);
            N = N->Next;
            return true;
          })
          .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
          .weight([](BuilderNode *const &N) {
            // Weighed before the exit check: N is null on the last call.
            return N ? static_cast<uint64_t>(1 + N->Value % 7) : 1;
          })
          .build(RT);
  EXPECT_TRUE(Sum.options().UseWeightedWork)
      << ".weight(...) must switch the loop to the weighted metric";

  uint64_t Want = 0;
  for (const BuilderNode &N : Arena)
    Want += static_cast<uint64_t>(N.Value);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Sum.invoke(Head), Want);
}

TEST(LoopBuilder, ThrowingStepDoesNotPoisonThePoolOrTheHandle) {
  // A user callable that throws during a parallel invocation must leave
  // the shared pool quiescent (lanes joined and released) and the loop
  // handle reusable. The throw is restricted to the client thread, i.e.
  // the non-speculative chunk 0 -- workers have no unwind path by
  // design, like the paper's pre-allocated threads.
  SpiceRuntime RT(/*NumThreads=*/4);
  const std::thread::id MainId = std::this_thread::get_id();
  bool Armed = false;
  auto Sum =
      LoopBuilder<int64_t, uint64_t>()
          .step([&](int64_t &I, uint64_t &S, SpecSpace &) {
            if (Armed && std::this_thread::get_id() == MainId)
              throw std::runtime_error("client bug");
            if (I >= 4096)
              return false;
            S += static_cast<uint64_t>(I);
            ++I;
            return true;
          })
          .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
          .build(RT);

  const uint64_t Want = 4096ull * 4095 / 2;
  EXPECT_EQ(Sum.invoke(0), Want); // Bootstrap (sequential).
  Armed = true;                   // Chunk 0 of the next invocation throws.
  EXPECT_THROW(Sum.invoke(0), std::runtime_error);
  EXPECT_EQ(RT.pool().freeWorkers(), 3u)
      << "the unwound invocation must release its leased lanes";
  Armed = false;
  EXPECT_EQ(Sum.invoke(0), Want) << "handle must stay usable after the "
                                    "exception";
}

// Misuse diagnostics fire in every build type (reportFatalError, not
// assert): a builder misassembled here would otherwise surface as an
// opaque bad_function_call deep inside an invocation. The aliases keep
// template-argument commas out of the EXPECT_DEATH macro arguments.
namespace {
using CountBuilder = LoopBuilder<int64_t, uint64_t>;
using CountStepFn = std::function<bool(int64_t &, uint64_t &, SpecSpace &)>;
} // namespace

TEST(LoopBuilderDeathTest, BuildWithoutStepDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(/*NumThreads=*/2);
        auto L = CountBuilder()
                     .combine([](uint64_t &A, uint64_t &&B) { A += B; })
                     .build(RT);
      },
      "step.*mandatory");
}

TEST(LoopBuilderDeathTest, BuildWithoutCombineDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(/*NumThreads=*/2);
        auto L = CountBuilder()
                     .step([](int64_t &, uint64_t &, SpecSpace &) {
                       return false;
                     })
                     .build(RT);
      },
      "combine.*mandatory");
}

TEST(LoopBuilderDeathTest, DoubleInitDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        CountBuilder()
            .init([] { return uint64_t{0}; })
            .init([] { return uint64_t{1}; });
      },
      "init set twice");
}

TEST(LoopBuilderDeathTest, DoubleStepDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto Step = [](int64_t &, uint64_t &, SpecSpace &) { return false; };
  EXPECT_DEATH({ CountBuilder().step(Step).step(Step); },
               "step set twice");
}

TEST(LoopBuilderDeathTest, NullCallableDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ CountBuilder().step(CountStepFn{}); }, "null callable");
}

TEST(LoopBuilder, DefaultInitValueInitializesState) {
  std::vector<BuilderNode> Arena(512);
  BuilderNode *Head = nullptr;
  for (size_t I = 0; I != Arena.size(); ++I) {
    Arena[I] = {1, Head};
    Head = &Arena[I];
  }
  SpiceRuntime RT(/*NumThreads=*/2);
  auto Count =
      LoopBuilder<BuilderNode *, uint64_t>()
          .step([](BuilderNode *&N, uint64_t &S, SpecSpace &) {
            if (!N)
              return false;
            ++S;
            N = N->Next;
            return true;
          })
          .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
          .build(RT);
  for (int I = 0; I != 3; ++I)
    EXPECT_EQ(Count.invoke(Head), Arena.size());
}
