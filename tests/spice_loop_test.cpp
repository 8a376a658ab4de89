//===- tests/spice_loop_test.cpp - End-to-end runtime tests ---------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Correctness of the full speculative protocol: for every workload, every
// thread count, and many churn patterns, the Spice execution must produce
// exactly the sequential result on every invocation.
//
//===----------------------------------------------------------------------===//

#include "core/LoopBuilder.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Ks.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"
#include "workloads/Sjeng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

// Every protocol test registers its loop on a SpiceRuntime via
// makeLoop(), the supported construction path. Coverage of the
// deprecated flat-SpiceConfig constructor lives in one suite in
// tests/spice_runtime_test.cpp (legacy-vs-runtime stat equivalence).

//===----------------------------------------------------------------------===//
// Otter (linked-list min, the paper's running example)
//===----------------------------------------------------------------------===//

struct OtterParam {
  unsigned Threads;
  size_t ListSize;
  unsigned Inserts;
  uint64_t Seed;
};

class OtterSpiceTest : public ::testing::TestWithParam<OtterParam> {};

TEST_P(OtterSpiceTest, MatchesSequentialAcrossInvocations) {
  const OtterParam P = GetParam();
  ClauseList List(P.ListSize, P.Seed);
  OtterTraits Traits;
  SpiceRuntime RT(P.Threads);
  auto Loop = RT.makeLoop(Traits);

  for (int Invocation = 0; Invocation != 30 && List.head(); ++Invocation) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected) << "invocation " << Invocation;
    ASSERT_EQ(Got.MinWeight, Expected->PickWeight);
    List.mutate(Got.MinClause, P.Inserts);
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_GE(S.Invocations, 8u);
  EXPECT_GE(S.SequentialInvocations, 1u) << "first invocation bootstraps";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OtterSpiceTest,
    ::testing::Values(OtterParam{2, 400, 2, 11}, OtterParam{3, 400, 2, 12},
                      OtterParam{4, 400, 2, 13}, OtterParam{4, 1000, 5, 14},
                      OtterParam{4, 50, 1, 15}, OtterParam{8, 2000, 3, 16},
                      OtterParam{2, 8, 1, 17}, OtterParam{4, 8, 0, 18},
                      OtterParam{6, 300, 10, 19}));

TEST(OtterSpice, HighChurnStillCorrect) {
  // Insert so aggressively that predictions frequently break.
  ClauseList List(200, 99);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);
  for (int I = 0; I != 40; ++I) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected);
    List.mutate(Got.MinClause, 40); // 20% growth per invocation.
  }
}

TEST(OtterSpice, StableListBecomesFullySpeculative) {
  // No churn at all: after the bootstrap invocation, every invocation
  // should validate all threads.
  ClauseList List(600, 5);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);
  for (int I = 0; I != 10; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_EQ(S.SequentialInvocations, 1u);
  EXPECT_EQ(S.MisspeculatedInvocations, 0u);
  EXPECT_EQ(S.FullySpeculativeInvocations, 9u);
}

TEST(OtterSpice, RemovedPredictionIsDetectedAndSquashed) {
  // Deterministically break row 0: remove exactly the predicted node.
  ClauseList List(300, 7);
  OtterTraits Traits;
  SpiceRuntime RT(2);
  auto Loop = RT.makeLoop(Traits);
  (void)Loop.invoke(List.head()); // Bootstrap.
  ASSERT_EQ(Loop.validRows(), 1u);

  // Find the predicted node by running one speculative invocation and then
  // removing ~the middle node; repeat until a mis-speculation shows up.
  uint64_t MissesBefore = Loop.stats().MisspeculatedInvocations;
  for (int I = 0; I != 20; ++I) {
    // Remove the middle node: with a 2-thread split this is close to the
    // memoized sample, so it breaks the prediction sooner or later.
    Clause *Mid = List.head();
    for (size_t S = 0; S != List.size() / 2; ++S)
      Mid = Mid->Next;
    List.remove(Mid);
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected);
  }
  EXPECT_GT(Loop.stats().MisspeculatedInvocations, MissesBefore)
      << "removing memoized nodes must eventually trigger a squash";
  EXPECT_GT(Loop.stats().SquashedThreads, 0u);
}

TEST(OtterSpice, SingleThreadConfigDegeneratesToSequential) {
  ClauseList List(100, 3);
  OtterTraits Traits;
  SpiceRuntime RT(1);
  auto Loop = RT.makeLoop(Traits);
  for (int I = 0; I != 5; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
    List.mutate(Got.MinClause, 1);
  }
  EXPECT_EQ(Loop.stats().SequentialInvocations, 5u);
  EXPECT_EQ(Loop.stats().LaunchedSpecThreads, 0u);
}

TEST(OtterSpice, MemoizeOnceAblationStillCorrect) {
  ClauseList List(400, 21);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.RememoizeEveryInvocation = false;
  auto Loop = RT.makeLoop(Traits, O);
  uint64_t Misses = 0;
  for (int I = 0; I != 50; ++I) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected);
    List.mutate(Got.MinClause, 2);
  }
  Misses = Loop.stats().MisspeculatedInvocations;
  // The stale predictions decay: removing the minimum every invocation
  // eventually deletes a memoized node and, without re-memoization, every
  // later invocation squashes. Expect notable mis-speculation.
  EXPECT_GT(Misses, 0u);
}

//===----------------------------------------------------------------------===//
// mcf (tree walk with speculative stores + value validation)
//===----------------------------------------------------------------------===//

struct McfParam {
  unsigned Threads;
  size_t TreeSize;
  unsigned Arcs;
  unsigned Relocations;
  uint64_t Seed;
};

class McfSpiceTest : public ::testing::TestWithParam<McfParam> {};

TEST_P(McfSpiceTest, PotentialsAndChecksumMatchSequential) {
  const McfParam P = GetParam();
  BasisTree TreeSpice(P.TreeSize, P.Seed);
  BasisTree TreeRef(P.TreeSize, P.Seed); // Identical twin for the oracle.

  McfTraits Traits;
  SpiceRuntime RT(P.Threads);
  LoopOptions O;
  O.EnableConflictDetection = true; // Loop writes shared memory.
  auto Loop = RT.makeLoop(Traits, O);

  for (int Invocation = 0; Invocation != 25; ++Invocation) {
    int64_t WantChecksum = TreeRef.refreshPotentialReference();
    McfTraits::State Got = Loop.invoke(TreeSpice.traversalStart());
    ASSERT_EQ(Got.Checksum, WantChecksum) << "invocation " << Invocation;
    // Compare every potential computed by the parallel walk.
    TreeNode *A = TreeSpice.traversalStart();
    TreeNode *B = TreeRef.traversalStart();
    while (A && B) {
      ASSERT_EQ(A->Potential, B->Potential);
      A = BasisTree::advance(A);
      B = BasisTree::advance(B);
    }
    ASSERT_EQ(A, nullptr);
    ASSERT_EQ(B, nullptr);
    TreeSpice.mutate(P.Arcs, P.Relocations);
    TreeRef.mutate(P.Arcs, P.Relocations); // Same seed: same mutations.
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, McfSpiceTest,
    ::testing::Values(McfParam{2, 500, 2, 0, 31}, McfParam{4, 500, 2, 0, 32},
                      McfParam{4, 2000, 4, 1, 33},
                      McfParam{4, 300, 0, 2, 34}, McfParam{3, 64, 1, 1, 35},
                      McfParam{8, 1000, 3, 1, 36}));

TEST(McfSpice, StalePotentialsForceConflictSquashes) {
  // PropagateNow=false leaves potentials stale, so chunk-boundary reads
  // fail value validation and the runtime must fall back to recovery --
  // while still producing correct results.
  BasisTree TreeSpice(800, 41);
  BasisTree TreeRef(800, 41);
  McfTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.EnableConflictDetection = true;
  auto Loop = RT.makeLoop(Traits, O);
  for (int I = 0; I != 15; ++I) {
    int64_t Want = TreeRef.refreshPotentialReference();
    McfTraits::State Got = Loop.invoke(TreeSpice.traversalStart());
    ASSERT_EQ(Got.Checksum, Want);
    TreeNode *A = TreeSpice.traversalStart();
    TreeNode *B = TreeRef.traversalStart();
    while (A && B) {
      ASSERT_EQ(A->Potential, B->Potential);
      A = BasisTree::advance(A);
      B = BasisTree::advance(B);
    }
    // Heavy arc churn with no incremental propagation.
    TreeSpice.mutate(/*Arcs=*/40, /*Relocations=*/0, /*PropagateNow=*/false);
    TreeRef.mutate(40, 0, false);
  }
  EXPECT_GT(Loop.stats().ConflictSquashes, 0u)
      << "stale potentials must trip value validation at least once";
  EXPECT_GT(Loop.stats().RecoveryIterations, 0u);
}

//===----------------------------------------------------------------------===//
// ks (shrinking candidate list, invariant live-ins)
//===----------------------------------------------------------------------===//

TEST(KsSpice, InnerLoopMatchesSequentialAcrossSwapSteps) {
  KsGraph G(128, 4, 51);
  KsTraits Traits;
  Traits.Graph = &G;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);

  // One KL pass: repeatedly pick the first unswapped A vertex, find its
  // best partner via the Spice loop, and swap.
  for (int Step = 0; Step != 40 && G.aListHead() && G.bListHead(); ++Step) {
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);

    // Oracle.
    int64_t BestGain = INT64_MIN;
    KsVertex *BestB = nullptr;
    for (KsVertex *B = G.bListHead(); B; B = B->Next) {
      int64_t Gain = Traits.FixedADValue + G.dValue(B->Id) -
                     2 * G.edgeWeight(A->Id, B->Id);
      if (Gain > BestGain) {
        BestGain = Gain;
        BestB = B;
      }
    }

    KsTraits::State Got = Loop.invoke(G.bListHead());
    ASSERT_EQ(Got.BestB, BestB) << "swap step " << Step;
    ASSERT_EQ(Got.BestGain, BestGain);

    G.applySwap(A->Id, Got.BestB->Id);
  }
  EXPECT_GT(Loop.stats().Invocations, 10u);
}

TEST(KsSpice, AdaptsToShrinkingList) {
  // The candidate list shrinks by one every invocation; re-memoization
  // must keep the loop parallel (few sequential invocations).
  KsGraph G(256, 4, 52);
  KsTraits Traits;
  Traits.Graph = &G;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);
  int Steps = 0;
  while (G.aListHead() && G.bListHead() && Steps < 100) {
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);
    KsTraits::State Got = Loop.invoke(G.bListHead());
    ASSERT_NE(Got.BestB, nullptr);
    G.applySwap(A->Id, Got.BestB->Id);
    ++Steps;
  }
  const SpiceStats &S = Loop.stats();
  // Bootstrap + the tail where the list is tiny may run sequentially, but
  // the bulk must be parallel.
  EXPECT_LT(S.SequentialInvocations, S.Invocations / 2);
}

//===----------------------------------------------------------------------===//
// sjeng (8 live-ins, branchy body, variable iteration cost)
//===----------------------------------------------------------------------===//

struct SjengParam {
  unsigned Threads;
  size_t Pieces;
  double MutateProb;
  unsigned MutateCount;
  bool WeightedWork;
  uint64_t Seed;
};

class SjengSpiceTest : public ::testing::TestWithParam<SjengParam> {};

TEST_P(SjengSpiceTest, ScoresMatchSequential) {
  const SjengParam P = GetParam();
  SjengBoard Board(P.Pieces, P.Seed);
  SjengTraits Traits;
  SpiceRuntime RT(P.Threads);
  LoopOptions O;
  O.UseWeightedWork = P.WeightedWork;
  auto Loop = RT.makeLoop(Traits, O);

  for (int Invocation = 0; Invocation != 40; ++Invocation) {
    SjengScore Want = Board.evalReference();
    SjengScore Got = Loop.invoke(Board.start());
    ASSERT_EQ(Got, Want) << "invocation " << Invocation;
    Board.mutate(P.MutateProb, P.MutateCount);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SjengSpiceTest,
    ::testing::Values(SjengParam{2, 300, 0.3, 1, false, 61},
                      SjengParam{4, 300, 0.3, 1, false, 62},
                      SjengParam{4, 300, 0.3, 1, true, 63},
                      SjengParam{4, 1000, 0.5, 3, false, 64},
                      SjengParam{4, 64, 1.0, 4, true, 65},
                      SjengParam{8, 500, 0.2, 2, true, 66}));

//===----------------------------------------------------------------------===//
// Oversubscription (ChunksPerThread > 1) and the work-stealing recovery
// path. These run under TSan in CI: forced mispredictions with more chunks
// than threads exercise concurrent recovery chunks, stealing, and the
// ordered commit of their buffers.
//===----------------------------------------------------------------------===//

struct OversubParam {
  unsigned Threads;
  unsigned ChunksPerThread;
  size_t ListSize;
  unsigned Inserts;
  uint64_t Seed;
};

class OversubscribedOtterTest
    : public ::testing::TestWithParam<OversubParam> {};

TEST_P(OversubscribedOtterTest, MatchesSequentialAcrossInvocations) {
  const OversubParam P = GetParam();
  ClauseList List(P.ListSize, P.Seed);
  OtterTraits Traits;
  SpiceRuntime RT(P.Threads);
  LoopOptions O;
  O.ChunksPerThread = P.ChunksPerThread;
  auto Loop = RT.makeLoop(Traits, O);
  ASSERT_EQ(Loop.config().numChunks(), P.Threads * P.ChunksPerThread);

  for (int Invocation = 0; Invocation != 30 && List.head(); ++Invocation) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected) << "invocation " << Invocation;
    ASSERT_EQ(Got.MinWeight, Expected->PickWeight);
    List.mutate(Got.MinClause, P.Inserts);
  }
  EXPECT_GE(Loop.stats().Invocations, 8u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OversubscribedOtterTest,
    ::testing::Values(OversubParam{2, 2, 400, 2, 211},
                      OversubParam{4, 2, 400, 2, 212},
                      OversubParam{4, 4, 1000, 5, 213},
                      OversubParam{4, 8, 2000, 3, 214},
                      OversubParam{3, 4, 300, 10, 215},
                      OversubParam{4, 4, 24, 1, 216},
                      OversubParam{2, 8, 50, 1, 217}));

TEST(OversubscribedSpice, PlansOneScheduleListPerChunk) {
  ClauseList List(600, 220);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 2;
  auto Loop = RT.makeLoop(Traits, O);
  (void)Loop.invoke(List.head()); // Bootstrap plans the next invocation.
  EXPECT_EQ(Loop.currentPlan().PerThread.size(), 8u)
      << "chunk planning must cover ChunksPerThread * NumThreads chunks";
  (void)Loop.invoke(List.head());
  EXPECT_EQ(Loop.stats().LaunchedSpecThreads, 7u)
      << "a fully predicted invocation launches numChunks() - 1 chunks";
}

TEST(OversubscribedSpice, StableListStaysFullySpeculative) {
  // No churn: after the bootstrap invocation every chunk validates, even
  // with twice as many chunks as threads.
  ClauseList List(600, 221);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 2;
  auto Loop = RT.makeLoop(Traits, O);
  for (int I = 0; I != 10; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_EQ(S.SequentialInvocations, 1u);
  EXPECT_EQ(S.MisspeculatedInvocations, 0u);
  EXPECT_EQ(S.FullySpeculativeInvocations, 9u);
  EXPECT_EQ(S.RecoveryChunks, 0u);
}

TEST(OversubscribedSpice, ForcedMispredictionsStillCorrect) {
  // Deterministically delete nodes near memoized samples so predictions
  // break often while oversubscribed; squashed suffixes must re-resolve
  // through stealable chunks without corrupting the reduction.
  ClauseList List(400, 222);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 4;
  auto Loop = RT.makeLoop(Traits, O);
  uint64_t MissesBefore = Loop.stats().MisspeculatedInvocations;
  for (int I = 0; I != 40 && List.size() > 32; ++I) {
    // Remove a mid-list node (close to some memoized row) plus the min.
    Clause *Mid = List.head();
    for (size_t S = 0; S != List.size() / 2; ++S)
      Mid = Mid->Next;
    List.remove(Mid);
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected) << "invocation " << I;
    List.mutate(Got.MinClause, 1);
  }
  EXPECT_GT(Loop.stats().MisspeculatedInvocations, MissesBefore)
      << "removing memoized nodes must eventually trigger squashes";
}

TEST(OversubscribedMcf, StalePotentialsRecoverThroughStealableChunks) {
  // The mcf walk writes shared memory; with stale potentials the
  // chunk-boundary reads fail commit-time validation. Oversubscribed, the
  // failed chunk is re-enqueued as a stealable recovery chunk (instead of
  // the paper's serial replay) and the ordered commit must still produce
  // exactly the sequential potentials.
  BasisTree TreeSpice(800, 241);
  BasisTree TreeRef(800, 241);
  McfTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 4;
  O.EnableConflictDetection = true;
  auto Loop = RT.makeLoop(Traits, O);
  for (int I = 0; I != 15; ++I) {
    int64_t Want = TreeRef.refreshPotentialReference();
    McfTraits::State Got = Loop.invoke(TreeSpice.traversalStart());
    ASSERT_EQ(Got.Checksum, Want) << "invocation " << I;
    TreeNode *A = TreeSpice.traversalStart();
    TreeNode *B = TreeRef.traversalStart();
    while (A && B) {
      ASSERT_EQ(A->Potential, B->Potential);
      A = BasisTree::advance(A);
      B = BasisTree::advance(B);
    }
    ASSERT_EQ(A, nullptr);
    ASSERT_EQ(B, nullptr);
    TreeSpice.mutate(/*Arcs=*/40, /*Relocations=*/0, /*PropagateNow=*/false);
    TreeRef.mutate(40, 0, false);
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_GT(S.ConflictSquashes, 0u)
      << "stale potentials must trip value validation at least once";
  EXPECT_GT(S.RecoveryChunks, 0u)
      << "oversubscribed recovery must go through re-enqueued chunks";
  EXPECT_GT(S.RecoveryIterations, 0u);
}

TEST(OversubscribedKs, ShrinkingListStaysCorrectAndParallel) {
  KsGraph G(256, 4, 251);
  KsTraits Traits;
  Traits.Graph = &G;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 2;
  auto Loop = RT.makeLoop(Traits, O);
  int Steps = 0;
  while (G.aListHead() && G.bListHead() && Steps < 100) {
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);
    KsTraits::State Got = Loop.invoke(G.bListHead());
    ASSERT_NE(Got.BestB, nullptr);
    KsTraits::State Want = Loop.runSequentialReference(G.bListHead());
    ASSERT_EQ(Got.BestB, Want.BestB);
    ASSERT_EQ(Got.BestGain, Want.BestGain);
    G.applySwap(A->Id, Got.BestB->Id);
    ++Steps;
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_LT(S.SequentialInvocations, S.Invocations / 2);
}

TEST(OversubscribedSjeng, WeightedWorkSweepMatchesSequential) {
  SjengBoard Board(500, 261);
  SjengTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 4;
  O.UseWeightedWork = true;
  auto Loop = RT.makeLoop(Traits, O);
  for (int Invocation = 0; Invocation != 40; ++Invocation) {
    SjengScore Want = Board.evalReference();
    SjengScore Got = Loop.invoke(Board.start());
    ASSERT_EQ(Got, Want) << "invocation " << Invocation;
    Board.mutate(0.3, 1);
  }
}

TEST(SjengSpice, AttributeChurnCausesModerateMisspeculation) {
  SjengBoard Board(400, 71);
  SjengTraits Traits;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);
  for (int I = 0; I != 100; ++I) {
    SjengScore Want = Board.evalReference();
    SjengScore Got = Loop.invoke(Board.start());
    ASSERT_EQ(Got, Want);
    Board.mutate(/*MutateProb=*/0.3, /*Count=*/1);
  }
  const SpiceStats &S = Loop.stats();
  // A mutation upstream of a memoized sample breaks that prediction, so
  // the rate should be visible but far below 100%.
  EXPECT_GT(S.MisspeculatedInvocations, 5u);
  EXPECT_LT(S.MisspeculatedInvocations, 60u);
}

//===----------------------------------------------------------------------===//
// The paper's schedule (k = 1): counters pinned to recorded values
//===----------------------------------------------------------------------===//

TEST(PaperSchedule, K1StatsMatchRecordedValues) {
  // A counting loop whose trip count only grows or holds between
  // invocations: growth lengthens the last chunk and re-plans the
  // boundaries, a held count keeps every prediction. Nothing is
  // squashed, so at k = 1 every counter below is a function of the
  // inputs alone (a squashed chunk's progress, and the rows it leaves
  // behind, depend on when it sees its abort flag). A change to
  // dispatch, wake-up or join must reproduce these values exactly.
  SpiceRuntime RT(/*NumThreads=*/4);
  int64_t End = 0;
  auto Loop = LoopBuilder<int64_t, uint64_t>()
                  .step([&End](int64_t &I, uint64_t &S, SpecSpace &) {
                    if (I >= End)
                      return false;
                    S += static_cast<uint64_t>(I);
                    ++I;
                    return true;
                  })
                  .combine([](uint64_t &Into, uint64_t &&Chunk) {
                    Into += Chunk;
                  })
                  .build(RT);
  const int64_t Ends[] = {4096, 4096, 4096, 5000, 5000, 6000,
                          8000, 8000, 8001, 12000, 12000, 12000};
  for (int64_t E : Ends) {
    End = E;
    ASSERT_EQ(Loop.invoke(0), static_cast<uint64_t>(E) * (E - 1) / 2);
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_EQ(S.Invocations, 12u);
  EXPECT_EQ(S.SequentialInvocations, 1u);
  EXPECT_EQ(S.MisspeculatedInvocations, 0u);
  EXPECT_EQ(S.FullySpeculativeInvocations, 11u);
  EXPECT_EQ(S.TotalIterations, 88289u);
  EXPECT_EQ(S.SquashedThreads, 0u);
  EXPECT_EQ(S.LaunchedSpecThreads, 33u);
  EXPECT_EQ(S.ConflictSquashes, 0u);
  EXPECT_EQ(S.RecoveryIterations, 0u);
  EXPECT_EQ(S.WastedIterations, 0u);
  EXPECT_EQ(S.StolenChunks, 0u);
  EXPECT_EQ(S.MainHelpedChunks, 0u);
  EXPECT_EQ(S.RecoveryChunks, 0u);
  EXPECT_EQ(S.GrantedLanes, 33u);
  EXPECT_EQ(S.QueuedMicros, 0u);
  EXPECT_DOUBLE_EQ(S.ImbalanceSum, 15.541326059242595);
  EXPECT_EQ(S.ImbalanceSamples, 11u);
  EXPECT_DOUBLE_EQ(S.ChunkImbalanceSum, 15.541326059242595);
  EXPECT_EQ(S.ChunkImbalanceSamples, 11u);
}

//===----------------------------------------------------------------------===//
// The chunk loop: memoization rows, runaway budget and weighted work
//===----------------------------------------------------------------------===//

/// The live-in at every loop head of a sequential run from \p LI: head i
/// starts iteration i, and the last head is the exit test.
template <typename Traits>
std::vector<typename Traits::LiveIn> headSequence(Traits &T,
                                                  typename Traits::LiveIn LI) {
  std::vector<typename Traits::LiveIn> Heads{LI};
  typename Traits::State S = T.initialState();
  SpecSpace Direct;
  while (T.step(LI, S, Direct))
    Heads.push_back(LI);
  return Heads;
}

/// Algorithm 2 replayed one iteration at a time over a fully validated
/// invocation that starts its chunks at \p Pred: chunk C runs from its
/// start to its successor's start (the last chunk to the exit) and, at
/// every head, adds the head's weight and records at most one due row.
template <typename LiveIn> struct ModelRows {
  /// Every chunk start lies after its predecessor's.
  bool InOrder = true;
  /// Pred with the recorded rows overwritten.
  std::vector<LiveIn> Rows;
  /// Plan entries of each kind among the chunks that ran.
  unsigned ZeroThresholds = 0;
  unsigned EqualThresholds = 0;
  unsigned ConsecutiveThresholds = 0;
  /// Entries whose threshold lies past their chunk's end.
  unsigned PastEnd = 0;
  /// Rows recorded after the head they fell due.
  unsigned Deferred = 0;
};

template <typename LiveIn, typename WeightFn>
ModelRows<LiveIn> modelRows(const std::vector<LiveIn> &Heads,
                            const std::vector<LiveIn> &Pred,
                            const MemoizationPlan &Plan, WeightFn Weight) {
  ModelRows<LiveIn> M;
  M.Rows = Pred;
  size_t Pos = 0;
  for (size_t C = 0; C <= Pred.size(); ++C) {
    size_t End = Heads.size() - 1;
    if (C < Pred.size()) {
      auto It = std::find(Heads.begin() + Pos, Heads.end(), Pred[C]);
      if (It == Heads.end()) {
        M.InOrder = false;
        return M;
      }
      End = static_cast<size_t>(It - Heads.begin());
    }
    const std::vector<MemoEntry> &Entries = Plan.PerThread.at(C);
    for (size_t E = 0; E != Entries.size(); ++E) {
      M.ZeroThresholds += Entries[E].Threshold == 0;
      if (E > 0) {
        M.EqualThresholds += Entries[E].Threshold == Entries[E - 1].Threshold;
        M.ConsecutiveThresholds +=
            Entries[E].Threshold == Entries[E - 1].Threshold + 1;
      }
    }
    uint64_t Work = 0;
    size_t Next = 0;
    for (size_t I = Pos; I <= End; ++I) {
      const uint64_t W = Weight(Heads[I]);
      Work += W;
      if (Next < Entries.size() && Work > Entries[Next].Threshold) {
        M.Deferred += Work - W > Entries[Next].Threshold;
        M.Rows.at(Entries[Next++].Row) = Heads[I];
      }
    }
    M.PastEnd += static_cast<unsigned>(Entries.size() - Next);
    Pos = End;
  }
  return M;
}

TEST(ChunkLoop, UnitWorkRowsMatchPerIterationModel) {
  // A short list against 16 chunks: lists shorter than the chunk count
  // plan equal thresholds, slightly longer ones consecutive thresholds,
  // balanced chunks a threshold of 0, and inserts and removals move
  // chunk ends in front of thresholds planned from the last invocation.
  ClauseList List(12, 41);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 4;
  auto Loop = RT.makeLoop(Traits, O);
  RandomEngine Rng(42);
  unsigned Checked = 0, Zero = 0, Equal = 0, Consecutive = 0, PastEnd = 0;
  for (int I = 0; I != 160; ++I) {
    const std::vector<Clause *> Pred = Loop.predictions();
    // Model only invocations that start a chunk at every row.
    const bool AllRows = Pred.size() + 1 == Loop.tuning().PlannedChunks;
    ModelRows<Clause *> Want;
    if (AllRows)
      Want = modelRows(headSequence(Traits, List.head()), Pred,
                       Loop.currentPlan(), [](Clause *) { return 1u; });
    const uint64_t MissesBefore = Loop.stats().MisspeculatedInvocations;
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
    if (AllRows && Want.InOrder) {
      // Starts in list order validate every chunk, so the rows are a
      // function of the plan and the list alone.
      ASSERT_EQ(Loop.stats().MisspeculatedInvocations, MissesBefore)
          << "invocation " << I;
      ASSERT_EQ(Loop.predictions(), Want.Rows) << "invocation " << I;
      ++Checked;
      Zero += Want.ZeroThresholds;
      Equal += Want.EqualThresholds;
      Consecutive += Want.ConsecutiveThresholds;
      PastEnd += Want.PastEnd;
    }
    // Random walk of the list length: up to 14 nodes for the first 80
    // invocations, then up to 48. A removal never takes a predicted
    // clause, so it squashes nothing by itself.
    const size_t Cap = I < 80 ? 14 : 48;
    const uint64_t Move = Rng.nextBelow(3);
    if (Move == 0 && List.size() > 4) {
      const std::vector<Clause *> Rows = Loop.predictions();
      Clause *Victim = List.head()->Next;
      for (uint64_t S = Rng.nextBelow(List.size() - 2); S != 0; --S)
        Victim = Victim->Next;
      if (std::find(Rows.begin(), Rows.end(), Victim) == Rows.end())
        List.remove(Victim);
    } else if (Move == 1 && List.size() < Cap) {
      List.insertRandom();
    }
  }
  EXPECT_GT(Checked, 50u);
  EXPECT_GT(Zero, 0u);
  EXPECT_GT(Equal, 0u);
  EXPECT_GT(Consecutive, 0u);
  EXPECT_GT(PastEnd, 0u);
}

/// Yield-spins until \p Done() holds, for at most ten seconds: a runtime
/// that never gets there fails the test's assertions instead of hanging.
template <typename Pred> void waitUntil(Pred Done) {
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Done() && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::yield();
}

TEST(ChunkLoop, RunawayStopsAtExactlyTheBudget) {
  // The speculative chunk covers about 3000 iterations, more than any
  // budget below, so it runs into the budget every invocation. Budgets
  // that are not multiples of the abort-poll stride end mid-segment.
  // Chunk 0 holds its last iteration until the speculative chunk has
  // run its budget: a chunk promoted before that would run on direct.
  for (uint64_t Budget : {1u, 255u, 257u, 1000u}) {
    SpiceRuntime RT(/*NumThreads=*/2);
    const int64_t End = 6000;
    LoopOptions O;
    O.MaxSpecIterations = Budget;
    std::atomic<uint64_t> SpecSteps{0};
    int64_t HoldAt = -1; // Chunk 0's last iteration.
    auto Loop = LoopBuilder<int64_t, uint64_t>()
                    .step([&](int64_t &I, uint64_t &S, SpecSpace &Mem) {
                      if (I >= End)
                        return false;
                      if (Mem.isSpeculative())
                        SpecSteps.fetch_add(1);
                      else if (I == HoldAt)
                        waitUntil([&] { return SpecSteps.load() >= Budget; });
                      S += static_cast<uint64_t>(I);
                      ++I;
                      return true;
                    })
                    .combine([](uint64_t &Into, uint64_t &&Chunk) {
                      Into += Chunk;
                    })
                    .options(O)
                    .build(RT);
    const uint64_t Sum = static_cast<uint64_t>(End) * (End - 1) / 2;
    unsigned Runaways = 0;
    for (int I = 0; I != 12 && Runaways != 3; ++I) {
      const SpiceStats Before = Loop.stats();
      const std::vector<int64_t> Pred = Loop.predictions();
      SpecSteps.store(0);
      HoldAt = Pred.empty() ? -1 : Pred[0] - 1;
      ASSERT_EQ(Loop.invoke(0), Sum);
      if (Pred.empty())
        continue; // Sequential: the last runaway took its row with it.
      ++Runaways;
      const SpiceStats &S = Loop.stats();
      EXPECT_EQ(S.MisspeculatedInvocations - Before.MisspeculatedInvocations,
                1u)
          << "budget " << Budget;
      // The runaway chunk's iterations are all wasted; the main thread
      // redoes its whole range sequentially.
      EXPECT_EQ(S.WastedIterations - Before.WastedIterations, Budget)
          << "budget " << Budget;
      EXPECT_EQ(S.RecoveryIterations - Before.RecoveryIterations,
                static_cast<uint64_t>(End - Pred[0]))
          << "budget " << Budget;
    }
    EXPECT_EQ(Runaways, 3u) << "budget " << Budget;
  }
}

TEST(ChunkLoop, PromotedChunkRunsPastTheBudget) {
  // The speculative chunk covers about 3000 iterations against a budget
  // of 1000. Its first iteration waits until chunk 0 has run its last
  // one, plus a margin for the resolving thread to commit chunk 0 and
  // signal the promotion, which the chunk then sees at its segment head
  // at 256. Promoted, it drops the budget and completes without a
  // Runaway. A resolving thread slower than the margin leaves the chunk
  // to run away; that invocation is still correct and is not counted.
  SpiceRuntime RT(/*NumThreads=*/2);
  const int64_t End = 6000;
  LoopOptions O;
  O.MaxSpecIterations = 1000;
  std::atomic<bool> Chunk0Done{false};
  int64_t Boundary = -1; // The speculative chunk's predicted start.
  auto Loop = LoopBuilder<int64_t, uint64_t>()
                  .step([&](int64_t &I, uint64_t &S, SpecSpace &Mem) {
                    if (I >= End)
                      return false;
                    if (!Mem.isSpeculative() && I == Boundary - 1) {
                      Chunk0Done.store(true);
                    } else if (Mem.isSpeculative() && I == Boundary) {
                      waitUntil([&] { return Chunk0Done.load(); });
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(2));
                    }
                    S += static_cast<uint64_t>(I);
                    ++I;
                    return true;
                  })
                  .combine([](uint64_t &Into, uint64_t &&Chunk) {
                    Into += Chunk;
                  })
                  .options(O)
                  .build(RT);
  const uint64_t Sum = static_cast<uint64_t>(End) * (End - 1) / 2;
  unsigned Promoted = 0;
  for (int I = 0; I != 12 && Promoted != 3; ++I) {
    const SpiceStats Before = Loop.stats();
    const std::vector<int64_t> Pred = Loop.predictions();
    Chunk0Done.store(false);
    Boundary = Pred.empty() ? -1 : Pred[0];
    ASSERT_EQ(Loop.invoke(0), Sum);
    const SpiceStats &S = Loop.stats();
    if (S.PromotedChunks == Before.PromotedChunks)
      continue;
    ++Promoted;
    ASSERT_GT(End - Boundary, 1000) << "the chunk fits in the budget";
    EXPECT_EQ(S.MisspeculatedInvocations, Before.MisspeculatedInvocations);
    EXPECT_EQ(S.WastedIterations, Before.WastedIterations);
    EXPECT_EQ(S.RecoveryIterations, Before.RecoveryIterations);
    EXPECT_EQ(S.TotalIterations - Before.TotalIterations,
              static_cast<uint64_t>(End));
  }
  EXPECT_EQ(Promoted, 3u);
}

TEST(ChunkLoop, WeightedRowsAndCountersMatchRecordedValues) {
  // sjeng under the weighted work metric: a piece costs 1 to 12 units,
  // so on the small board with 16 chunks one iteration can pass two
  // thresholds (the second row is then recorded an iteration later). The
  // board is fixed, so every chunk validates and the counters and rows
  // below depend on the inputs alone; they were recorded before the
  // chunk loop ran in segments.
  struct Recorded {
    unsigned K;
    size_t Pieces;
    double ImbalanceSum, ChunkImbalanceSum;
    std::vector<size_t> RowHeads; ///< Head index of each final row.
  };
  const Recorded Cases[] = {
      {1, 300, 7.2516240796881757, 7.2516240796881757, {24, 64, 116}},
      {4, 40, 7.472668810289389, 10.59807073954984,
       {0, 1, 2, 3, 3, 5, 6, 7, 9, 10, 12, 15, 17, 20, 30}}};
  for (const Recorded &R : Cases) {
    SjengBoard Board(R.Pieces, 83);
    SjengTraits Traits;
    SpiceRuntime RT(4);
    LoopOptions O;
    O.ChunksPerThread = R.K;
    O.UseWeightedWork = true;
    auto Loop = RT.makeLoop(Traits, O);
    const std::vector<SjengLiveIn> Heads =
        headSequence(Traits, Board.start());
    const SjengScore Want = Board.evalReference();
    unsigned Deferred = 0;
    for (int I = 0; I != 8; ++I) {
      const std::vector<SjengLiveIn> Pred = Loop.predictions();
      ModelRows<SjengLiveIn> Model;
      if (!Pred.empty())
        Model = modelRows(Heads, Pred, Loop.currentPlan(),
                          [&Traits](const SjengLiveIn &LI) {
                            return Traits.weight(LI);
                          });
      ASSERT_EQ(Loop.invoke(Board.start()), Want);
      if (!Pred.empty()) {
        ASSERT_EQ(Loop.predictions(), Model.Rows)
            << "k " << R.K << ", invocation " << I;
        Deferred += Model.Deferred;
      }
    }
    if (R.K == 4) {
      EXPECT_GT(Deferred, 0u) << "no iteration passed two thresholds";
    }
    std::vector<size_t> RowHeads;
    for (const SjengLiveIn &LI : Loop.predictions())
      RowHeads.push_back(static_cast<size_t>(
          std::find(Heads.begin(), Heads.end(), LI) - Heads.begin()));
    EXPECT_EQ(RowHeads, R.RowHeads) << "k " << R.K;
    const SpiceStats &S = Loop.stats();
    EXPECT_EQ(S.TotalIterations, 8 * R.Pieces);
    EXPECT_EQ(S.SequentialInvocations, 1u);
    EXPECT_EQ(S.FullySpeculativeInvocations, 7u);
    EXPECT_EQ(S.MisspeculatedInvocations, 0u);
    EXPECT_EQ(S.WastedIterations, 0u);
    EXPECT_DOUBLE_EQ(S.ImbalanceSum, R.ImbalanceSum) << "k " << R.K;
    EXPECT_DOUBLE_EQ(S.ChunkImbalanceSum, R.ChunkImbalanceSum)
        << "k " << R.K;
  }
}

//===----------------------------------------------------------------------===//
// Promotion: the oldest running chunk publishes its buffer and runs direct
//===----------------------------------------------------------------------===//

/// A conflict-detected loop over cells [I, N): iteration I stores Out[I]
/// = In[I], plus Out[I-1] where Dep[I] is set, all through the
/// SpecSpace, and records whether it ran direct. One invocation can be
/// gated around the speculative chunk that starts at Boundary: chunk 0's
/// last iteration waits until that chunk has run its first iteration
/// buffered, and the chunk's first execution then holds its second
/// iteration until it is promoted. Each held pass is an iteration that
/// changes nothing; at the next segment head the chunk sees the
/// promotion.
struct PromotionLoop {
  explicit PromotionLoop(int64_t N)
      : N(N), In(N), Out(N, 0), Dep(N, 0),
        Direct(std::make_unique<std::atomic<uint8_t>[]>(N)) {
    for (int64_t I = 0; I != N; ++I)
      In[I] = I % 7 + 1;
  }

  using Loop = LambdaLoop<int64_t, int64_t>;

  Loop build(SpiceRuntime &RT, unsigned K) {
    LoopOptions O;
    O.ChunksPerThread = K;
    O.EnableConflictDetection = true;
    return LoopBuilder<int64_t, int64_t>()
        .step([this](int64_t &I, int64_t &S, SpecSpace &Mem) {
          return step(I, S, Mem);
        })
        .combine([](int64_t &Into, int64_t &&Chunk) { Into += Chunk; })
        .options(O)
        .build(RT);
  }

  bool step(int64_t &I, int64_t &S, SpecSpace &Mem) {
    if (I >= N)
      return false;
    const bool Spec = Mem.isSpeculative();
    if (Boundary >= 0) {
      if (!Spec && I == Boundary - 1)
        waitUntil([this] { return SpecStarted.load(); });
      if (I == Boundary)
        ++Starts;
      if (Spec && I == Boundary + 1 && Starts == 1) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        return true; // Held: the same iteration again.
      }
    }
    int64_t V = Mem.read(&In[I]);
    if (Dep[I])
      V += Mem.read(&Out[I - 1]);
    Mem.write(&Out[I], V);
    S += V;
    Direct[I].store(!Spec);
    if (Spec && I == Boundary)
      SpecStarted.store(true);
    ++I;
    return true;
  }

  /// The sequential result from \p Start on fresh output cells.
  int64_t oracle(int64_t Start, std::vector<int64_t> &WantOut) const {
    WantOut.assign(N, 0);
    int64_t S = 0;
    for (int64_t I = Start; I != N; ++I) {
      WantOut[I] = In[I] + (Dep[I] ? WantOut[I - 1] : 0);
      S += WantOut[I];
    }
    return S;
  }

  const int64_t N;
  std::vector<int64_t> In, Out;
  std::vector<uint8_t> Dep;
  std::unique_ptr<std::atomic<uint8_t>[]> Direct;
  int64_t Boundary = -1;
  std::atomic<bool> SpecStarted{false};
  std::atomic<unsigned> Starts{0};
};

/// One gated invocation of a PromotionLoop.
struct GatedRun {
  int64_t Boundary = 0; ///< The gated chunk's start.
  int64_t End = 0;      ///< Its end: the next chunk's start, or N.
  SpiceStats Before, After;
};

/// Warms a loop with \p K chunks per thread on 2 threads with one
/// sequential invocation, then runs one gated invocation whose chunk 0
/// is 8 iterations long, on fresh output cells, and checks it against
/// the oracle. With \p Conflict the gated chunk's first iteration reads
/// the cell chunk 0's last iteration writes.
GatedRun runGated(PromotionLoop &P, unsigned K, bool Conflict) {
  SpiceRuntime RT(/*NumThreads=*/2);
  auto Loop = P.build(RT, K);
  GatedRun G;
  Loop.invoke(0);
  const std::vector<int64_t> Pred = Loop.predictions();
  EXPECT_FALSE(Pred.empty());
  if (Pred.empty())
    return G;
  G.Boundary = Pred[0];
  G.End = Pred.size() > 1 ? Pred[1] : P.N;
  const int64_t Start = G.Boundary - 8;
  P.Dep[G.Boundary] = Conflict;
  std::fill(P.Out.begin(), P.Out.end(), 0);
  P.Boundary = G.Boundary;
  G.Before = Loop.stats();
  const int64_t Got = Loop.invoke(Start);
  G.After = Loop.stats();
  P.Boundary = -1;
  std::vector<int64_t> WantOut;
  EXPECT_EQ(Got, P.oracle(Start, WantOut));
  EXPECT_EQ(P.Out, WantOut);
  return G;
}

TEST(Promotion, ChunkRunsOnDirectOncePromoted) {
  // Chunk 0 is 8 iterations and waits for the speculative chunk to run
  // its first iteration buffered, so that chunk is promoted mid-run: it
  // publishes the buffered store and writes the rest of its range
  // direct.
  for (unsigned K : {1u, 4u}) {
    SCOPED_TRACE("k " + std::to_string(K));
    PromotionLoop P(16384);
    const GatedRun G = runGated(P, K, /*Conflict=*/false);
    ASSERT_GT(G.End - G.Boundary, 2);
    EXPECT_EQ(G.After.MisspeculatedInvocations,
              G.Before.MisspeculatedInvocations);
    EXPECT_GT(G.After.PromotedChunks, G.Before.PromotedChunks);
    EXPECT_EQ(P.Direct[G.Boundary].load(), 0) << "first iteration buffered";
    for (int64_t I = G.Boundary + 1; I != G.End; ++I)
      ASSERT_EQ(P.Direct[I].load(), 1) << "iteration " << I;
  }
}

/// The speculative chunk reads the cell chunk 0's last iteration writes
/// before chunk 0 writes it, so its promotion-time validation fails and
/// it stops at that segment head instead of running its whole range.
GatedRun runConflictAtPromotion(PromotionLoop &P, unsigned K) {
  GatedRun G = runGated(P, K, /*Conflict=*/true);
  const uint64_t Length = static_cast<uint64_t>(G.End - G.Boundary);
  EXPECT_EQ(G.After.ConflictSquashes - G.Before.ConflictSquashes, 1u);
  EXPECT_EQ(G.After.MisspeculatedInvocations -
                G.Before.MisspeculatedInvocations,
            1u);
  const uint64_t Wasted = G.After.WastedIterations - G.Before.WastedIterations;
  EXPECT_GT(Wasted, 0u);
  EXPECT_LT(Wasted, Length);
  return G;
}

TEST(Promotion, ConflictAtPromotionRecoversSerially) {
  // k = 1: the resolving thread redoes the rest of the loop.
  PromotionLoop P(16384);
  const GatedRun G = runConflictAtPromotion(P, 1);
  EXPECT_EQ(G.After.RecoveryChunks, 0u);
  EXPECT_EQ(G.After.RecoveryIterations - G.Before.RecoveryIterations,
            static_cast<uint64_t>(P.N - G.Boundary));
}

TEST(Promotion, ConflictAtPromotionRequeuesTheChunkPromoted) {
  // k = 4: the chunk is requeued still promoted, so its re-execution
  // runs direct from its first segment head.
  PromotionLoop P(16384);
  const GatedRun G = runConflictAtPromotion(P, 4);
  EXPECT_EQ(G.After.RecoveryChunks - G.Before.RecoveryChunks, 1u);
  EXPECT_EQ(G.After.RecoveryIterations - G.Before.RecoveryIterations,
            static_cast<uint64_t>(G.End - G.Boundary));
  EXPECT_GT(G.After.PromotedChunks, G.Before.PromotedChunks);
  for (int64_t I = G.Boundary; I != G.End; ++I)
    ASSERT_EQ(P.Direct[I].load(), 1) << "iteration " << I;
}
