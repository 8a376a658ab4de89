//===- tests/reuse_stress_test.cpp - Buffer/session reuse stress ----------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Leak/reuse stress for the hot submit path: one loop re-invoked many
// thousands of times through submit() must reach a steady state where
// the runtime stops allocating -- speculative-buffer tables keep their
// capacity (no growth, no rehashes after warm-up) and worker sessions
// come from the pool freelist instead of the heap. The high-water-mark
// assertions below are what "reusable across invocations" means in
// numbers; a regression that re-allocates per submit shows up here as a
// creeping counter long before it shows up on a profile.
//
//===----------------------------------------------------------------------===//

#include "core/LoopBuilder.h"
#include "core/SpiceRuntime.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using namespace spice;
using namespace spice::core;

namespace {

constexpr int64_t NumIters = 4096;
constexpr int WarmupInvocations = 200;
constexpr int StressInvocations = 10000;

} // namespace

TEST(ReuseStress, BufferAndSessionHighWaterMarksStabilize) {
  SpiceRuntime RT(/*NumThreads=*/4);
  // Each iteration adds to its own counter cell: speculative chunks
  // buffer the delta in their SpecWriteBuffer (hundreds of live
  // entries per chunk, well past inline storage), yet never conflict,
  // so every invocation after bootstrap runs parallel.
  std::vector<uint64_t> Counters(NumIters, 0);
  auto Sum = LoopBuilder<int64_t, uint64_t>()
                 .step([&](int64_t &I, uint64_t &S, SpecSpace &Mem) {
                   if (I >= NumIters)
                     return false;
                   Mem.add(&Counters[static_cast<size_t>(I)], uint64_t{1});
                   S += static_cast<uint64_t>(I);
                   ++I;
                   return true;
                 })
                 .combine([](uint64_t &Into, uint64_t &&Chunk) {
                   Into += Chunk;
                 })
                 .build(RT);

  const uint64_t Want =
      static_cast<uint64_t>(NumIters) * (NumIters - 1) / 2;
  for (int I = 0; I != WarmupInvocations; ++I)
    ASSERT_EQ(Sum.submit(0).get(), Want);

  const SpecBufferPoolStats BufPre = Sum.bufferPoolStats();
  const SessionPoolStats SessPre = RT.pool().sessionPoolStats();
  EXPECT_GT(BufPre.Buffers, 0u);
  EXPECT_GT(BufPre.TableSlots, 0u);
  EXPECT_GT(BufPre.HeapTables, 0u)
      << "this workload is sized to outgrow inline buffer storage";

  for (int I = 0; I != StressInvocations; ++I)
    ASSERT_EQ(Sum.submit(0).get(), Want);

  const SpecBufferPoolStats BufPost = Sum.bufferPoolStats();
  const SessionPoolStats SessPost = RT.pool().sessionPoolStats();

  // Speculative buffers: capacity is a high-water mark. After warm-up
  // the working set is known, so 10k more invocations must not grow a
  // table or rehash even once.
  EXPECT_EQ(BufPost.Buffers, BufPre.Buffers);
  EXPECT_EQ(BufPost.TableSlots, BufPre.TableSlots);
  EXPECT_EQ(BufPost.Rehashes, BufPre.Rehashes);
  EXPECT_EQ(BufPost.HeapTables, BufPre.HeapTables);

  // Worker sessions: a sole client at steady state is served entirely
  // from the freelist -- zero new sessions, one pool hit per parallel
  // invocation (a small slack covers rare sequential re-bootstraps).
  EXPECT_EQ(BufPost.Buffers, BufPre.Buffers);
  EXPECT_EQ(SessPost.SessionsCreated, SessPre.SessionsCreated)
      << "steady-state submits must not allocate sessions";
  EXPECT_GE(SessPost.SessionPoolHits,
            SessPre.SessionPoolHits + StressInvocations * 9 / 10);

  // The counters prove exactly-once commits across all invocations.
  const uint64_t Total =
      static_cast<uint64_t>(WarmupInvocations + StressInvocations);
  for (int64_t I = 0; I != NumIters; ++I)
    ASSERT_EQ(Counters[static_cast<size_t>(I)], Total)
        << "counter " << I;
}
