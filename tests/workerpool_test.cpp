//===- tests/workerpool_test.cpp - WorkerPool tests -----------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/WorkerPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

using namespace spice::core;

TEST(WorkerPool, RunsEveryWorkerExactlyOnce) {
  WorkerPool Pool(4);
  std::vector<std::atomic<int>> Hits(4);
  Pool.launch(4, [&](unsigned I) { Hits[I].fetch_add(1); });
  Pool.wait();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(WorkerPool, PartialLaunchLeavesOthersParked) {
  WorkerPool Pool(4);
  std::vector<std::atomic<int>> Hits(4);
  Pool.launch(2, [&](unsigned I) { Hits[I].fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Hits[0].load(), 1);
  EXPECT_EQ(Hits[1].load(), 1);
  EXPECT_EQ(Hits[2].load(), 0);
  EXPECT_EQ(Hits[3].load(), 0);
}

TEST(WorkerPool, ReusableAcrossManyLaunches) {
  WorkerPool Pool(3);
  std::atomic<uint64_t> Sum{0};
  for (int Round = 0; Round != 200; ++Round) {
    Pool.launch(3, [&](unsigned I) { Sum.fetch_add(I + 1); });
    Pool.wait();
  }
  EXPECT_EQ(Sum.load(), 200u * (1 + 2 + 3));
}

TEST(WorkerPool, ZeroCountLaunchIsANoop) {
  WorkerPool Pool(2);
  Pool.launch(0, [&](unsigned) { ADD_FAILURE() << "no worker should run"; });
  Pool.wait();
}

TEST(WorkerPool, CallerRunsConcurrentlyWithWorkers) {
  WorkerPool Pool(1);
  std::atomic<bool> WorkerSawFlag{false};
  std::atomic<bool> Flag{false};
  Pool.launch(1, [&](unsigned) {
    // Wait (bounded) for the caller to set the flag after launch.
    for (int I = 0; I != 1'000'000 && !Flag.load(); ++I)
      std::this_thread::yield();
    WorkerSawFlag = Flag.load();
  });
  Flag = true; // If launch() blocked until completion, this would be late.
  Pool.wait();
  EXPECT_TRUE(WorkerSawFlag.load());
}

TEST(WorkerPool, DestructionJoinsCleanly) {
  for (int I = 0; I != 20; ++I) {
    WorkerPool Pool(2);
    std::atomic<int> N{0};
    Pool.launch(2, [&](unsigned) { N.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(N.load(), 2);
  }
}

TEST(WorkerPoolDeathTest, ThrowingWorkerStartHookAborts) {
  // A WorkerStartHook that throws during pool start has no unwind path
  // (workers never propagate exceptions); it must abort loudly with the
  // hook's message instead of calling std::terminate with no context --
  // or worse, wedging the pool with fewer workers than it advertises.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WorkerPool Pool(2, [](unsigned Index) {
          if (Index == 1)
            throw std::runtime_error("pinning failed: no such node");
        });
        // The destructor joins the workers, so the block cannot exit
        // normally: worker 1 runs the hook before its first park.
      },
      "WorkerStartHook threw during worker start.*no such node");
}

TEST(WorkerPoolDeathTest, ReentrantLaunchAborts) {
  // A second launch before wait() is a protocol violation: it must die
  // with a diagnostic instead of clobbering the in-flight job (UB).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WorkerPool Pool(2);
        Pool.launch(2, [](unsigned) {});
        Pool.launch(2, [](unsigned) {}); // No wait(): must abort.
      },
      "launch");
}

//===----------------------------------------------------------------------===//
// Chunk deques and work stealing
//===----------------------------------------------------------------------===//

TEST(WorkerPoolQueues, OwnLanePopsInFifoOrder) {
  WorkerPool Pool(0); // Queues work without any worker threads.
  Pool.resetQueues(1);
  Pool.pushChunk(0, 1);
  Pool.pushChunk(0, 2);
  Pool.pushChunk(0, 3);
  Pool.closeQueues();
  uint32_t C = 0;
  bool Stolen = true;
  ASSERT_TRUE(Pool.acquireChunk(0, C, Stolen));
  EXPECT_EQ(C, 1u);
  EXPECT_FALSE(Stolen);
  ASSERT_TRUE(Pool.acquireChunk(0, C, Stolen));
  EXPECT_EQ(C, 2u);
  ASSERT_TRUE(Pool.acquireChunk(0, C, Stolen));
  EXPECT_EQ(C, 3u);
  EXPECT_FALSE(Pool.acquireChunk(0, C, Stolen)) << "closed and drained";
}

TEST(WorkerPoolQueues, StealsMostSpeculativeChunkFromTheBack) {
  WorkerPool Pool(0);
  Pool.resetQueues(2);
  Pool.pushChunk(0, 1); // Lane 0 holds {1, 3}; lane 1 is empty.
  Pool.pushChunk(0, 3);
  Pool.closeQueues();
  uint32_t C = 0;
  bool Stolen = false;
  ASSERT_TRUE(Pool.acquireChunk(1, C, Stolen));
  EXPECT_EQ(C, 3u) << "thief takes the back, leaving 1 to its owner";
  EXPECT_TRUE(Stolen);
  ASSERT_TRUE(Pool.acquireChunk(0, C, Stolen));
  EXPECT_EQ(C, 1u);
  EXPECT_FALSE(Stolen);
}

TEST(WorkerPoolQueues, StealingCanBeDisabled) {
  // ChunksPerThread == 1 runs the paper's fixed schedule: a worker with
  // an empty lane must not poach from its neighbours.
  WorkerPool Pool(0);
  Pool.resetQueues(2, /*AllowStealing=*/false);
  Pool.pushChunk(0, 1);
  Pool.closeQueues();
  uint32_t C = 0;
  bool Stolen = false;
  EXPECT_FALSE(Pool.acquireChunk(1, C, Stolen));
  ASSERT_TRUE(Pool.acquireChunk(0, C, Stolen));
  EXPECT_EQ(C, 1u);
}

TEST(WorkerPoolQueues, HelpPopFrontPrefersOldestChunkAcrossLanes) {
  WorkerPool Pool(0);
  Pool.resetQueues(3);
  Pool.pushChunk(2, 2); // Fronts are 2, 5, 4; oldest pending is 2.
  Pool.pushChunk(0, 5);
  Pool.pushChunk(1, 4);
  Pool.pushChunk(2, 7);
  uint32_t C = 0;
  ASSERT_TRUE(Pool.helpPopFront(C));
  EXPECT_EQ(C, 2u);
  ASSERT_TRUE(Pool.helpPopFront(C));
  EXPECT_EQ(C, 4u);
  ASSERT_TRUE(Pool.helpPopFront(C));
  EXPECT_EQ(C, 5u);
  ASSERT_TRUE(Pool.helpPopFront(C));
  EXPECT_EQ(C, 7u);
  EXPECT_FALSE(Pool.helpPopFront(C));
  EXPECT_EQ(Pool.pendingChunks(), 0u);
}

TEST(WorkerPoolQueues, AcquireBlocksUntilLateWorkOrClose) {
  // A worker parked in acquireChunk must pick up work pushed after it
  // started waiting (the recovery re-enqueue path), then exit on close.
  WorkerPool Pool(1);
  Pool.resetQueues(1);
  std::vector<uint32_t> Got;
  Pool.launch(1, [&](unsigned Lane) {
    uint32_t C;
    bool Stolen;
    while (Pool.acquireChunk(Lane, C, Stolen))
      Got.push_back(C);
  });
  Pool.pushChunk(0, 11);
  Pool.pushChunk(0, 12);
  Pool.closeQueues();
  Pool.wait();
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0], 11u);
  EXPECT_EQ(Got[1], 12u);
}

TEST(WorkerPoolQueues, OversubscribedDrainExecutesEveryChunkOnce) {
  // 64 chunks on 3 workers with stealing: every chunk runs exactly once.
  WorkerPool Pool(3);
  Pool.resetQueues(3);
  std::vector<std::atomic<int>> Hits(64);
  for (uint32_t C = 0; C != 64; ++C)
    Pool.pushChunk(C % 3, C);
  Pool.closeQueues();
  std::atomic<int> StolenCount{0};
  Pool.launch(3, [&](unsigned Lane) {
    uint32_t C;
    bool Stolen;
    while (Pool.acquireChunk(Lane, C, Stolen)) {
      Hits[C].fetch_add(1);
      if (Stolen)
        StolenCount.fetch_add(1);
    }
  });
  Pool.wait();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  EXPECT_EQ(Pool.pendingChunks(), 0u);
}

//===----------------------------------------------------------------------===//
// Mailbox wake-ups and the lock-free join
//===----------------------------------------------------------------------===//

namespace {

/// A random pause of 0-60 us: sometimes none (the worker is still
/// spinning when the next post lands), sometimes past the spin budget
/// (it has parked in the kernel).
void jitter(std::mt19937 &Rng) {
  switch (Rng() % 4) {
  case 0:
    return;
  case 1:
    std::this_thread::yield();
    return;
  default:
    std::this_thread::sleep_for(std::chrono::microseconds(Rng() % 60));
  }
}

} // namespace

TEST(WorkerPoolWake, NoLostWakeupsUnderConcurrentSessions) {
  // Three clients lease, launch and join on one pool thousands of times,
  // pausing at random around launch() so posts race both spinning and
  // parked workers and joins race the last worker's decrement. A lost
  // wake-up hangs the test; a lost or doubled job breaks the counts.
  constexpr unsigned Clients = 3, Rounds = 1500;
  WorkerPool Pool(4);
  std::atomic<uint64_t> Executed{0}, Expected{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      std::mt19937 Rng(1234 + T);
      for (unsigned R = 0; R != Rounds; ++R) {
        WorkerPool::SessionHandle S =
            Pool.acquireSession(1 + Rng() % 2, /*AllowStealing=*/R % 2 == 0);
        const uint32_t Chunks = 1 + Rng() % 4;
        for (uint32_t C = 0; C != Chunks; ++C)
          S->pushChunk(C % S->lanes(), C);
        // Half the rounds close before launch (jobs end with their
        // chunks), half after (workers may park in acquireChunk).
        const bool CloseFirst = Rng() % 2;
        if (CloseFirst)
          S->closeQueues();
        jitter(Rng);
        S->launch([&Sess = *S, &Executed](unsigned Lane) {
          uint32_t C;
          bool Stolen;
          while (Sess.acquireChunk(Lane, C, Stolen))
            Executed.fetch_add(1, std::memory_order_relaxed);
        });
        jitter(Rng);
        if (!CloseFirst)
          S->closeQueues();
        S->wait();
        Expected.fetch_add(Chunks, std::memory_order_relaxed);
        ASSERT_EQ(S->pendingChunks(), 0u);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Executed.load(), Expected.load());
  EXPECT_EQ(Pool.freeWorkers(), 4u);
}

TEST(WorkerPoolWake, DestructionWhileWorkersAreParked) {
  for (int I = 0; I != 5; ++I) {
    WorkerPool Pool(3);
    std::atomic<int> N{0};
    {
      WorkerPool::SessionHandle S = Pool.acquireSession(3, true);
      S->closeQueues();
      S->launch([&](unsigned) { N.fetch_add(1); });
      S->wait();
    }
    // Far past the spin budget: every worker is parked in
    // the kernel when the destructor posts the shutdown.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(N.load(), 3);
  }
}

TEST(WorkerPoolWake, DestructionWhileWorkersAreStillSpinning) {
  // No pause after the join: the workers have just decremented the
  // join counter and are still in their spin phase (or about to enter
  // it) when the shutdown post lands.
  for (int I = 0; I != 50; ++I) {
    WorkerPool Pool(3);
    std::atomic<int> N{0};
    Pool.launch(3, [&](unsigned) { N.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(N.load(), 3);
  }
  for (int I = 0; I != 50; ++I) {
    WorkerPool Pool(2); // Never launched: shut down from the first spin.
  }
}

TEST(WorkerPoolWake, QueuesClosedBeforeLaunchEndEveryJob) {
  // The k = 1 schedule: chunks queued and the deques closed before
  // launch, stealing off, some lanes empty. Every worker's job must
  // return by itself -- no closeQueues() after launch -- and wait() must
  // return. Then reopen and re-launch the same lease, as batch elements
  // do.
  WorkerPool Pool(4);
  WorkerPool::SessionHandle S =
      Pool.acquireSession(4, /*AllowStealing=*/false);
  ASSERT_EQ(S->lanes(), 4u);
  for (int Round = 0; Round != 20; ++Round) {
    if (Round)
      S->reopenQueues();
    const uint32_t Chunks = 1 + Round % 4; // Lanes >= Chunks stay empty.
    for (uint32_t C = 0; C != Chunks; ++C)
      S->pushChunk(C, C);
    S->closeQueues();
    std::atomic<unsigned> Returned{0}, Ran{0};
    S->launch([&](unsigned Lane) {
      uint32_t C;
      bool Stolen;
      while (S->acquireChunk(Lane, C, Stolen)) {
        EXPECT_EQ(C, Lane) << "stealing is off";
        Ran.fetch_add(1);
      }
      Returned.fetch_add(1);
    });
    S->wait();
    EXPECT_EQ(Returned.load(), 4u) << "every job returned on its own";
    EXPECT_EQ(Ran.load(), Chunks);
  }
}

#if defined(__linux__)

namespace {

/// CPUs the calling thread may run on.
cpu_set_t ownCpus() {
  cpu_set_t M;
  CPU_ZERO(&M);
  EXPECT_EQ(sched_getaffinity(0, sizeof(M), &M), 0);
  return M;
}

std::vector<int> cpuList(const cpu_set_t &M) {
  std::vector<int> Cpus;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &M))
      Cpus.push_back(C);
  return Cpus;
}

cpu_set_t maskOf(const std::vector<int> &Cpus) {
  cpu_set_t M;
  CPU_ZERO(&M);
  for (int C : Cpus)
    CPU_SET(C, &M);
  return M;
}

void pinSelf(const cpu_set_t &M) {
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(M), &M), 0);
}

/// Leases every worker of \p Pool and runs \p Job(Lane) on each.
template <typename Fn> void runOnEveryWorker(WorkerPool &Pool, Fn Job) {
  WorkerPool::SessionHandle S = Pool.acquireSession(Pool.size(), true);
  S->closeQueues();
  S->launch([&](unsigned Lane) { Job(Lane); });
  S->wait();
}

/// Each worker's CPU mask as the worker itself sees it inside a job
/// launched by the calling thread.
std::vector<cpu_set_t> workerMasks(WorkerPool &Pool) {
  std::vector<cpu_set_t> Masks(Pool.size());
  runOnEveryWorker(Pool, [&](unsigned Lane) {
    EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(cpu_set_t),
                                     &Masks[Lane]),
              0);
  });
  return Masks;
}

/// From a client thread pinned to \p Cpu: first a job that pins every
/// worker to \p LastRun, so each finishes it there, then the masks the
/// workers see in the next launch.
std::vector<cpu_set_t> masksAfterLaunchFrom(WorkerPool &Pool, int Cpu,
                                            int LastRun) {
  std::vector<cpu_set_t> Masks;
  std::thread Client([&] {
    pinSelf(maskOf({Cpu}));
    runOnEveryWorker(Pool, [&](unsigned) { pinSelf(maskOf({LastRun})); });
    Masks = workerMasks(Pool);
  });
  Client.join();
  return Masks;
}

} // namespace

TEST(WorkerPoolAffinity, LaunchMovesWorkersOffTheCallersCpu) {
  const std::vector<int> All = cpuList(ownCpus());
  if (All.size() < 2)
    GTEST_SKIP() << "needs at least 2 CPUs";
  WorkerPool Pool(2);
  // First and last CPU: the second round moves the exclusion.
  for (int C : {All.front(), All.back()}) {
    std::vector<int> Rest;
    for (int Other : All)
      if (Other != C)
        Rest.push_back(Other);
    const cpu_set_t Want = maskOf(Rest);
    for (const cpu_set_t &M : masksAfterLaunchFrom(Pool, C, C)) {
      EXPECT_FALSE(CPU_ISSET(C, &M)) << "worker may run on caller CPU " << C;
      EXPECT_TRUE(CPU_EQUAL(&M, &Want)) << "only the caller CPU is removed";
    }
  }
}

TEST(WorkerPoolAffinity, WorkerThatRanElsewhereKeepsItsMask) {
  // No mask update when the worker last ran on another CPU: clients on
  // several CPUs sharing a worker must not pay one on every launch.
  const std::vector<int> All = cpuList(ownCpus());
  if (All.size() < 2)
    GTEST_SKIP() << "needs at least 2 CPUs";
  WorkerPool Pool(2);
  const cpu_set_t Second = maskOf({All[1]});
  for (const cpu_set_t &M : masksAfterLaunchFrom(Pool, All[0], All[1]))
    EXPECT_TRUE(CPU_EQUAL(&M, &Second)) << "mask left as it was";
}

TEST(WorkerPoolAffinity, StartHookSubsetIsKeptMinusTheCallersCpu) {
  const std::vector<int> All = cpuList(ownCpus());
  if (All.size() < 2)
    GTEST_SKIP() << "needs at least 2 CPUs";
  // Pin every worker to the first two CPUs, as topology pinning would.
  const cpu_set_t Subset = maskOf({All[0], All[1]});
  WorkerPool Pool(2, [&](unsigned) { pinSelf(Subset); });
  const cpu_set_t Second = maskOf({All[1]});
  for (const cpu_set_t &M : masksAfterLaunchFrom(Pool, All[0], All[0]))
    EXPECT_TRUE(CPU_EQUAL(&M, &Second)) << "hook subset minus the caller";
}

TEST(WorkerPoolAffinity, SingleCpuMaskIsLeftAlone) {
  const std::vector<int> All = cpuList(ownCpus());
  if (All.size() < 2)
    GTEST_SKIP() << "needs at least 2 CPUs";
  const cpu_set_t One = maskOf({All[0]});
  WorkerPool Pool(2, [&](unsigned) { pinSelf(One); });
  for (const cpu_set_t &M : masksAfterLaunchFrom(Pool, All[0], All[0]))
    EXPECT_TRUE(CPU_EQUAL(&M, &One)) << "a one-CPU worker stays pinned";
}

#endif // defined(__linux__)
