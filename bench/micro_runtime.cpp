//===- bench/micro_runtime.cpp - Runtime primitive microbenchmarks --------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark micro measurements of the native runtime's primitives:
// the per-iteration detection compare at live-in widths 1..8 (the paper's
// sjeng overhead discussion), speculative write-buffer operations, the
// re-memoization planner, worker-pool invocation round trips, and the
// scheduler hot path (submit()/SpiceFuture round trips, solo and under a
// contending client, plus the submitBatch() amortization of both). The
// submit and batch round trips are additionally hand-timed into
// BENCH_micro_runtime.json so the scheduler hot path is tracked in the
// per-commit perf artifacts (scripts/compare_bench.py reports them),
// alongside the JIT tier's compile costs: jit_cold_compile_ns (first
// CodeCache::getOrCompile of a loop -- lift, passes, lowering) vs
// jit_cache_hit_compile_ns (every warm re-lookup of the same key). The
// chunk-execution phase is probed the same way: spec_chunk_ns_per_iter
// (a node inside a speculative chunk) against seq_step_ns_per_iter (a
// node of the plain sequential loop), and the buffer's share of it:
// buffered_step_ns_per_iter (a packet through a SpecWriteBuffer,
// validate and commit included) against direct_step_ns_per_iter (the
// same packet direct); reported, not gated.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Planner.h"
#include "core/SpecWriteBuffer.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "core/WorkerPool.h"
#include "jit/CodeCache.h"
#include "transform/CanonicalLoop.h"
#include "workloads/IRWorkloads.h"
#include "workloads/Otter.h"
#include "workloads/Packets.h"
#include "workloads/Sjeng.h"

#include <algorithm>
#include <atomic>
#include <benchmark/benchmark.h>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;

namespace {

/// Tiny fixed-trip loop: short enough that the submission/lease overhead
/// is a visible share of the round trip.
struct MicroCountTraits {
  using LiveIn = int64_t;
  struct State {
    uint64_t Sum = 0;
  };
  int64_t Trip = 256;

  State initialState() { return {}; }
  bool step(LiveIn &I, State &S, SpecSpace &) {
    if (I >= Trip)
      return false;
    S.Sum += static_cast<uint64_t>(I);
    ++I;
    return true;
  }
  void combine(State &Into, State &&Chunk) { Into.Sum += Chunk.Sum; }
};

/// Live-in tuple of parameterizable width.
template <unsigned W> struct WideLiveIn {
  int64_t V[W];
  bool operator==(const WideLiveIn &O) const {
    for (unsigned I = 0; I != W; ++I)
      if (V[I] != O.V[I])
        return false;
    return true;
  }
};

template <unsigned W> void BM_DetectionCompare(benchmark::State &State) {
  WideLiveIn<W> A{}, B{};
  for (unsigned I = 0; I != W; ++I)
    A.V[I] = B.V[I] = I * 7;
  B.V[W - 1] ^= 1; // Mismatch on the last word: worst case.
  for (auto _ : State) {
    benchmark::DoNotOptimize(A == B);
    A.V[0] ^= 1; // Defeat hoisting.
  }
}

void BM_SpecBufferWrite(benchmark::State &State) {
  std::vector<int64_t> Cells(1024, 0);
  SpecWriteBuffer Buf;
  size_t I = 0;
  for (auto _ : State) {
    Buf.write(&Cells[I & 1023], static_cast<int64_t>(I));
    if ((++I & 1023) == 0)
      Buf.clear();
  }
}

void BM_SpecBufferReadOwnWrite(benchmark::State &State) {
  int64_t Cell = 0;
  SpecWriteBuffer Buf;
  Buf.write(&Cell, int64_t{42});
  for (auto _ : State)
    benchmark::DoNotOptimize(Buf.read(&Cell));
}

void BM_SpecBufferValidate(benchmark::State &State) {
  std::vector<int64_t> Cells(static_cast<size_t>(State.range(0)), 7);
  SpecWriteBuffer Buf;
  for (int64_t &C : Cells)
    benchmark::DoNotOptimize(Buf.read(&C));
  for (auto _ : State)
    benchmark::DoNotOptimize(Buf.validateReads());
}

void BM_PlannerCompute(benchmark::State &State) {
  std::vector<uint64_t> Work = {1000, 900, 1100, 1000};
  for (auto _ : State) {
    MemoizationPlan Plan = planMemoization(Work, 4);
    benchmark::DoNotOptimize(Plan);
  }
}

void BM_WorkerPoolRoundTrip(benchmark::State &State) {
  WorkerPool Pool(3);
  std::atomic<uint64_t> Sink{0};
  for (auto _ : State) {
    Pool.launch(3, [&](unsigned I) { Sink.fetch_add(I); });
    Pool.wait();
  }
}

void BM_SessionRoundTrip(benchmark::State &State) {
  // Per-invocation cost of the shared-pool path: lease lanes, launch,
  // wait, release (what every parallel invocation pays underneath).
  WorkerPool Pool(3);
  std::atomic<uint64_t> Sink{0};
  for (auto _ : State) {
    WorkerPool::SessionHandle S =
        Pool.acquireSession(3, /*AllowStealing=*/true);
    S->closeQueues();
    S->launch([&](unsigned I) { Sink.fetch_add(I); });
    S->wait();
  }
}

void BM_SubmitRoundTrip(benchmark::State &State) {
  // The scheduler hot path, uncontended: submit (admission + immediate
  // grant + chunk launch) and drive the future to completion -- what
  // every invoke() pays on top of the loop work itself.
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits;
  auto Loop = RT.makeLoop(Traits);
  Loop.invoke(0); // Warm: submissions request lanes from here on.
  for (auto _ : State) {
    SpiceFuture<MicroCountTraits::State> F = Loop.submit(0);
    benchmark::DoNotOptimize(F.get().Sum);
  }
}

void BM_SubmitRoundTripContended(benchmark::State &State) {
  // Same round trip with a second client thread hammering its own loop
  // on the same runtime: submissions queue at the scheduler and grants
  // ride the deferred (release-hook) path.
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits, BgTraits;
  auto Loop = RT.makeLoop(Traits);
  auto BgLoop = RT.makeLoop(BgTraits);
  Loop.invoke(0);
  BgLoop.invoke(0);
  std::atomic<bool> Stop{false};
  std::thread Bg([&] {
    while (!Stop.load(std::memory_order_relaxed))
      benchmark::DoNotOptimize(BgLoop.submit(0).get().Sum);
  });
  for (auto _ : State) {
    SpiceFuture<MicroCountTraits::State> F = Loop.submit(0);
    benchmark::DoNotOptimize(F.get().Sum);
  }
  Stop.store(true);
  Bg.join();
}

void BM_BatchSubmitRoundTrip(benchmark::State &State) {
  // submitBatch(N).take(): one admission and one lane lease shared by N
  // invocations. Reported per *batch*; divide by the batch size to
  // compare against BM_SubmitRoundTrip.
  const size_t N = static_cast<size_t>(State.range(0));
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits;
  auto Loop = RT.makeLoop(Traits);
  Loop.invoke(0);
  std::vector<int64_t> Starts(N, 0);
  for (auto _ : State) {
    SpiceBatchFuture<MicroCountTraits::State> F = Loop.submitBatch(Starts);
    benchmark::DoNotOptimize(F.take());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}

void BM_SjengEvalStep(benchmark::State &State) {
  workloads::SjengBoard Board(256, 3);
  workloads::SjengLiveIn LI = Board.start();
  workloads::SjengScore S;
  for (auto _ : State) {
    if (!LI.Cursor)
      LI = Board.start();
    workloads::sjengEvalStep(LI, S);
    benchmark::DoNotOptimize(S);
  }
}

/// Hand-timed median of the CodeCache paths on the otter IR loop: cold
/// is the full getOrCompile pipeline (frontend -> passes -> backend)
/// into a fresh cache, warm is a repeat getOrCompile hitting the same
/// (function, region, options-hash) key -- the price every re-submitted
/// serving invocation actually pays.
uint64_t medianJitCompileNanos(int Reps, bool Warm) {
  using Clock = std::chrono::steady_clock;
  ir::Module M;
  workloads::OtterIR W(/*ListSize=*/64, /*Seed=*/5);
  ir::Function *F = W.build(M);
  auto CL = transform::matchCanonicalLoop(*F);
  assert(CL && "otter loop must match the canonical shape");
  core::LoopOptions Opts;
  jit::CodeCache WarmCache;
  if (Warm)
    (void)WarmCache.getOrCompile(*CL, Opts);
  std::vector<uint64_t> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    jit::CodeCache ColdCache;
    jit::CodeCache &Cache = Warm ? WarmCache : ColdCache;
    Clock::time_point T0 = Clock::now();
    auto Unit = Cache.getOrCompile(*CL, Opts);
    Nanos[static_cast<size_t>(I)] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
    benchmark::DoNotOptimize(Unit);
  }
  std::nth_element(Nanos.begin(), Nanos.begin() + Reps / 2, Nanos.end());
  return Nanos[static_cast<size_t>(Reps / 2)];
}

/// Times \p Reps repetitions of \p Body (each covering \p OpsPerRep
/// individual operations) and returns the median per-operation cost in
/// nanoseconds. Small enough batches of cheap ops would disappear under
/// clock overhead, hence the batching.
template <typename Fn>
uint64_t medianOpNanos(int Reps, uint64_t OpsPerRep, Fn &&Body) {
  using Clock = std::chrono::steady_clock;
  std::vector<uint64_t> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    Body();
    Nanos[static_cast<size_t>(I)] =
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - T0)
                .count()) /
        OpsPerRep;
  }
  std::nth_element(Nanos.begin(), Nanos.begin() + Reps / 2, Nanos.end());
  return Nanos[static_cast<size_t>(Reps / 2)];
}

constexpr size_t SpecBenchAddrs = 48;
constexpr int SpecBenchRounds = 64;

/// Per-write cost over a realistic chunk lifetime: 48 distinct
/// addresses inserted fresh each generation, with the (cheap, O(live))
/// clear amortized in -- i.e. what a reused buffer pays per buffered
/// store at steady state.
uint64_t specWriteNanos(int Reps) {
  std::vector<int64_t> Cells(SpecBenchAddrs, 0);
  SpecWriteBuffer Buf;
  return medianOpNanos(
      Reps, SpecBenchAddrs * SpecBenchRounds, [&] {
        for (int R = 0; R != SpecBenchRounds; ++R) {
          for (size_t I = 0; I != SpecBenchAddrs; ++I)
            Buf.write(&Cells[I], static_cast<int64_t>(I + R));
          Buf.clear();
        }
      });
}

/// Per-read cost when the address is in the write log (read-own-write).
uint64_t specReadHitNanos(int Reps) {
  std::vector<int64_t> Cells(SpecBenchAddrs, 0);
  SpecWriteBuffer Buf;
  for (size_t I = 0; I != SpecBenchAddrs; ++I)
    Buf.write(&Cells[I], static_cast<int64_t>(I));
  return medianOpNanos(
      Reps, SpecBenchAddrs * SpecBenchRounds, [&] {
        for (int R = 0; R != SpecBenchRounds; ++R)
          for (size_t I = 0; I != SpecBenchAddrs; ++I)
            benchmark::DoNotOptimize(Buf.read(&Cells[I]));
      });
}

/// Per-read cost when the address was never written: probe, shared
/// load, and the already-logged check (steady state after the first
/// read of each address).
uint64_t specReadMissNanos(int Reps) {
  std::vector<int64_t> Cells(SpecBenchAddrs, 7);
  SpecWriteBuffer Buf;
  for (int64_t &C : Cells)
    benchmark::DoNotOptimize(Buf.read(&C));
  return medianOpNanos(
      Reps, SpecBenchAddrs * SpecBenchRounds, [&] {
        for (int R = 0; R != SpecBenchRounds; ++R)
          for (size_t I = 0; I != SpecBenchAddrs; ++I)
            benchmark::DoNotOptimize(Buf.read(&Cells[I]));
      });
}

/// Per-live-entry cost of the populate-then-clear cycle on a reused
/// buffer: what the generation-stamp clear (plus the re-inserts it
/// enables) costs compared to throwing buffers away.
uint64_t specClearReuseNanos(int Reps) {
  constexpr size_t Live = 32;
  std::vector<int64_t> Cells(Live, 0);
  SpecWriteBuffer Buf;
  return medianOpNanos(Reps, Live * SpecBenchRounds, [&] {
    for (int R = 0; R != SpecBenchRounds; ++R) {
      for (size_t I = 0; I != Live; ++I)
        Buf.write(&Cells[I], static_cast<int64_t>(R));
      Buf.clear();
    }
  });
}

/// The chunk-execution phase in ns per node, on a 1M-node otter list.
struct ChunkPhaseNanos {
  /// A warmed 2-thread invocation's median time over the nodes one lane
  /// covers (half the list): the per-lane cost of a chunk, dispatch and
  /// join included.
  double SpecChunkPerIter = 0;
  /// runSequentialReference's median time over all nodes.
  double SeqStepPerIter = 0;
};

ChunkPhaseNanos chunkPhaseNanos(int Reps) {
  constexpr size_t Nodes = 1'000'000;
  workloads::ClauseList List(Nodes, /*Seed=*/7);
  workloads::OtterTraits Traits;
  SpiceRuntime RT(/*NumThreads=*/2);
  auto Loop = RT.makeLoop(Traits);
  // Bootstrap, then let the plan balance the two chunks.
  for (int I = 0; I != 4; ++I)
    benchmark::DoNotOptimize(Loop.invoke(List.head()));
  ChunkPhaseNanos R;
  R.SpecChunkPerIter =
      static_cast<double>(medianOpNanos(Reps, 1, [&] {
        benchmark::DoNotOptimize(Loop.invoke(List.head()));
      })) /
      (Nodes / 2);
  R.SeqStepPerIter =
      static_cast<double>(medianOpNanos(Reps, 1, [&] {
        benchmark::DoNotOptimize(Loop.runSequentialReference(List.head()));
      })) /
      Nodes;
  return R;
}

/// The speculative buffer's cost in ns per packet: half of a
/// conflict_update-shaped trace (65536 packets over 4096 flows) through
/// PacketPipeline::applyPacket, once against a SpecWriteBuffer that is
/// then validated and committed, as a speculative chunk's is, and once
/// direct, as chunk 0 and a promoted chunk run.
struct BufferCostNanos {
  double BufferedPerIter = 0;
  double DirectPerIter = 0;
};

BufferCostNanos bufferCostNanos(int Reps) {
  constexpr size_t Packets = 65536;
  workloads::PacketPipeline P(/*NumFlows=*/4096, /*NumBuckets=*/1024,
                              Packets, /*Seed=*/1);
  P.generateTrace(Packets);
  const workloads::Packet *Begin = P.traceBegin();
  const size_t Half = P.traceLength() / 2;
  auto RunHalf = [&](SpecSpace &Mem) {
    workloads::PacketState S;
    for (const workloads::Packet *Pk = Begin; Pk != Begin + Half; ++Pk)
      workloads::PacketPipeline::applyPacket(
          *Pk, P.table().lookup(Pk->FlowKey), S, Mem);
    benchmark::DoNotOptimize(S);
  };
  SpecWriteBuffer Buf;
  BufferCostNanos R;
  R.BufferedPerIter =
      static_cast<double>(medianOpNanos(Reps, 1, [&] {
        SpecSpace Mem(&Buf);
        RunHalf(Mem);
        benchmark::DoNotOptimize(Buf.validateReads());
        Buf.commit();
      })) /
      static_cast<double>(Half);
  R.DirectPerIter =
      static_cast<double>(medianOpNanos(Reps, 1, [&] {
        SpecSpace Mem;
        RunHalf(Mem);
      })) /
      static_cast<double>(Half);
  return R;
}

/// Hand-timed median of \p Reps submit().get() round trips (ns), solo or
/// against a contending background client. google-benchmark reports the
/// same numbers interactively; this feeds the flat BENCH_*.json artifact
/// the CI perf trajectory is built from.
uint64_t medianSubmitRoundTripNanos(int Reps, bool Contended) {
  using Clock = std::chrono::steady_clock;
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits, BgTraits;
  auto Loop = RT.makeLoop(Traits);
  auto BgLoop = RT.makeLoop(BgTraits);
  Loop.invoke(0);
  BgLoop.invoke(0);
  std::atomic<bool> Stop{false};
  std::thread Bg;
  if (Contended)
    Bg = std::thread([&] {
      while (!Stop.load(std::memory_order_relaxed))
        BgLoop.submit(0).get();
    });
  std::vector<uint64_t> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    Loop.submit(0).get();
    Nanos[static_cast<size_t>(I)] = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
  }
  Stop.store(true);
  if (Bg.joinable())
    Bg.join();
  std::nth_element(Nanos.begin(), Nanos.begin() + Reps / 2, Nanos.end());
  return Nanos[static_cast<size_t>(Reps / 2)];
}

/// Hand-timed median per-invocation cost of submitBatch(BatchN).take()
/// round trips (ns), solo or contended -- the serving layer's
/// amortization of medianSubmitRoundTripNanos (same loop, same trip
/// count; only the admission traffic differs).
uint64_t medianBatchSubmitPerInvocationNanos(int Reps, size_t BatchN,
                                             bool Contended) {
  using Clock = std::chrono::steady_clock;
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits, BgTraits;
  auto Loop = RT.makeLoop(Traits);
  auto BgLoop = RT.makeLoop(BgTraits);
  Loop.invoke(0);
  BgLoop.invoke(0);
  std::atomic<bool> Stop{false};
  std::thread Bg;
  if (Contended)
    Bg = std::thread([&] {
      while (!Stop.load(std::memory_order_relaxed))
        BgLoop.submit(0).get();
    });
  std::vector<int64_t> Starts(BatchN, 0);
  std::vector<uint64_t> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    Loop.submitBatch(Starts).take();
    Nanos[static_cast<size_t>(I)] =
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - T0)
                .count()) /
        BatchN;
  }
  Stop.store(true);
  if (Bg.joinable())
    Bg.join();
  std::nth_element(Nanos.begin(), Nanos.begin() + Reps / 2, Nanos.end());
  return Nanos[static_cast<size_t>(Reps / 2)];
}

} // namespace

BENCHMARK(BM_DetectionCompare<1>);
BENCHMARK(BM_DetectionCompare<2>);
BENCHMARK(BM_DetectionCompare<4>);
BENCHMARK(BM_DetectionCompare<8>);
BENCHMARK(BM_SpecBufferWrite);
BENCHMARK(BM_SpecBufferReadOwnWrite);
BENCHMARK(BM_SpecBufferValidate)->Arg(16)->Arg(256);
BENCHMARK(BM_PlannerCompute);
BENCHMARK(BM_WorkerPoolRoundTrip);
BENCHMARK(BM_SessionRoundTrip);
BENCHMARK(BM_SubmitRoundTrip);
BENCHMARK(BM_SubmitRoundTripContended);
BENCHMARK(BM_BatchSubmitRoundTrip)->Arg(4)->Arg(16);
BENCHMARK(BM_SjengEvalStep);

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // BENCH_micro_runtime.json: the scheduler hot path, tracked per commit
  // alongside the figure benches (see bench/BenchUtil.h).
  const spice::benchutil::BenchConfig Bench;
  const int Reps = Bench.pick(400, 60);
  spice::benchutil::BenchJson Json("micro_runtime");
  Json.scalar("budget", std::string(Bench.budgetName()));
  // Speculative-buffer primitives (see docs/stats.md for definitions).
  const int SpecReps = Bench.pick(400, 60);
  Json.scalar("spec_write_ns", specWriteNanos(SpecReps));
  Json.scalar("spec_read_hit_ns", specReadHitNanos(SpecReps));
  Json.scalar("spec_read_miss_ns", specReadMissNanos(SpecReps));
  Json.scalar("spec_clear_reuse_ns", specClearReuseNanos(SpecReps));
  Json.scalar("submit_roundtrip_ns",
              medianSubmitRoundTripNanos(Reps, /*Contended=*/false));
  Json.scalar("contended_submit_roundtrip_ns",
              medianSubmitRoundTripNanos(Reps, /*Contended=*/true));
  const int BatchReps = Bench.pick(100, 20);
  Json.scalar(
      "batch16_submit_per_invocation_ns",
      medianBatchSubmitPerInvocationNanos(BatchReps, 16,
                                          /*Contended=*/false));
  Json.scalar(
      "contended_batch16_submit_per_invocation_ns",
      medianBatchSubmitPerInvocationNanos(BatchReps, 16,
                                          /*Contended=*/true));
  // The JIT tier's serving costs: what a first-ever submission pays to
  // compile vs what every warm re-submission pays for the cache hit.
  const int JitReps = Bench.pick(200, 40);
  Json.scalar("jit_cold_compile_ns",
              medianJitCompileNanos(JitReps, /*Warm=*/false));
  Json.scalar("jit_cache_hit_compile_ns",
              medianJitCompileNanos(JitReps, /*Warm=*/true));
  const ChunkPhaseNanos Chunk = chunkPhaseNanos(Bench.pick(60, 10));
  Json.scalar("spec_chunk_ns_per_iter", Chunk.SpecChunkPerIter);
  Json.scalar("seq_step_ns_per_iter", Chunk.SeqStepPerIter);
  const BufferCostNanos BufCost = bufferCostNanos(Bench.pick(60, 10));
  Json.scalar("buffered_step_ns_per_iter", BufCost.BufferedPerIter);
  Json.scalar("direct_step_ns_per_iter", BufCost.DirectPerIter);
  Json.write();
  return 0;
}
