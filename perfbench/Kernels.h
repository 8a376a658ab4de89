//===- perfbench/Kernels.h - Workload kernels and their client --*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three kernels the benchmark drives (otter clause selection, the
/// packet flow pipeline, sjeng evaluation), each with its sequential
/// oracle and its size-stationary churn; KernelClient, the closed-loop
/// client that times one invocation at a time through the public API; and
/// CeilingScan, the hand-split raw-thread reference for otter.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_PERFBENCH_KERNELS_H
#define SPICE_PERFBENCH_KERNELS_H

#include "Harness.h"

#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Otter.h"
#include "workloads/Packets.h"
#include "workloads/Sjeng.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace perfbench {

using namespace spice;
using namespace spice::workloads;

/// otter: find the lightest clause of a linked list. Both churns keep the
/// list's size. Relink removes the minimum and inserts one fresh clause
/// at a random place (ClauseList::mutate). That allocates a node per
/// invocation at the end of the arena, so list order and memory order
/// drift apart: on a small list churned thousands of times a second the
/// oracle scan slows about 3x within 16 s. Reweight gives the minimum a
/// fresh random weight in place instead, which keeps memory layout
/// stationary too.
struct OtterKernel {
  using Loop = core::SpiceLoop<OtterTraits>;
  using Result = OtterTraits::State;
  using Reference = Clause *;
  enum class Churn { Relink, Reweight };

  static constexpr int64_t WeightRange = 1'000'000;

  OtterKernel(size_t Nodes, uint64_t Seed, Churn Mode)
      : List(Nodes, Seed, WeightRange), Mode(Mode), Rng(~Seed) {}

  Loop makeLoop(core::SpiceRuntime &RT) { return RT.makeLoop(Traits); }
  Clause *start() const { return List.head(); }
  size_t units() const { return List.size(); }
  Clause *oracle() const { return List.findLightestReference(); }
  bool matches(const Result &R, Clause *Ref) const {
    return Ref && R.MinClause == Ref && R.MinWeight == Ref->PickWeight;
  }
  void churn(Clause *Ref) {
    if (Mode == Churn::Relink)
      List.mutate(Ref, /*Inserts=*/1);
    else if (Ref)
      Ref->PickWeight = Rng.nextInRange(0, WeightRange - 1);
  }

  ClauseList List;
  OtterTraits Traits;

private:
  Churn Mode;
  RandomEngine Rng;
};

/// packets: per-flow counters updated by read-modify-write through the
/// speculative buffer. The oracle runs on a twin pipeline built from the
/// same seed and fed the same traces; churn generates the next trace,
/// cycling a fixed set of lengths.
struct PacketsKernel {
  using Loop = PacketPipeline::Loop;
  using Result = PacketState;
  using Reference = PacketState;

  static constexpr size_t TraceLengths[] = {65536, 61440, 57344, 53248,
                                            49152};
  static constexpr size_t Flows = 4096;
  static constexpr size_t Buckets = 1024;

  explicit PacketsKernel(uint64_t Seed)
      : Live(Flows, Buckets, TraceLengths[0], Seed),
        Twin(Flows, Buckets, TraceLengths[0], Seed) {
    nextTrace();
  }

  Loop makeLoop(core::SpiceRuntime &RT) { return Live.makeLoop(RT); }
  const Packet *start() const { return Live.traceBegin(); }
  size_t units() const { return Live.traceLength(); }
  PacketState oracle() { return Twin.processTraceReference(); }
  bool matches(const PacketState &R, const PacketState &Ref) const {
    return R == Ref && Live.table().countersEqual(Twin.table());
  }
  void churn(const PacketState &) { nextTrace(); }

private:
  void nextTrace() {
    const size_t Len = TraceLengths[Next++ % std::size(TraceLengths)];
    Live.generateTrace(Len);
    Twin.generateTrace(Len);
  }

  PacketPipeline Live;
  PacketPipeline Twin;
  size_t Next = 0;
};

/// sjeng: board evaluation over a piece list with weighted work. Churn
/// moves one piece with probability 0.3, which shifts every downstream
/// live-in tuple and so makes some invocations misspeculate.
struct SjengKernel {
  using Loop = core::SpiceLoop<SjengTraits>;
  using Result = SjengScore;
  using Reference = SjengScore;

  SjengKernel(size_t Pieces, uint64_t Seed) : Board(Pieces, Seed) {}

  Loop makeLoop(core::SpiceRuntime &RT) {
    core::LoopOptions Opts;
    Opts.UseWeightedWork = true;
    return RT.makeLoop(Traits, Opts);
  }
  SjengLiveIn start() const { return Board.start(); }
  size_t units() const { return Board.size(); }
  SjengScore oracle() const { return Board.evalReference(); }
  bool matches(const SjengScore &R, const SjengScore &Ref) const {
    return R == Ref;
  }
  void churn(const SjengScore &) { Board.mutate(0.3, 1); }

  SjengBoard Board;
  SjengTraits Traits;
};

/// Timings of one invocation.
struct Sample {
  /// submit() call to get() return.
  double SpiceUs = 0.0;
  /// Sequential oracle on the same input.
  double OracleUs = 0.0;
  /// Between-invocation input churn.
  double ChurnUs = 0.0;
  /// Spice time minus oracle time / lanes used (1 + granted lanes).
  double ExcessUs = 0.0;
};

/// What one client records over a phase.
struct ClientLog {
  /// Past this many invocations the log keeps a uniform random sample
  /// of them (reservoir sampling), so the harness's memory -- and with it
  /// the process's peak RSS -- does not grow with throughput.
  static constexpr size_t SampleCapacity = 1 << 16;

  ClientLog() { Samples.reserve(SampleCapacity); }

  void record(const Sample &S) {
    ++Attempted;
    if (Samples.size() < SampleCapacity) {
      Samples.push_back(S);
      return;
    }
    const uint64_t Slot = Rng.nextBelow(Attempted);
    if (Slot < SampleCapacity)
      Samples[Slot] = S;
  }

  /// Invocations each kept sample stands for.
  double sampleWeight() const {
    return Samples.empty() ? 0.0
                           : static_cast<double>(Attempted) /
                                 static_cast<double>(Samples.size());
  }

  std::vector<Sample> Samples;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// This thread's CPU time inside the oracle, the result check and the
  /// churn: work the runtime is not charged for.
  double HelperCpuS = 0.0;
  /// Sum over invocations of validRows() / tuning().PlannedChunks, read
  /// just before each submit.
  double ValidRowFractionSum = 0.0;
  /// Spans, kept only when the phase is traced.
  std::vector<Span> Spans;

private:
  RandomEngine Rng{0x5a3b1e};
};

/// A closed-loop client of one loop: a type-erased KernelClient.
class Client {
public:
  virtual ~Client() = default;
  /// Submits one invocation, drives it with get(), checks it against the
  /// oracle and churns the input. Records spans into \p Log when
  /// \p Trace is set.
  virtual void invokeOnce(ClientLog &Log, bool Trace) = 0;
  virtual core::SpiceStats lastStats() const = 0;
  virtual core::SpecBufferPoolStats bufferPoolStats() const = 0;
  virtual core::LoopTuning tuning() const = 0;
  /// Input elements (list nodes, packets, pieces) of every invocation
  /// this client ever submitted: what TotalIterations must equal.
  virtual uint64_t submittedUnits() const = 0;
  virtual const char *name() const = 0;
};

template <typename Kernel> class KernelClient final : public Client {
public:
  KernelClient(Kernel &K, core::SpiceRuntime &RT, const char *Name,
               uint32_t Tid)
      : K(K), Loop(K.makeLoop(RT)), Name(Name), Tid(Tid) {}

  void invokeOnce(ClientLog &Log, bool Trace) override {
    const uint64_t Inv = ++Invocations;
    Log.ValidRowFractionSum += static_cast<double>(Loop.validRows()) /
                               Loop.tuning().PlannedChunks;
    const auto Start = K.start();
    Units += K.units();
    std::optional<typename Kernel::Result> R;

    const Clock::time_point T0 = Clock::now();
    Clock::time_point T1 = T0;
    try {
      auto F = Loop.submit(Start);
      T1 = Clock::now();
      R = F.get();
    } catch (...) {
      // An OverloadError or an exception from the loop body: the
      // invocation failed; it still counts as attempted.
    }
    const Clock::time_point T2 = Clock::now();
    const uint64_t Granted = Loop.lastStats().GrantedLanes;
    const uint64_t Lanes = 1 + (Granted - PrevGranted);
    PrevGranted = Granted;

    const double Cpu0 = threadCpuSeconds();
    const Clock::time_point T3 = Clock::now();
    const typename Kernel::Reference Ref = K.oracle();
    const Clock::time_point T4 = Clock::now();
    const bool Ok = R && K.matches(*R, Ref);
    const Clock::time_point T5 = Clock::now();
    K.churn(Ref);
    const Clock::time_point T6 = Clock::now();
    Log.HelperCpuS += threadCpuSeconds() - Cpu0;

    const double SpiceUs = microsBetween(T0, T2);
    const double OracleUs = microsBetween(T3, T4);
    Log.Failed += Ok ? 0 : 1;
    Log.record({SpiceUs, OracleUs, microsBetween(T5, T6),
                SpiceUs - OracleUs / static_cast<double>(Lanes)});
    if (Trace) {
      Log.Spans.push_back({"invocation", Tid, Inv, T0, T6});
      Log.Spans.push_back({"submit", Tid, Inv, T0, T1});
      Log.Spans.push_back({"get", Tid, Inv, T1, T2});
      Log.Spans.push_back({"oracle", Tid, Inv, T3, T4});
      Log.Spans.push_back({"check", Tid, Inv, T4, T5});
      Log.Spans.push_back({"churn", Tid, Inv, T5, T6});
    }
  }

  core::SpiceStats lastStats() const override { return Loop.lastStats(); }
  core::SpecBufferPoolStats bufferPoolStats() const override {
    return Loop.bufferPoolStats();
  }
  core::LoopTuning tuning() const override { return Loop.tuning(); }
  uint64_t submittedUnits() const override { return Units; }
  const char *name() const override { return Name; }

private:
  Kernel &K;
  typename Kernel::Loop Loop;
  const char *Name;
  uint32_t Tid;
  uint64_t Invocations = 0;
  uint64_t Units = 0;
  uint64_t PrevGranted = 0;
};

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// The raw-thread ceiling for otter: the list hand-split into equal node
/// counts over \p Threads threads -- the caller plus Threads - 1
/// persistent helpers that spin between scans, so a scan pays no thread
/// start or wake-up. Split points are computed by split(), outside the
/// timed scan().
class CeilingScan {
public:
  explicit CeilingScan(unsigned Threads) : Parts(std::max(1u, Threads)) {
    for (unsigned I = 1; I != Parts.size(); ++I)
      Helpers.emplace_back([this, I] { helperLoop(I); });
  }

  ~CeilingScan() {
    Stop.store(true, std::memory_order_release);
    for (std::thread &T : Helpers)
      T.join();
  }

  CeilingScan(const CeilingScan &) = delete;
  CeilingScan &operator=(const CeilingScan &) = delete;

  void split(const ClauseList &List) {
    const size_t N = List.size(), P = Parts.size();
    Clause *C = List.head();
    size_t Pos = 0;
    for (size_t I = 0; I != P; ++I) {
      const size_t End = N * (I + 1) / P;
      Parts[I].Begin = C;
      Parts[I].Count = End - Pos;
      for (; Pos != End; ++Pos)
        C = C->Next;
    }
  }

  /// The lightest clause (first on ties), computed by all threads.
  Clause *scan() {
    Remaining.store(static_cast<unsigned>(Helpers.size()),
                    std::memory_order_relaxed);
    Generation.fetch_add(1, std::memory_order_release);
    scanPart(Parts[0]);
    while (Remaining.load(std::memory_order_acquire) != 0)
      cpuRelax();
    Clause *Best = nullptr;
    int64_t BestW = INT64_MAX;
    for (const Part &P : Parts)
      if (P.Min && P.MinWeight < BestW) {
        BestW = P.MinWeight;
        Best = P.Min;
      }
    return Best;
  }

private:
  struct alignas(64) Part {
    Clause *Begin = nullptr;
    size_t Count = 0;
    Clause *Min = nullptr;
    int64_t MinWeight = INT64_MAX;
  };

  static void scanPart(Part &P) {
    Clause *Best = nullptr;
    int64_t BestW = INT64_MAX;
    Clause *C = P.Begin;
    for (size_t I = 0; I != P.Count; ++I, C = C->Next)
      if (C->PickWeight < BestW) {
        BestW = C->PickWeight;
        Best = C;
      }
    P.Min = Best;
    P.MinWeight = BestW;
  }

  void helperLoop(unsigned I) {
    uint64_t Seen = 0;
    for (;;) {
      uint64_t G;
      while ((G = Generation.load(std::memory_order_acquire)) == Seen) {
        if (Stop.load(std::memory_order_acquire))
          return;
        cpuRelax();
      }
      Seen = G;
      scanPart(Parts[I]);
      Remaining.fetch_sub(1, std::memory_order_release);
    }
  }

  std::vector<Part> Parts;
  std::atomic<uint64_t> Generation{0};
  std::atomic<unsigned> Remaining{0};
  std::atomic<bool> Stop{false};
  /// Declared last: the helpers use every member above.
  std::vector<std::thread> Helpers;
};

} // namespace perfbench

#endif // SPICE_PERFBENCH_KERNELS_H
