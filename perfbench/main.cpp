//===- perfbench/main.cpp - End-to-end Spice benchmark harness ------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload closed-loop through the public runtime API and prints
// its metrics; the last line of standard output is the JSON result.
//
//   spicebench --workload scan_readonly|conflict_update|mixed_serving
//              --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics of one untraced measured phase.
// --trace 1 runs an untraced phase (layer counters) and then a traced one
// (span timings and the tracing overhead), and prints the per-layer
// metrics. perfbench/README.md defines every metric.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Kernels.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;
using spice::core::RuntimeConfig;
using spice::core::SchedulerStats;
using spice::core::SessionPoolStats;
using spice::core::SpiceRuntime;
using spice::core::SpiceStats;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Key = Argv[I];
    if (I + 1 == Argc) {
      std::fprintf(stderr, "missing value for %s\n", Key.c_str());
      return false;
    }
    const char *Val = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Val;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Val, &End, 10);
      if (*End)
        return false;
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Val, &End);
      if (*End || !(A.Seconds > 0.0) || A.Seconds > 120.0)
        return false;
    } else if (Key == "--trace") {
      if (std::strcmp(Val, "0") != 0 && std::strcmp(Val, "1") != 0)
        return false;
      A.Trace = Val[0] == '1';
    } else if (Key == "--trace-out") {
      A.TraceOut = Val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", Key.c_str());
      return false;
    }
  }
  return A.Workload == "scan_readonly" || A.Workload == "conflict_update" ||
         A.Workload == "mixed_serving";
}

/// Workload inputs, runtime and loop handles. Members are destroyed in
/// reverse order: loops, then the runtime, then the inputs the loops
/// read.
struct Session {
  std::unique_ptr<OtterKernel> Otter;
  std::unique_ptr<PacketsKernel> Packets;
  std::unique_ptr<SjengKernel> Sjeng;
  std::unique_ptr<SpiceRuntime> RT;
  std::vector<std::unique_ptr<Client>> Clients;
  /// Oracle-checked warm-up invocations.
  ClientLog Warmup;

  /// Ends the runtime (and with it every worker thread) but keeps the
  /// inputs.
  void stopRuntime() {
    Clients.clear();
    RT.reset();
  }
};

/// Sizes of the workloads. Each input keeps its size across a run.
constexpr size_t ScanNodes = 1'000'000;
constexpr size_t ServeNodes = 20'000;
constexpr size_t ServePieces = 5'000;

/// Builds inputs, runtime and loops, and warms the loops up so their
/// predictors hold a memoized plan. The runtime has \p Lanes threads.
/// Records setup spans into \p Spans when non-null.
std::unique_ptr<Session> setUp(const Args &A, unsigned Lanes,
                               std::vector<Span> *Spans) {
  auto S = std::make_unique<Session>();
  const Clock::time_point T0 = Clock::now();
  int Warmups = 0;
  if (A.Workload == "scan_readonly") {
    S->Otter = std::make_unique<OtterKernel>(ScanNodes, A.Seed,
                                             OtterKernel::Churn::Relink);
    Warmups = 6;
  } else if (A.Workload == "conflict_update") {
    S->Packets = std::make_unique<PacketsKernel>(A.Seed);
    Warmups = 10;
  } else {
    S->Otter = std::make_unique<OtterKernel>(ServeNodes, A.Seed,
                                             OtterKernel::Churn::Reweight);
    S->Sjeng = std::make_unique<SjengKernel>(
        ServePieces, A.Seed * 0x9e3779b97f4a7c15ULL + 1);
    Warmups = 200;
  }
  const Clock::time_point T1 = Clock::now();
  RuntimeConfig RC;
  RC.NumThreads = Lanes;
  S->RT = std::make_unique<SpiceRuntime>(RC);
  const Clock::time_point T2 = Clock::now();
  if (S->Otter)
    S->Clients.push_back(std::make_unique<KernelClient<OtterKernel>>(
        *S->Otter, *S->RT, "otter", 0));
  if (S->Packets)
    S->Clients.push_back(std::make_unique<KernelClient<PacketsKernel>>(
        *S->Packets, *S->RT, "packets", 0));
  if (S->Sjeng)
    S->Clients.push_back(std::make_unique<KernelClient<SjengKernel>>(
        *S->Sjeng, *S->RT, "sjeng", 1));
  const Clock::time_point T3 = Clock::now();
  for (int I = 0; I != Warmups; ++I)
    for (std::unique_ptr<Client> &C : S->Clients)
      C->invokeOnce(S->Warmup, /*Trace=*/false);
  const Clock::time_point T4 = Clock::now();
  if (Spans) {
    Spans->push_back({"setup", 0, 0, T0, T4});
    Spans->push_back({"setup.inputs", 0, 0, T0, T1});
    Spans->push_back({"setup.runtime", 0, 0, T1, T2});
    Spans->push_back({"setup.loops", 0, 0, T2, T3});
    Spans->push_back({"setup.warmup", 0, 0, T3, T4});
  }
  return S;
}

/// Cumulative counters of every layer, read between invocations.
struct Counters {
  SchedulerStats Sched;
  SessionPoolStats Sessions;
  std::vector<SpiceStats> Loops;
  std::vector<spice::core::SpecBufferPoolStats> Buffers;
};

Counters readCounters(Session &S) {
  Counters C;
  C.Sched = S.RT->schedulerStats();
  C.Sessions = S.RT->pool().sessionPoolStats();
  for (const std::unique_ptr<Client> &Cl : S.Clients) {
    C.Loops.push_back(Cl->lastStats());
    C.Buffers.push_back(Cl->bufferPoolStats());
  }
  return C;
}

/// Quantile \p Q of one timing over the invocations of \p Logs, pooled:
/// each kept sample is weighted by the invocations it stands for.
double sampleQuantile(std::span<const ClientLog> Logs, double Sample::*Field,
                      double Q) {
  std::vector<Weighted> V;
  for (const ClientLog &L : Logs)
    for (const Sample &S : L.Samples)
      V.push_back({S.*Field, L.sampleWeight()});
  return weightedQuantile(std::move(V), Q);
}

struct Phase {
  std::vector<ClientLog> Logs;
  double WallS = 0.0;
  double ProcessCpuS = 0.0;
  Counters Before, After;

  uint64_t invocations() const {
    uint64_t N = 0;
    for (const ClientLog &L : Logs)
      N += L.Attempted;
    return N;
  }
  uint64_t failed() const {
    uint64_t N = 0;
    for (const ClientLog &L : Logs)
      N += L.Failed;
    return N;
  }
  double quantileOf(double Sample::*Field, double Q) const {
    return sampleQuantile(Logs, Field, Q);
  }
  double helperCpuS() const {
    double T = 0.0;
    for (const ClientLog &L : Logs)
      T += L.HelperCpuS;
    return T;
  }
  /// Summed over loops: After.Loops[i].*Field - Before.Loops[i].*Field.
  double loopDelta(uint64_t SpiceStats::*Field) const {
    double D = 0.0;
    for (size_t I = 0; I != After.Loops.size(); ++I)
      D += static_cast<double>(After.Loops[I].*Field -
                               Before.Loops[I].*Field);
    return D;
  }
};

/// Runs every client closed-loop for \p Seconds: client 0 on the calling
/// thread, the others on one thread each, all released together.
Phase runPhase(Session &S, double Seconds, bool Trace) {
  Phase P;
  const size_t N = S.Clients.size();
  P.Logs.resize(N);
  P.Before = readCounters(S);
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  Clock::time_point Deadline;
  auto Drive = [&](size_t I) {
    Ready.fetch_add(1, std::memory_order_acq_rel);
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    while (Clock::now() < Deadline)
      S.Clients[I]->invokeOnce(P.Logs[I], Trace);
  };
  std::vector<std::thread> Threads;
  for (size_t I = 1; I < N; ++I)
    Threads.emplace_back(Drive, I);
  while (Ready.load(std::memory_order_acquire) != N - 1)
    std::this_thread::yield();
  const double Cpu0 = processCpuSeconds();
  const Clock::time_point T0 = Clock::now();
  Deadline = T0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Seconds));
  Go.store(true, std::memory_order_release);
  while (Clock::now() < Deadline)
    S.Clients[0]->invokeOnce(P.Logs[0], Trace);
  for (std::thread &T : Threads)
    T.join();
  P.WallS = secondsBetween(T0, Clock::now());
  P.ProcessCpuS = processCpuSeconds() - Cpu0;
  P.After = readCounters(S);
  return P;
}

/// Counter identities that must hold after every phase; each violation
/// is reported on stderr and fails the run.
bool checkIdentities(const Session &S, const Counters &C) {
  bool Ok = true;
  auto Fail = [&](const std::string &Msg) {
    std::fprintf(stderr, "IDENTITY VIOLATED: %s\n", Msg.c_str());
    Ok = false;
  };
  const SchedulerStats &Sc = C.Sched;
  if (Sc.ImmediateGrants + Sc.DeferredGrants + Sc.DroppedDeadline !=
      Sc.Submitted)
    Fail("ImmediateGrants + DeferredGrants + DroppedDeadline (" +
         std::to_string(Sc.ImmediateGrants + Sc.DeferredGrants +
                        Sc.DroppedDeadline) +
         ") != Submitted (" + std::to_string(Sc.Submitted) + ")");
  for (size_t I = 0; I != C.Loops.size(); ++I) {
    const SpiceStats &L = C.Loops[I];
    const std::string Loop = S.Clients[I]->name();
    if (L.LocalSteals + L.RemoteSteals != L.StolenChunks - L.MainHelpedChunks)
      Fail(Loop + ": LocalSteals + RemoteSteals != StolenChunks - "
                  "MainHelpedChunks");
    if (L.TotalIterations != S.Clients[I]->submittedUnits())
      Fail(Loop + ": TotalIterations (" + std::to_string(L.TotalIterations) +
           ") != summed input sizes (" +
           std::to_string(S.Clients[I]->submittedUnits()) + ")");
  }
  return Ok;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return nan();
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Median sequential time over median Spice time, per client; the
/// geometric mean over clients.
double speedupVsSeq(const Phase &P) {
  std::vector<double> R;
  for (const ClientLog &L : P.Logs)
    R.push_back(ratio(sampleQuantile({&L, 1}, &Sample::OracleUs, 0.5),
                      sampleQuantile({&L, 1}, &Sample::SpiceUs, 0.5)));
  return geomean(R);
}

std::vector<Metric> endToEnd(const Phase &P, double SetupS) {
  const double Inv = static_cast<double>(P.invocations());
  const double Ok = Inv - static_cast<double>(P.failed());
  return {
      {"speedup_vs_seq", speedupVsSeq(P), "x"},
      {"throughput_ips", ratio(Ok, P.WallS), "1/s"},
      {"latency_p50_us", P.quantileOf(&Sample::SpiceUs, 0.5), "us"},
      {"cpu_per_inv_us", 1e6 * ratio(P.ProcessCpuS - P.helperCpuS(), Inv),
       "us"},
      {"setup_s", SetupS, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

std::vector<double> spanMicros(const std::vector<ClientLog> &Logs,
                               const char *Name) {
  std::vector<double> V;
  for (const ClientLog &L : Logs)
    for (const Span &S : L.Spans)
      if (std::strcmp(S.Name, Name) == 0)
        V.push_back(microsBetween(S.Begin, S.End));
  return V;
}

/// Self time of each "invocation" span: its duration minus what its
/// child spans (same client, same id) cover. Children never overlap.
std::vector<double> invocationSelfMicros(const std::vector<ClientLog> &Logs) {
  std::vector<double> V;
  for (const ClientLog &L : Logs) {
    double Self = 0.0;
    bool Open = false;
    for (const Span &S : L.Spans) {
      const double D = microsBetween(S.Begin, S.End);
      if (std::strcmp(S.Name, "invocation") == 0) {
        if (Open)
          V.push_back(Self);
        Self = D;
        Open = true;
      } else {
        Self -= D;
      }
    }
    if (Open)
      V.push_back(Self);
  }
  return V;
}

std::vector<Metric> perLayer(const Phase &U, const Phase &T,
                             double ChunksPerThread, double CeilingSpeedup,
                             unsigned Nproc) {
  const double Inv = U.loopDelta(&SpiceStats::Invocations);
  const double Parallel =
      Inv - U.loopDelta(&SpiceStats::SequentialInvocations);
  const double Total = U.loopDelta(&SpiceStats::TotalIterations);
  const double Wasted = U.loopDelta(&SpiceStats::WastedIterations);
  const SchedulerStats &S0 = U.Before.Sched, &S1 = U.After.Sched;
  const double Submitted = static_cast<double>(S1.Submitted - S0.Submitted);

  double ImbSum = 0.0, ImbSamples = 0.0, Rehashes = 0.0, Slots = 0.0;
  for (size_t I = 0; I != U.After.Loops.size(); ++I) {
    ImbSum += U.After.Loops[I].ImbalanceSum - U.Before.Loops[I].ImbalanceSum;
    ImbSamples += static_cast<double>(U.After.Loops[I].ImbalanceSamples -
                                      U.Before.Loops[I].ImbalanceSamples);
    Rehashes += static_cast<double>(U.After.Buffers[I].Rehashes -
                                    U.Before.Buffers[I].Rehashes);
    Slots += static_cast<double>(U.After.Buffers[I].TableSlots);
  }
  double ValidRowSum = 0.0;
  for (const ClientLog &L : U.Logs)
    ValidRowSum += L.ValidRowFractionSum;

  const SessionPoolStats &P0 = U.Before.Sessions, &P1 = U.After.Sessions;
  const double Hits = static_cast<double>(P1.SessionPoolHits -
                                          P0.SessionPoolHits);
  const double Created = static_cast<double>(P1.SessionsCreated -
                                             P0.SessionsCreated);
  const double UntracedP50 = U.quantileOf(&Sample::SpiceUs, 0.5);
  const double TracedP50 = T.quantileOf(&Sample::SpiceUs, 0.5);
  return {
      {"scheduler.submit_us_p50", median(spanMicros(T.Logs, "submit")),
       "us"},
      {"scheduler.queued_us_per_inv",
       ratio(static_cast<double>(S1.TotalQueuedMicros - S0.TotalQueuedMicros),
             Inv),
       "us"},
      {"scheduler.deferred_grant_fraction",
       ratio(static_cast<double>(S1.DeferredGrants - S0.DeferredGrants),
             Submitted),
       "fraction"},
      {"scheduler.capped_grant_fraction",
       ratio(static_cast<double>(S1.CappedGrants - S0.CappedGrants),
             Submitted),
       "fraction"},
      {"scheduler.lanes_per_parallel_inv",
       ratio(U.loopDelta(&SpiceStats::GrantedLanes), Parallel), "lanes"},
      {"pool.excess_over_ideal_us_p50",
       U.quantileOf(&Sample::ExcessUs, 0.5), "us"},
      {"pool.session_reuse_fraction", ratio(Hits, Hits + Created),
       "fraction"},
      {"process.cpu_util", ratio(U.ProcessCpuS, U.WallS * Nproc),
       "fraction"},
      {"loop.get_us_p50", median(spanMicros(T.Logs, "get")), "us"},
      {"loop.invoke_p99_us", U.quantileOf(&Sample::SpiceUs, 0.99), "us"},
      {"loop.parallel_fraction", ratio(Parallel, Inv), "fraction"},
      {"loop.misspec_fraction",
       ratio(U.loopDelta(&SpiceStats::MisspeculatedInvocations), Inv),
       "fraction"},
      {"loop.wasted_iteration_fraction", ratio(Wasted, Total + Wasted),
       "fraction"},
      {"loop.recovery_iteration_fraction",
       ratio(U.loopDelta(&SpiceStats::RecoveryIterations), Total),
       "fraction"},
      {"loop.load_imbalance", ratio(ImbSum, ImbSamples), "ratio"},
      {"loop.conflict_squashes_per_inv",
       ratio(U.loopDelta(&SpiceStats::ConflictSquashes), Inv), "count"},
      {"specbuf.rehashes_measured", Rehashes, "count"},
      {"specbuf.table_slots", Slots, "count"},
      {"planner.valid_row_fraction",
       ratio(ValidRowSum, static_cast<double>(U.invocations())), "fraction"},
      {"planner.chunks_per_thread", ChunksPerThread, "count"},
      {"workload.seq_us_p50", U.quantileOf(&Sample::OracleUs, 0.5), "us"},
      {"workload.churn_us_p50", U.quantileOf(&Sample::ChurnUs, 0.5), "us"},
      {"workload.ceiling_speedup", CeilingSpeedup, "x"},
      {"trace.invocation_self_us_p50",
       median(invocationSelfMicros(T.Logs)), "us"},
      {"trace.overhead_fraction", TracedP50 / UntracedP50 - 1.0, "fraction"},
  };
}

/// Ceiling reps: oracle and hand-split scan alternate on the same list.
constexpr int CeilingReps = 40;

/// Median oracle time over median raw-thread scan time on the otter
/// list, with \p Lanes threads. Counts a scan that disagrees with the
/// oracle as a failed invocation.
double ceilingSpeedup(const ClauseList &List, unsigned Lanes,
                      ClientLog &Log) {
  CeilingScan Ceiling(Lanes);
  Ceiling.split(List);
  std::vector<double> SeqUs, ScanUs;
  for (int I = 0; I != CeilingReps; ++I) {
    const Clock::time_point T0 = Clock::now();
    Clause *Want = List.findLightestReference();
    const Clock::time_point T1 = Clock::now();
    Clause *Got = Ceiling.scan();
    const Clock::time_point T2 = Clock::now();
    SeqUs.push_back(microsBetween(T0, T1));
    ScanUs.push_back(microsBetween(T1, T2));
    ++Log.Attempted;
    Log.Failed += Got == Want ? 0 : 1;
  }
  return ratio(median(SeqUs), median(ScanUs));
}

void printTable(const char *Title, const std::vector<Metric> &Metrics) {
  std::printf("-- %s --\n", Title);
  for (const Metric &M : Metrics)
    std::printf("%-36s %14.4f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
}

/// Setups per untraced run; setup_s is their median. SetupRepsBefore
/// run before the measured phase, and the last of them is measured;
/// SetupRepsAfter run after it, so that a host slowdown shorter than the
/// phase cannot move every setup of the run.
constexpr int SetupRepsBefore = 6;
constexpr int SetupRepsAfter = 5;

/// Invocations per client whose spans go into the trace file (the
/// metrics use all of them); keeps the file small enough to open.
constexpr size_t TraceFileInvocations = 5000;

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: spicebench --workload scan_readonly|conflict_update|"
                 "mixed_serving --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const unsigned Nproc = hostThreads();
  // Half the host: with a thread on every vCPU, hypervisor steal on any
  // one of them stalls whole invocations (perfbench/README.md has the
  // figures). mixed_serving's two clients share the same lanes.
  const unsigned Lanes = std::max(1u, Nproc / 2);
  const Clock::time_point Epoch = Clock::now();
  std::vector<Span> SetupSpans;

  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<Metric> Metrics;

  std::vector<double> SetupS;
  std::unique_ptr<Session> S;
  // Replaces S by a freshly set-up session and times that; its oracle-
  // checked warm-up invocations count as attempted.
  auto SetUpOnce = [&](std::vector<Span> *Spans) {
    S.reset();
    const Clock::time_point T0 = Clock::now();
    S = setUp(A, Lanes, Spans);
    SetupS.push_back(secondsBetween(T0, Clock::now()));
    Attempted += S->Warmup.Attempted;
    Failed += S->Warmup.Failed;
  };
  for (int R = 0; R != SetupRepsBefore; ++R)
    SetUpOnce(R + 1 == SetupRepsBefore && A.Trace ? &SetupSpans : nullptr);

  auto Account = [&](const Phase &P) {
    Attempted += P.invocations();
    Failed += P.failed();
    Correct = checkIdentities(*S, P.After) && Correct;
  };

  if (!A.Trace) {
    Phase P = runPhase(*S, A.Seconds, /*Trace=*/false);
    Account(P);
    for (int R = 0; R != SetupRepsAfter; ++R)
      SetUpOnce(nullptr);
    Metrics = endToEnd(P, median(SetupS));
    printTable("end-to-end", Metrics);
  } else {
    Phase U = runPhase(*S, A.Seconds / 2, /*Trace=*/false);
    Account(U);
    Phase T = runPhase(*S, A.Seconds / 2, /*Trace=*/true);
    Account(T);
    double KSum = 0.0;
    std::vector<std::string> Names;
    for (const std::unique_ptr<Client> &C : S->Clients) {
      KSum += C->tuning().ChunksPerThread;
      Names.push_back(std::string("client ") + C->name());
    }
    const double ChunksPerThread =
        ratio(KSum, static_cast<double>(S->Clients.size()));
    S->stopRuntime();

    double Ceiling = nan();
    if (A.Workload == "scan_readonly") {
      ClientLog CeilingLog;
      Ceiling = ceilingSpeedup(S->Otter->List, Lanes, CeilingLog);
      Attempted += CeilingLog.Attempted;
      Failed += CeilingLog.Failed;
    }
    Metrics = perLayer(U, T, ChunksPerThread, Ceiling, Nproc);

    printTable("end-to-end, untraced half", endToEnd(U, median(SetupS)));
    printTable("per layer", Metrics);

    if (!A.TraceOut.empty()) {
      std::vector<Span> All = SetupSpans;
      for (const ClientLog &L : T.Logs)
        for (const Span &Sp : L.Spans)
          if (Sp.Inv - L.Spans.front().Inv < TraceFileInvocations)
            All.push_back(Sp);
      if (writeChromeTrace(A.TraceOut, All, Names, Epoch))
        std::printf("trace written to %s\n", A.TraceOut.c_str());
      else
        std::fprintf(stderr, "cannot write trace %s\n", A.TraceOut.c_str());
    }
  }
  S.reset();

  Correct = finiteMetrics(Metrics, A.Trace) && Correct && Failed == 0;
  std::printf("%s\n", resultLine(Correct, Attempted, Failed, Metrics).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
