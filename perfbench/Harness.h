//===- perfbench/Harness.h - Clocks, statistics, spans, output --*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement plumbing of the end-to-end benchmark, independent of any
/// workload: wall, thread-CPU and process-CPU clocks, order statistics,
/// the in-memory span log written out as Chrome trace-event JSON, and the
/// metric table printed as the result line.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_PERFBENCH_HARNESS_H
#define SPICE_PERFBENCH_HARNESS_H

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// CPU time of the calling thread.
inline double threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * Ts.tv_nsec;
}

/// User + system CPU time of the whole process (every thread, the
/// runtime's workers included).
inline double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + 1e-6 * T.tv_usec;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// Peak resident set of the process so far, in MiB: VmHWM of
/// /proc/self/status; NaN when that cannot be read. Not getrusage's
/// ru_maxrss, which Linux carries over exec from the parent, so that a
/// run started from a larger parent (run.py's Python) would report the
/// parent's peak.
inline double peakRssMb() {
  double KiB = std::numeric_limits<double>::quiet_NaN();
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
        break;
    std::fclose(F);
  }
  return KiB / 1024.0;
}

/// CPUs this process may run on (what `nproc` prints).
inline unsigned hostThreads() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

inline double nan() { return std::numeric_limits<double>::quiet_NaN(); }

/// \p Num / \p Den, or NaN when there were no samples: a ratio over
/// nothing must never read as success (1) or as a clean zero.
inline double ratio(double Num, double Den) {
  return Den != 0.0 ? Num / Den : nan();
}

/// A value standing for Weight observations.
struct Weighted {
  double Value = 0.0;
  double Weight = 0.0;
};

/// Quantile \p Q of weighted values: the smallest value whose cumulative
/// weight reaches Q of the total; NaN for an empty sample.
inline double weightedQuantile(std::vector<Weighted> V, double Q) {
  if (V.empty())
    return nan();
  std::sort(V.begin(), V.end(), [](const Weighted &A, const Weighted &B) {
    return A.Value < B.Value;
  });
  double Total = 0.0;
  for (const Weighted &W : V)
    Total += W.Weight;
  double Acc = 0.0;
  for (const Weighted &W : V) {
    Acc += W.Weight;
    if (Acc >= Q * Total)
      return W.Value;
  }
  return V.back().Value;
}

inline double median(const std::vector<double> &V) {
  std::vector<Weighted> W;
  for (double X : V)
    W.push_back({X, 1.0});
  return weightedQuantile(std::move(W), 0.5);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed interval of the traced run. Spans of one invocation share
/// \p Inv; an "invocation" span is the parent of the others with that id.
/// Setup spans use Inv 0.
struct Span {
  const char *Name = "";
  uint32_t Tid = 0; ///< Client index.
  uint64_t Inv = 0;
  Clock::time_point Begin;
  Clock::time_point End;
};

/// Writes \p Spans as Chrome trace-event JSON ("X" complete events, in
/// microseconds from \p Epoch). Returns false when the file cannot be
/// written.
inline bool writeChromeTrace(const std::string &Path,
                             const std::vector<Span> &Spans,
                             const std::vector<std::string> &ThreadNames,
                             Clock::time_point Epoch) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool First = true;
  for (size_t T = 0; T != ThreadNames.size(); ++T) {
    std::fprintf(F,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                 First ? "" : ",\n", T, ThreadNames[T].c_str());
    First = false;
  }
  for (const Span &S : Spans) {
    const bool Child = S.Inv != 0 && std::string(S.Name) != "invocation";
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"inv\": %llu%s}}",
                 First ? "" : ",\n", S.Name, S.Tid,
                 microsBetween(Epoch, S.Begin), microsBetween(S.Begin, S.End),
                 static_cast<unsigned long long>(S.Inv),
                 Child ? ", \"parent\": \"invocation\"" : "");
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Result line
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// \p V, which must be finite: JSON has no NaN or infinity.
inline std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// What the result line reports for a per-layer metric without samples.
/// JSON has no NaN, and 0 or 1 would read as a measured success; every
/// per-layer metric is otherwise above -1.
constexpr double NoSamples = -1.0;

/// Makes every metric a JSON number. A per-layer metric without samples
/// (a ratio over zero, or a metric its workload does not have) reads
/// NoSamples. An end-to-end metric without samples means the run
/// measured nothing, so it fails the run. Each such metric is named on
/// standard error.
inline bool finiteMetrics(std::vector<Metric> &Metrics, bool PerLayer) {
  bool Ok = true;
  for (Metric &M : Metrics) {
    if (std::isfinite(M.Value))
      continue;
    std::fprintf(stderr, "%s: no samples in this run\n", M.Name.c_str());
    M.Value = NoSamples;
    Ok = Ok && PerLayer;
  }
  return Ok;
}

/// The benchmark's result: one JSON object on one line.
inline std::string resultLine(bool Correct, uint64_t Attempted,
                              uint64_t Failed,
                              const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
           jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

} // namespace perfbench

#endif // SPICE_PERFBENCH_HARNESS_H
