//===- bench/BenchUtil.h - Shared bench-harness helpers ---------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmark mains (not part of the spice library):
///
///  * BenchConfig -- the environment-driven run configuration every
///    driver needs (previously duplicated per main): the
///    SPICE_BENCH_BUDGET=tiny smoke budget CI applies on every PR, the
///    full-vs-tiny workload scaling, and the SPICE_BENCH_THREADS runtime
///    sizing, pre-packaged as a core::RuntimeConfig.
///
///  * BenchJson -- writes a flat BENCH_<name>.json summary next to the
///    binary (or into SPICE_BENCH_JSON_DIR). CI uploads these as workflow
///    artifacts so the perf trajectory of the repo is tracked per PR,
///    and scripts/compare_bench.py gates regressions against the
///    baseline artifact from main.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_BENCH_BENCHUTIL_H
#define SPICE_BENCH_BENCHUTIL_H

#include "core/SpiceConfig.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace spice {
namespace benchutil {

/// True when CI asked for a seconds-scale smoke run.
inline bool tinyBudget() {
  const char *Env = std::getenv("SPICE_BENCH_BUDGET");
  return Env && std::string(Env) == "tiny";
}

/// Unsigned environment knob with a default (unparsable, negative, zero
/// or out-of-range values fall back to \p Default; strtoul would
/// otherwise happily wrap "-1" to ULONG_MAX).
inline unsigned envUnsigned(const char *Name, unsigned Default) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env || *Env == '-')
    return Default;
  char *End = nullptr;
  unsigned long V = std::strtoul(Env, &End, 10);
  if (End == Env || *End != '\0' || V == 0 || V > 1024)
    return Default;
  return static_cast<unsigned>(V);
}

/// The run configuration shared by every bench driver: budget scaling
/// and runtime sizing, parsed once from the environment.
class BenchConfig {
public:
  BenchConfig()
      : Tiny(tinyBudget()),
        Threads(envUnsigned("SPICE_BENCH_THREADS", 4)) {}

  /// CI smoke budget (SPICE_BENCH_BUDGET=tiny)?
  bool tiny() const { return Tiny; }

  /// "tiny" / "full", for JSON artifacts.
  const char *budgetName() const { return Tiny ? "tiny" : "full"; }

  /// Workload parameter scaling: the full-budget value, or the tiny one
  /// under the CI smoke budget.
  template <typename T> T pick(T Full, T TinyValue) const {
    return Tiny ? TinyValue : Full;
  }

  /// Threads of the bench runtime (SPICE_BENCH_THREADS, default 4).
  unsigned threads() const { return Threads; }

  /// Runtime sizing for the shared-pool bench runtime.
  core::RuntimeConfig runtimeConfig() const {
    core::RuntimeConfig R;
    R.NumThreads = Threads;
    return R;
  }

private:
  bool Tiny;
  unsigned Threads;
};

/// Accumulates key/value metrics and writes them as one flat JSON object.
/// Keys are written verbatim (callers use plain identifiers only).
class BenchJson {
public:
  explicit BenchJson(std::string BenchName) : Name(std::move(BenchName)) {}

  /// A non-finite value is written as NaN, which Python's json module
  /// (scripts/compare_bench.py) accepts; printf's "nan"/"inf" would make
  /// the whole file unparseable.
  void scalar(const std::string &Key, double V) {
    Fields.push_back("\"" + Key + "\": " + number(V));
  }

  void scalar(const std::string &Key, uint64_t V) {
    Fields.push_back("\"" + Key + "\": " + std::to_string(V));
  }

  void scalar(const std::string &Key, const std::string &V) {
    Fields.push_back("\"" + Key + "\": \"" + V + "\"");
  }

  void series(const std::string &Key, const std::vector<double> &Vs) {
    std::string Row = "\"" + Key + "\": [";
    for (size_t I = 0; I != Vs.size(); ++I)
      Row += (I ? ", " : "") + number(Vs[I]);
    Row += "]";
    Fields.push_back(Row);
  }

  /// Writes BENCH_<name>.json; returns false (and warns) on I/O failure.
  /// Benches treat a failed write as non-fatal: the human-readable report
  /// on stdout is the primary output.
  bool write() const {
    std::string Dir = ".";
    if (const char *Env = std::getenv("SPICE_BENCH_JSON_DIR"))
      Dir = Env;
    std::string Path = Dir + "/BENCH_" + Name + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return false;
    }
    std::fprintf(F, "{\n  \"bench\": \"%s\"", Name.c_str());
    for (const std::string &Field : Fields)
      std::fprintf(F, ",\n  %s", Field.c_str());
    std::fprintf(F, "\n}\n");
    std::fclose(F);
    std::printf("[bench-json] wrote %s\n", Path.c_str());
    return true;
  }

private:
  static std::string number(double V) {
    if (!std::isfinite(V))
      return "NaN";
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    return Buf;
  }

  std::string Name;
  std::vector<std::string> Fields;
};

} // namespace benchutil
} // namespace spice

#endif // SPICE_BENCH_BENCHUTIL_H
