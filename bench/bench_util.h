#ifndef STRATUS_BENCH_BENCH_UTIL_H_
#define STRATUS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "db/database.h"
#include "workload/oltap.h"
#include "workload/report.h"

namespace stratus {

/// Environment-overridable knob: STRATUS_<NAME> (integer).
inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoll(v, nullptr, 10);
}

/// Shared defaults for the paper harnesses. The paper's testbed used a 6M-row
/// × 101-column table on Exadata; defaults here are scaled to finish on one
/// core in minutes (see DESIGN.md substitutions). Override via environment:
/// STRATUS_ROWS, STRATUS_DURATION_MS, STRATUS_NUM_COLS, STRATUS_VARCHAR_COLS,
/// STRATUS_TARGET_OPS.
inline OltapOptions DefaultOltapOptions() {
  OltapOptions options;
  options.initial_rows = static_cast<size_t>(EnvInt("STRATUS_ROWS", 60'000));
  options.num_cols = static_cast<int>(EnvInt("STRATUS_NUM_COLS", 10));
  options.varchar_cols = static_cast<int>(EnvInt("STRATUS_VARCHAR_COLS", 10));
  options.duration_ms = static_cast<int>(EnvInt("STRATUS_DURATION_MS", 5'000));
  options.target_ops_per_sec =
      static_cast<int>(EnvInt("STRATUS_TARGET_OPS", 4'000));
  options.num_threads = 2;
  options.value_domain = 1'000;
  return options;
}

inline DatabaseOptions DefaultClusterOptions() {
  DatabaseOptions options;
  options.apply.num_workers = static_cast<int>(EnvInt("STRATUS_WORKERS", 4));
  options.population.blocks_per_imcu = 16;
  options.population.manager_interval_us = 5'000;
  // Keep IMCU invalidity low so scans rarely pay the row-path reconciliation
  // (the paper's repopulation heuristics serve the same purpose).
  options.population.repop_invalid_threshold = 0.05;
  options.shipping.heartbeat_interval_us = 1'000;
  return options;
}

/// CPU time consumed by every thread of this process, in nanoseconds.
inline uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// The bench process's start stamps, taken once at static initialization
/// (inline variables: one instance per program), so a report measures the
/// whole run wherever it is constructed.
inline const uint64_t kBenchStartWallNs = NowNanos();
inline const uint64_t kBenchStartCpuNs = ProcessCpuNanos();

/// CPU percentage of one core over the run.
inline double CpuPct(uint64_t cpu_ns, uint64_t wall_ns) {
  return wall_ns == 0 ? 0.0
                      : 100.0 * static_cast<double>(cpu_ns) /
                            static_cast<double>(wall_ns);
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

/// Dumps the cluster's full metrics registry to `<name>_metrics.json` in the
/// working directory (the `*_metrics.json` pattern is gitignored). Call while
/// the cluster is still running — the registry export pulls live pipeline
/// stats that detach on Stop().
inline void DumpMetricsJson(const AdgCluster& cluster, const std::string& name) {
  const std::string path = name + "_metrics.json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << cluster.MetricsJson();
  std::printf("metrics dump: %s\n", path.c_str());
}

/// Unified result artifact: every bench writes `BENCH_<name>.json` with the
/// same schema so perf-trajectory tooling can diff runs without per-bench
/// parsers:
///
///   {"bench": "<name>", "schema": 1,
///    "config": {...},    // the knobs that shaped the run (env overrides in)
///    "metrics": {...},   // the bench's headline numbers
///    "wall_ms": ..., "cpu_ms": ...}
///
/// `wall_ms` and `cpu_ms` run from process start to Write(); `cpu_ms` is the
/// whole process's CPU time (every worker and pipeline thread included —
/// compare it against wall_ms for the cores the run kept busy). Write()
/// emits the file; the destructor writes if the bench forgot.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}
  ~BenchReport() {
    if (!written_) Write();
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void Config(const std::string& key, int64_t v) {
    config_.emplace_back(key, std::to_string(v));
  }
  void Config(const std::string& key, double v) {
    config_.emplace_back(key, Num(v));
  }
  void Config(const std::string& key, const std::string& v) {
    config_.emplace_back(key, "\"" + Escaped(v) + "\"");
  }
  void Metric(const std::string& key, int64_t v) {
    metrics_.emplace_back(key, std::to_string(v));
  }
  void Metric(const std::string& key, uint64_t v) {
    metrics_.emplace_back(key, std::to_string(v));
  }
  void Metric(const std::string& key, double v) {
    metrics_.emplace_back(key, Num(v));
  }

  void Write() {
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\"bench\":\"" << Escaped(name_) << "\",\"schema\":1,";
    out << "\"config\":" << Section(config_) << ",";
    out << "\"metrics\":" << Section(metrics_) << ",";
    out << "\"wall_ms\":"
        << Num(static_cast<double>(NowNanos() - kBenchStartWallNs) / 1e6)
        << ",";
    out << "\"cpu_ms\":"
        << Num(static_cast<double>(ProcessCpuNanos() - kBenchStartCpuNs) / 1e6)
        << "}\n";
    std::printf("bench report: %s\n", path.c_str());
  }

 private:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  static std::string Num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
  }
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  static std::string Section(const Entries& entries) {
    std::string out = "{";
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i != 0) out += ",";
      out += "\"" + Escaped(entries[i].first) + "\":" + entries[i].second;
    }
    return out + "}";
  }

  std::string name_;
  Entries config_;
  Entries metrics_;
  bool written_ = false;
};

/// Stamps the shared OLTAP/cluster env knobs into a report's config section
/// (the overridable surface of DefaultOltapOptions/DefaultClusterOptions).
inline void ReportCommonConfig(BenchReport* report, const OltapOptions& oltap) {
  report->Config("initial_rows", static_cast<int64_t>(oltap.initial_rows));
  report->Config("num_cols", static_cast<int64_t>(oltap.num_cols));
  report->Config("varchar_cols", static_cast<int64_t>(oltap.varchar_cols));
  report->Config("duration_ms", static_cast<int64_t>(oltap.duration_ms));
  report->Config("target_ops_per_sec",
                 static_cast<int64_t>(oltap.target_ops_per_sec));
  report->Config("workers", EnvInt("STRATUS_WORKERS", 4));
}

}  // namespace stratus

#endif  // STRATUS_BENCH_BENCH_UTIL_H_
