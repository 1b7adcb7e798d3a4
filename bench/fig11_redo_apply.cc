// Reproduces Figure 11 (Section IV.C): log advancement on primary and standby
// instances over time, with a 2-redo-thread (RAC) primary running a
// high-throughput mix of short, medium and long transactions and DBIM-on-ADG
// enabled on the standby. The claim under test: redo apply (and hence the
// QuerySCN) tracks primary log generation with minimal lag — the Invalidation
// Flush on the QuerySCN-advancement critical path adds only a thin overhead.
//
// The harness prints the time series the paper plots (pri_log/pri_log2 vs
// std_log) plus a with/without-DBIM-on-ADG lag summary.

#include <cmath>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"

namespace stratus {
namespace {

struct Sample {
  double t_sec;
  Scn pri_log1;
  Scn pri_log2;
  Scn std_dispatched;
  Scn std_query_scn;
  uint64_t shipped_bytes;
};

/// Least-squares trend of the sampled QuerySCN lag over time.
struct LagTrend {
  double slope_scn_per_s = 0;
  double slope_se = 0;  ///< Standard error of the slope.
  /// The slope is positive beyond twice its standard error.
  bool grows() const { return slope_scn_per_s > 2 * slope_se; }
};

LagTrend FitLagTrend(const std::vector<double>& t, const std::vector<double>& lag) {
  const size_t n = t.size();
  LagTrend trend;
  if (n < 3) return trend;
  double mean_t = 0, mean_lag = 0;
  for (size_t i = 0; i < n; ++i) {
    mean_t += t[i];
    mean_lag += lag[i];
  }
  mean_t /= static_cast<double>(n);
  mean_lag /= static_cast<double>(n);
  double sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxx += (t[i] - mean_t) * (t[i] - mean_t);
    sxy += (t[i] - mean_t) * (lag[i] - mean_lag);
  }
  if (sxx == 0) return trend;
  trend.slope_scn_per_s = sxy / sxx;
  const double intercept = mean_lag - trend.slope_scn_per_s * mean_t;
  double sse = 0;
  for (size_t i = 0; i < n; ++i) {
    const double residual = lag[i] - (intercept + trend.slope_scn_per_s * t[i]);
    sse += residual * residual;
  }
  trend.slope_se = std::sqrt(sse / static_cast<double>(n - 2) / sxx);
  return trend;
}

struct RunOutcome {
  std::vector<Sample> series;
  double avg_lag_scn = 0;
  Scn max_lag_scn = 0;
  LagTrend trend;
  uint64_t advancements = 0;
  double avg_quiesce_us = 0;
  uint64_t commits = 0;
};

RunOutcome RunOnce(bool imadg_enabled, int duration_ms, int mira_instances = 1) {
  DatabaseOptions db_options = DefaultClusterOptions();
  db_options.primary_redo_threads = 2;
  db_options.standby_imadg_enabled = imadg_enabled;
  db_options.mira_apply_instances = mira_instances;
  AdgCluster cluster(db_options);
  cluster.Start();

  const ObjectId table =
      cluster
          .CreateTable("t", kDefaultTenant, Schema::WideTable(5, 5),
                       ImService::kStandbyOnly, true)
          .value();

  // Seed rows.
  {
    Transaction txn = cluster.primary()->Begin();
    Random rng(7);
    for (int64_t id = 0; id < 4000; ++id) {
      Row row{Value(id)};
      for (int c = 0; c < 5; ++c)
        row.push_back(Value(static_cast<int64_t>(rng.Uniform(100))));
      for (int c = 0; c < 5; ++c) row.push_back(Value(rng.NextString(8)));
      (void)cluster.primary()->Insert(&txn, table, std::move(row), nullptr);
    }
    (void)cluster.primary()->Commit(&txn);
  }
  cluster.WaitForCatchup();
  (void)cluster.standby()->PopulateNow(table);

  // Transaction mix: short (1 DML), medium (8), long (64) — per Section IV.C.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_id{4000};
  auto writer = [&](RedoThreadId thread, uint64_t seed) {
    Random rng(seed);
    while (!stop.load(std::memory_order_acquire)) {
      const uint32_t dice = static_cast<uint32_t>(rng.Uniform(100));
      const int ops = dice < 60 ? 1 : dice < 90 ? 8 : 64;
      Transaction txn = cluster.primary()->Begin(thread);
      for (int i = 0; i < ops; ++i) {
        const int64_t id = rng.UniformInt(0, next_id.load() - 1);
        Row row{Value(id)};
        for (int c = 0; c < 5; ++c)
          row.push_back(Value(static_cast<int64_t>(rng.Uniform(100))));
        for (int c = 0; c < 5; ++c) row.push_back(Value(rng.NextString(8)));
        if (!cluster.primary()->UpdateByKey(&txn, table, id, std::move(row)).ok())
          break;
      }
      (void)cluster.primary()->Commit(&txn);
    }
  };
  std::thread w1(writer, 0, 11);
  std::thread w2(writer, 1, 22);

  RunOutcome out;
  Stopwatch watch;
  const int sample_interval_ms = 250;
  std::vector<Scn> lags;
  std::vector<double> lag_t;
  while (watch.ElapsedNanos() < static_cast<uint64_t>(duration_ms) * 1'000'000ull) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sample_interval_ms));
    Sample s;
    s.t_sec = watch.ElapsedSeconds();
    s.pri_log1 = cluster.primary()->redo_log(0)->LastScn();
    s.pri_log2 = cluster.primary()->redo_log(1)->LastScn();
    s.std_dispatched = cluster.standby()->apply_engine() != nullptr
                           ? cluster.standby()->apply_engine()->dispatched_scn()
                           : kInvalidScn;
    s.std_query_scn = cluster.standby()->query_scn();
    s.shipped_bytes = cluster.shipped_bytes();
    out.series.push_back(s);
    lag_t.push_back(s.t_sec);
    const Scn pri = std::max(s.pri_log1, s.pri_log2);
    if (pri != kInvalidScn && s.std_query_scn != kInvalidScn && pri > s.std_query_scn)
      lags.push_back(pri - s.std_query_scn);
    else
      lags.push_back(0);
  }
  stop.store(true, std::memory_order_release);
  w1.join();
  w2.join();

  double total = 0;
  for (Scn lag : lags) {
    total += static_cast<double>(lag);
    out.max_lag_scn = std::max(out.max_lag_scn, lag);
  }
  out.avg_lag_scn = lags.empty() ? 0 : total / static_cast<double>(lags.size());
  out.trend = FitLagTrend(lag_t, std::vector<double>(lags.begin(), lags.end()));
  if (cluster.standby()->coordinator() != nullptr) {
    out.advancements = cluster.standby()->coordinator()->advancements();
    out.avg_quiesce_us =
        out.advancements == 0
            ? 0.0
            : static_cast<double>(cluster.standby()->coordinator()->quiesce_nanos()) /
                  1000.0 / static_cast<double>(out.advancements);
  }
  out.commits = cluster.primary()->txn_manager()->commits();
  if (imadg_enabled && mira_instances == 1)
    DumpMetricsJson(cluster, "fig11_redo_apply");
  cluster.Stop();
  return out;
}

}  // namespace
}  // namespace stratus

int main() {
  using namespace stratus;
  const int duration_ms = static_cast<int>(EnvInt("STRATUS_DURATION_MS", 8'000));
  PrintHeader(
      "Figure 11 — Log advancement on primary and standby (2 primary redo threads)",
      "ICDE'20 Fig. 11: standby log catchup is almost instantaneous, minimal lag");

  std::printf("\n[1/3] DBIM-on-ADG ENABLED (SIRA)...\n");
  RunOutcome with_im = RunOnce(true, duration_ms);
  std::printf("[2/3] DBIM-on-ADG DISABLED (plain ADG reference)...\n");
  RunOutcome without = RunOnce(false, duration_ms);
  std::printf("[3/3] DBIM-on-ADG + MIRA (2 apply instances — Section V)...\n");
  RunOutcome mira = RunOnce(true, duration_ms, /*mira_instances=*/2);

  ReportTable series({"t (s)", "pri_log (SCN)", "pri_log2 (SCN)", "std dispatched",
                      "std QuerySCN", "shipped (KiB)"});
  for (const Sample& s : with_im.series) {
    series.AddRow({Fmt(s.t_sec, 2), std::to_string(s.pri_log1),
                   std::to_string(s.pri_log2), std::to_string(s.std_dispatched),
                   std::to_string(s.std_query_scn),
                   std::to_string(s.shipped_bytes / 1024)});
  }
  series.Print("FIGURE 11 — log advancement time series (DBIM-on-ADG enabled)");

  ReportTable summary({"Configuration", "avg lag (SCN)", "max lag (SCN)",
                       "lag slope (SCN/s)", "slope SE", "verdict",
                       "QuerySCN advancements", "avg quiesce (us)", "commits"});
  auto add_row = [&summary](const char* name, const RunOutcome& r) {
    summary.AddRow({name, Fmt(r.avg_lag_scn, 0), std::to_string(r.max_lag_scn),
                    Fmt(r.trend.slope_scn_per_s, 0), Fmt(r.trend.slope_se, 0),
                    r.trend.grows() ? "lag grows" : "lag bounded",
                    std::to_string(r.advancements), Fmt(r.avg_quiesce_us, 1),
                    std::to_string(r.commits)});
  };
  add_row("DBIM-on-ADG enabled", with_im);
  add_row("plain ADG", without);
  add_row("DBIM-on-ADG + MIRA (2 apply instances)", mira);
  summary.Print("Redo-apply impact of DBIM-on-ADG (Section IV.C claim: negligible)");

  std::printf("\nShape check: verdict \"lag grows\" when the least-squares slope of\n"
              "the sampled QuerySCN lag exceeds twice its standard error, else\n"
              "\"lag bounded\" (the paper's claim is bounded lag).\n");

  BenchReport report("fig11_redo_apply");
  report.Config("duration_ms", static_cast<int64_t>(duration_ms));
  report.Config("workers", EnvInt("STRATUS_WORKERS", 4));
  report.Metric("avg_lag_scn_with", with_im.avg_lag_scn);
  report.Metric("max_lag_scn_with", with_im.max_lag_scn);
  report.Metric("lag_slope_scn_per_s_with", with_im.trend.slope_scn_per_s);
  report.Metric("lag_slope_se_with", with_im.trend.slope_se);
  report.Metric("advancements_with", with_im.advancements);
  report.Metric("avg_quiesce_us_with", with_im.avg_quiesce_us);
  report.Metric("commits_with", with_im.commits);
  report.Metric("avg_lag_scn_plain", without.avg_lag_scn);
  report.Metric("max_lag_scn_plain", without.max_lag_scn);
  report.Metric("lag_slope_scn_per_s_plain", without.trend.slope_scn_per_s);
  report.Metric("lag_slope_se_plain", without.trend.slope_se);
  report.Metric("avg_lag_scn_mira", mira.avg_lag_scn);
  report.Metric("max_lag_scn_mira", mira.max_lag_scn);
  report.Metric("lag_slope_scn_per_s_mira", mira.trend.slope_scn_per_s);
  report.Metric("lag_slope_se_mira", mira.trend.slope_se);
  report.Write();
  return 0;
}
