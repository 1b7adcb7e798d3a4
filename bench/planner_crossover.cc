// IMCS-vs-row-path crossover under update pressure: as the standby's SMU
// invalidity grows (updates invalidate rows faster than repopulation renews
// them), the columnar scan pays more and more per-row reconciliation
// re-fetches until the row path is simply faster. This harness disables
// repopulation so invalidity accumulates, sweeps the invalid fraction, and at
// each level measures the same full-table SUM on both paths — the latency
// crossover is the empirical justification for the planner's
// rowpath_invalid_threshold default.

#include <algorithm>
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "db/plan.h"

namespace stratus {
namespace {

struct SweepPoint {
  double target_fraction = 0;    ///< Rows updated / initial rows.
  double invalid_fraction = 0;   ///< What the planner actually saw.
  Histogram imcs;                ///< Cost model pinned to IMCS (us).
  Histogram row;                 ///< force_row_store (us).
  std::string default_verdict;   ///< PlannerVerdict at the default threshold.
};

/// Updates rows [from, to) by identity, one transaction per batch, so the
/// invalidated row set is exactly the id range (no random-overlap slack).
Status UpdateRange(AdgCluster* cluster, OltapWorkload* workload, int64_t from,
                   int64_t to, Random* rng) {
  PrimaryDb* primary = cluster->primary();
  constexpr int64_t kBatch = 256;
  for (int64_t id = from; id < to;) {
    Transaction txn = primary->Begin(0, kDefaultTenant);
    const int64_t end = std::min(to, id + kBatch);
    for (; id < end; ++id) {
      STRATUS_RETURN_IF_ERROR(primary->UpdateByKey(
          &txn, workload->table_id(), id, workload->MakeRow(id, rng)));
    }
    STRATUS_RETURN_IF_ERROR(primary->Commit(&txn).status());
  }
  return Status::OK();
}

}  // namespace
}  // namespace stratus

int main() {
  using namespace stratus;
  PrintHeader(
      "Planner crossover — IMCS vs row path as SMU invalidity grows",
      "Section III.C consequence: invalid rows reconcile through the row "
      "path, eroding the columnar advantage");

  DatabaseOptions db_options = DefaultClusterOptions();
  // Never repopulate: invalidity accumulates monotonically across the sweep
  // (both the invalidity trigger and the staleness trigger must be off).
  db_options.population.repop_invalid_threshold = 2.0;
  db_options.population.repop_staleness_us = 0;
  // Pin the cost model to IMCS while coverage exists so both paths stay
  // measurable past the default crossover; the default verdict is computed
  // per level from the shared policy function instead.
  db_options.planner.rowpath_invalid_threshold = 2.0;
  AdgCluster cluster(db_options);
  cluster.Start();

  OltapOptions options = DefaultOltapOptions();
  OltapWorkload workload(&cluster, options);
  Status st = workload.Setup(ImService::kStandbyOnly);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const int reps = static_cast<int>(EnvInt("STRATUS_CROSSOVER_REPS", 15));
  const uint32_t dop = static_cast<uint32_t>(EnvInt("STRATUS_SCAN_DOP", 2));
  const double kLevels[] = {0.0, 0.05, 0.10, 0.20, 0.30, 0.45, 0.60};
  const auto rows = static_cast<int64_t>(options.initial_rows);

  Random rng(options.seed + 1);
  std::vector<SweepPoint> points;
  int64_t updated = 0;
  for (const double level : kLevels) {
    const auto target = static_cast<int64_t>(level * static_cast<double>(rows));
    if (target > updated) {
      st = UpdateRange(&cluster, &workload, updated, target, &rng);
      if (!st.ok()) {
        std::fprintf(stderr, "update sweep failed: %s\n", st.ToString().c_str());
        return 1;
      }
      updated = target;
    }
    // Let redo apply and the invalidation flush settle before measuring.
    cluster.WaitForCatchup();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    SweepPoint point;
    point.target_fraction =
        static_cast<double>(updated) / static_cast<double>(rows);
    ScanQuery q;
    q.object = workload.table_id();
    q.aggregates = {{AggKind::kSum, 1}};
    q.dop = dop;
    for (int i = 0; i < 3; ++i) (void)cluster.standby()->Query(q);  // Warm up.
    for (int i = 0; i < reps; ++i) {
      for (const bool force_row : {false, true}) {
        q.force_row_store = force_row;
        Stopwatch watch;
        StatusOr<QueryResult> result = cluster.standby()->Query(q);
        if (!result.ok()) continue;
        (force_row ? point.row : point.imcs).Record(watch.ElapsedMicros());
        if (!force_row && !result->profile.stages.empty())
          point.invalid_fraction = result->profile.stages[0].invalid_fraction;
      }
    }
    const char* reason = "";
    const AccessPath verdict =
        PlannerVerdict(/*rows_covered=*/1, point.invalid_fraction,
                       PlannerOptions{}.rowpath_invalid_threshold, &reason);
    point.default_verdict = verdict == AccessPath::kImcs ? "imcs" : "row";
    points.push_back(std::move(point));
  }
  DumpMetricsJson(cluster, "planner_crossover");
  cluster.Stop();

  ReportTable table({"Updated %", "Invalid %", "IMCS med (us)", "Row med (us)",
                     "IMCS/Row", "Planner @0.40"});
  double latency_crossover = -1.0;
  double planner_crossover = -1.0;
  for (const SweepPoint& p : points) {
    const double imcs_med = p.imcs.Percentile(50);
    const double row_med = p.row.Percentile(50);
    if (latency_crossover < 0 && row_med > 0 && imcs_med > row_med)
      latency_crossover = p.invalid_fraction;
    if (planner_crossover < 0 && p.default_verdict == "row")
      planner_crossover = p.invalid_fraction;
    table.AddRow({Fmt(100.0 * p.target_fraction),
                  Fmt(100.0 * p.invalid_fraction), Fmt(imcs_med), Fmt(row_med),
                  row_med > 0 ? Fmt(imcs_med / row_med) : "-",
                  p.default_verdict});
  }
  table.Print("Full-table SUM latency, IMCS vs forced row path");
  std::printf(
      "\nLatency crossover at invalid fraction %.2f; the default planner "
      "flips at %.2f (threshold %.2f).\n",
      latency_crossover, planner_crossover,
      PlannerOptions{}.rowpath_invalid_threshold);

  BenchReport report("planner_crossover");
  ReportCommonConfig(&report, options);
  report.Config("scan_dop", static_cast<int64_t>(dop));
  report.Config("reps", static_cast<int64_t>(reps));
  report.Config("planner_threshold",
                PlannerOptions{}.rowpath_invalid_threshold);
  for (size_t i = 0; i < points.size(); ++i) {
    const std::string tag = "level" + std::to_string(i) + "_";
    report.Metric(tag + "invalid_fraction", points[i].invalid_fraction);
    report.Metric(tag + "imcs_median_us", points[i].imcs.Percentile(50));
    report.Metric(tag + "row_median_us", points[i].row.Percentile(50));
    report.Metric(tag + "planner_row",
                  static_cast<int64_t>(points[i].default_verdict == "row"));
  }
  report.Metric("latency_crossover_invalid_fraction", latency_crossover);
  report.Metric("planner_crossover_invalid_fraction", planner_crossover);
  report.Write();
  return 0;
}
