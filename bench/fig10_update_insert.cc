// Reproduces Figure 10 (Section IV.A.2): Q1/Q2 response times on the standby
// under the Update+Insert workload — 25% inserts, 40% updates, 34% index
// fetches on the primary, 1% scans on the standby — with and without
// DBIM-on-ADG.
//
// The paper reports ~10x (an order of magnitude less than Figure 9): inserts
// grow the table, so the population infrastructure continuously extends and
// repopulates the *edge IMCU*, and freshly inserted rows are served from the
// row store until covered. The harness prints the population-churn counters
// that explain the smaller factor.

#include "bench_util.h"

namespace stratus {
namespace {

struct RunOutcome {
  Histogram q1;
  Histogram q2;
  double achieved_ops = 0;
  PopulationStats population;
  uint64_t final_rows = 0;
};

RunOutcome RunOnce(bool imadg_enabled) {
  DatabaseOptions db_options = DefaultClusterOptions();
  db_options.standby_imadg_enabled = imadg_enabled;
  // Faster tail coverage: the edge chunk is the experiment.
  db_options.population.manager_interval_us = 2'000;
  AdgCluster cluster(db_options);
  cluster.Start();

  OltapOptions options = DefaultOltapOptions();
  options.update_pct = 40;
  options.insert_pct = 25;
  options.scan_pct = 1;
  OltapWorkload workload(&cluster, options);
  Status st = workload.Setup(ImService::kStandbyOnly);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  workload.Run();

  RunOutcome out;
  out.q1.Merge(workload.stats().q1_latency);
  out.q2.Merge(workload.stats().q2_latency);
  out.achieved_ops = workload.stats().AchievedOpsPerSec();
  if (imadg_enabled) {
    out.population = cluster.standby()->populator()->stats();
  }
  ScanQuery count;
  count.object = workload.table_id();
  count.aggregates = {{AggKind::kCount, 0}};
  auto result = cluster.standby()->Query(count);
  if (result.ok()) out.final_rows = result->count;
  if (imadg_enabled) DumpMetricsJson(cluster, "fig10_update_insert");
  cluster.Stop();
  return out;
}

}  // namespace
}  // namespace stratus

int main() {
  using namespace stratus;
  PrintHeader(
      "Figure 10 — Update+Insert workload: Q1/Q2 response times on the standby",
      "ICDE'20 Fig. 10: ~10x improvement; edge-IMCU churn limits the benefit");

  std::printf("\n[1/2] Standby WITHOUT DBIM-on-ADG...\n");
  RunOutcome without = RunOnce(false);
  std::printf("[2/2] Standby WITH DBIM-on-ADG...\n");
  RunOutcome with_im = RunOnce(true);

  ReportTable fig10({"Query", "Metric", "w/o DBIM-on-ADG (ms)", "w/ DBIM-on-ADG (ms)",
                     "Speedup", "Paper"});
  const struct {
    const char* name;
    const Histogram* base;
    const Histogram* improved;
  } rows[] = {
      {"Q1 (n1 = :1)", &without.q1, &with_im.q1},
      {"Q2 (c1 = :2)", &without.q2, &with_im.q2},
  };
  for (const auto& r : rows) {
    fig10.AddRow({r.name, "median", UsToMs(r.base->Percentile(50)),
                  UsToMs(r.improved->Percentile(50)),
                  Speedup(r.base->Percentile(50), r.improved->Percentile(50)),
                  "~10x"});
    fig10.AddRow({r.name, "average", UsToMs(r.base->Average()),
                  UsToMs(r.improved->Average()),
                  Speedup(r.base->Average(), r.improved->Average()), "~10x"});
    fig10.AddRow({r.name, "p95", UsToMs(r.base->Percentile(95)),
                  UsToMs(r.improved->Percentile(95)),
                  Speedup(r.base->Percentile(95), r.improved->Percentile(95)),
                  "~10x"});
  }
  fig10.Print("FIGURE 10 — Update+Insert workload (25% ins / 40% upd / 34% fetch / 1% scan)");

  ReportTable churn({"Counter", "Value"});
  churn.AddRow({"table rows at end", std::to_string(with_im.final_rows)});
  churn.AddRow({"IMCUs populated", std::to_string(with_im.population.imcus_populated)});
  churn.AddRow({"edge (tail) extensions", std::to_string(with_im.population.tail_extensions)});
  churn.AddRow({"repopulations", std::to_string(with_im.population.repopulations)});
  churn.AddRow({"rows populated", std::to_string(with_im.population.rows_populated)});
  churn.Print("Edge-IMCU churn during the DBIM-on-ADG run (Section IV.A.2's explanation)");

  std::printf("\nAchieved throughput: without=%.0f ops/s, with=%.0f ops/s\n",
              without.achieved_ops, with_im.achieved_ops);

  BenchReport report("fig10_update_insert");
  ReportCommonConfig(&report, DefaultOltapOptions());
  report.Metric("q1_median_us_without", without.q1.Percentile(50));
  report.Metric("q1_median_us_with", with_im.q1.Percentile(50));
  report.Metric("q1_p95_us_without", without.q1.Percentile(95));
  report.Metric("q1_p95_us_with", with_im.q1.Percentile(95));
  report.Metric("q2_median_us_without", without.q2.Percentile(50));
  report.Metric("q2_median_us_with", with_im.q2.Percentile(50));
  report.Metric("ops_per_sec_without", without.achieved_ops);
  report.Metric("ops_per_sec_with", with_im.achieved_ops);
  report.Metric("final_rows", with_im.final_rows);
  report.Metric("imcus_populated", with_im.population.imcus_populated);
  report.Metric("tail_extensions", with_im.population.tail_extensions);
  report.Metric("repopulations", with_im.population.repopulations);
  report.Write();
  return 0;
}
