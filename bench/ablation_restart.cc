// Ablation of specialized redo generation (Section III.E): after a standby
// instance restart, a transaction that straddled the restart is discovered
// with a missing 'transaction begin' record. With the commit-record IM flag,
// only transactions that actually touched IMCS objects trigger coarse
// invalidation; without it, the standby must pessimistically coarse-
// invalidate for EVERY straddling transaction — costing IMCS coverage (and
// thus query latency) until repopulation.

// A second stage ablates the durability subsystem's IMCS snapshot-resume: a
// standby restarted FROM DISK either repopulates the column store from the
// recovered row store (snapshot off) or adopts the serialized IMCUs written
// at the last checkpoint (snapshot on). The metric is time-to-query-ready:
// restart begin to the first scan fully served from the IMCS.

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"

#include <cstdlib>
#include <thread>

namespace stratus {
namespace {

struct Outcome {
  uint64_t coarse_invalidations = 0;
  double q1_before_repop_ms = 0;   // Right after the flag-driven decision.
  double q1_after_repop_ms = 0;    // Once repopulation restored the IMCS.
};

Outcome RunOnce(bool specialized_redo, bool straddler_touches_im) {
  DatabaseOptions db_options = DefaultClusterOptions();
  db_options.specialized_redo = specialized_redo;
  db_options.population.manager_interval_us = 1'000'000;  // Manual repop only.
  AdgCluster cluster(db_options);
  cluster.Start();
  const size_t rows = static_cast<size_t>(EnvInt("STRATUS_ROWS", 40'000));
  const ObjectId im_table =
      cluster
          .CreateTable("im", kDefaultTenant, Schema::WideTable(5, 5),
                       ImService::kStandbyOnly, true)
          .value();
  const ObjectId plain_table =
      cluster
          .CreateTable("plain", kDefaultTenant, Schema::WideTable(1, 0),
                       ImService::kNone, true)
          .value();
  {
    Random rng(1);
    size_t loaded = 0;
    while (loaded < rows) {
      Transaction txn = cluster.primary()->Begin();
      for (int i = 0; i < 512 && loaded < rows; ++i, ++loaded) {
        Row row{Value(static_cast<int64_t>(loaded))};
        for (int c = 0; c < 5; ++c)
          row.push_back(Value(static_cast<int64_t>(rng.Uniform(1000))));
        for (int c = 0; c < 5; ++c) row.push_back(Value(rng.NextString(8)));
        (void)cluster.primary()->Insert(&txn, im_table, std::move(row), nullptr);
      }
      (void)cluster.primary()->Commit(&txn);
    }
  }
  cluster.WaitForCatchup();

  // The straddler: begins (and is partially mined) before the restart.
  Transaction straddler = cluster.primary()->Begin();
  if (straddler_touches_im) {
    Row row{Value(int64_t{1})};
    for (int c = 0; c < 5; ++c) row.push_back(Value(int64_t{1}));
    for (int c = 0; c < 5; ++c) row.push_back(Value(std::string("mid-txn!")));
    (void)cluster.primary()->UpdateByKey(&straddler, im_table, 1, std::move(row));
  } else {
    (void)cluster.primary()->Insert(
        &straddler, plain_table, Row{Value(int64_t{0}), Value(int64_t{0})}, nullptr);
  }
  // A committed marker so the straddler's DMLs are applied pre-restart.
  {
    Transaction txn = cluster.primary()->Begin();
    (void)cluster.primary()->Insert(&txn, plain_table,
                                    Row{Value(int64_t{1}), Value(int64_t{1})},
                                    nullptr);
    (void)cluster.primary()->Commit(&txn);
  }
  cluster.WaitForCatchup();

  cluster.standby()->Restart();
  cluster.WaitForCatchup();
  // Population completes BEFORE the straddler's commit arrives — the
  // pathological timing the paper's "postpone population briefly" advice
  // avoids.
  (void)cluster.standby()->PopulateNow(im_table);
  (void)cluster.primary()->Commit(&straddler);
  cluster.WaitForCatchup();

  Outcome out;
  out.coarse_invalidations =
      cluster.standby()->im_store()->Stats().coarse_invalidations;

  auto time_q1 = [&] {
    ScanQuery q;
    q.object = im_table;
    q.predicates = {{1, PredOp::kEq, Value(int64_t{7})}};
    q.aggregates = {{AggKind::kCount, 0}};
    Stopwatch watch;
    (void)cluster.standby()->Query(q);
    return static_cast<double>(watch.ElapsedNanos()) / 1e6;
  };
  out.q1_before_repop_ms = time_q1();
  // Repopulate (recovers from coarse invalidation) and measure again.
  for (int i = 0; i < 3; ++i) cluster.standby()->populator()->RunOnePass();
  out.q1_after_repop_ms = time_q1();
  cluster.Stop();
  return out;
}

struct RestartOutcome {
  double restart_ms = 0;     // RestartStandby wall time (recovery incl.)
  double ready_ms = 0;       // Restart begin -> first IMCS-served scan.
  uint64_t rows_from_imcs = 0;
  uint64_t restored_smus = 0;
};

std::string MakeBenchDir() {
  std::string tmpl = "/tmp/stratus_bench_restart_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) std::abort();
  return tmpl;
}

RestartOutcome RunDiskRestart(bool snapshot_resume, size_t rows) {
  DatabaseOptions db_options = DefaultClusterOptions();
  db_options.population.manager_interval_us = 1'000'000;  // Manual repop only.
  db_options.persist.enabled = true;
  db_options.persist.data_dir = MakeBenchDir();
  db_options.persist.snapshot_imcs = snapshot_resume;
  AdgCluster cluster(db_options);
  cluster.Start();
  const ObjectId im_table =
      cluster
          .CreateTable("im", kDefaultTenant, Schema::WideTable(5, 5),
                       ImService::kStandbyOnly, true)
          .value();
  Random rng(1);
  size_t loaded = 0;
  while (loaded < rows) {
    Transaction txn = cluster.primary()->Begin();
    for (int i = 0; i < 512 && loaded < rows; ++i, ++loaded) {
      Row row{Value(static_cast<int64_t>(loaded))};
      for (int c = 0; c < 5; ++c)
        row.push_back(Value(static_cast<int64_t>(rng.Uniform(1000))));
      for (int c = 0; c < 5; ++c) row.push_back(Value(rng.NextString(8)));
      (void)cluster.primary()->Insert(&txn, im_table, std::move(row), nullptr);
    }
    (void)cluster.primary()->Commit(&txn);
  }
  cluster.WaitForCatchup();
  (void)cluster.standby()->PopulateNow(im_table);
  // The checkpoint writes the row-store image (and, with snapshot_imcs, the
  // serialized IMCUs) that the restart below recovers from.
  (void)cluster.standby()->TakeCheckpoint();
  const Scn scn_before = cluster.standby()->published_query_scn();

  RestartOutcome out;
  Stopwatch watch;
  (void)cluster.RestartStandby({.from_disk = true});
  out.restart_ms = static_cast<double>(watch.ElapsedNanos()) / 1e6;
  out.restored_smus = cluster.standby()->last_recovery().restored_smus;
  // Query-ready = a scan at (at least) the pre-restart snapshot served from
  // the IMCS. Full repopulation pays the row-store scan + encode here;
  // snapshot resume adopted the reloaded IMCUs during recovery and skips it.
  if (cluster.standby()->im_store()->Stats().smus_ready == 0)
    (void)cluster.standby()->PopulateNow(im_table);
  (void)cluster.standby()->WaitForQueryScn(scn_before, 30'000'000);
  ScanQuery q;
  q.object = im_table;
  q.predicates = {{1, PredOp::kEq, Value(int64_t{7})}};
  q.aggregates = {{AggKind::kCount, 0}};
  const auto result = cluster.standby()->Query(q);
  out.ready_ms = static_cast<double>(watch.ElapsedNanos()) / 1e6;
  if (result.ok()) out.rows_from_imcs = result->stats.rows_from_imcs;
  cluster.Stop();
  return out;
}

}  // namespace
}  // namespace stratus

int main() {
  using namespace stratus;
  PrintHeader("Ablation — specialized redo generation vs pessimistic coarse invalidation",
              "ICDE'20 Section III.E: the commit-record flag avoids needless coarse invalidation");

  struct Config {
    const char* name;
    bool specialized;
    bool touches_im;
    const char* expectation;
  };
  const Config configs[] = {
      {"flag on, straddler touched IMCS object", true, true, "coarse (necessary)"},
      {"flag on, straddler touched only non-IM object", true, false, "NO coarse"},
      {"flag off, straddler touched only non-IM object", false, false,
       "coarse (pessimistic)"},
  };
  BenchReport report("ablation_restart");
  report.Config("rows", EnvInt("STRATUS_ROWS", 40'000));
  ReportTable table({"Configuration", "coarse invalidations", "Q1 before repop (ms)",
                     "Q1 after repop (ms)", "expected"});
  int config_idx = 0;
  for (const Config& c : configs) {
    std::printf("\nRunning: %s...\n", c.name);
    const Outcome out = RunOnce(c.specialized, c.touches_im);
    table.AddRow({c.name, std::to_string(out.coarse_invalidations),
                  Fmt(out.q1_before_repop_ms), Fmt(out.q1_after_repop_ms),
                  c.expectation});
    const std::string prefix =
        "cfg" + std::to_string(config_idx++) + std::string(c.specialized ? "_flag" : "_noflag") +
        std::string(c.touches_im ? "_im_" : "_noim_");
    report.Metric(prefix + "coarse_invalidations", out.coarse_invalidations);
    report.Metric(prefix + "q1_before_repop_ms", out.q1_before_repop_ms);
    report.Metric(prefix + "q1_after_repop_ms", out.q1_after_repop_ms);
  }
  table.Print("ABLATION — restart handling (coarse invalidation = whole IMCS row-path)");
  std::printf(
      "\nExpected shape: only rows 1 and 3 coarse-invalidate. Where coarse\n"
      "invalidation strikes, Q1 pays row-path latency until repopulation.\n");

  // Stage 2: disk restart with vs without IMCS snapshot resume.
  const size_t restart_rows =
      static_cast<size_t>(EnvInt("STRATUS_RESTART_ROWS", 60'000));
  report.Config("restart_rows", static_cast<int64_t>(restart_rows));
  ReportTable restart_table({"Disk-restart variant", "restart (ms)",
                             "query-ready (ms)", "rows from IMCS",
                             "restored SMUs"});
  std::printf("\nRunning: disk restart, full repopulation...\n");
  const RestartOutcome full = RunDiskRestart(/*snapshot_resume=*/false,
                                             restart_rows);
  std::printf("Running: disk restart, snapshot resume...\n");
  const RestartOutcome resume = RunDiskRestart(/*snapshot_resume=*/true,
                                               restart_rows);
  restart_table.AddRow({"full repopulation", Fmt(full.restart_ms),
                        Fmt(full.ready_ms), std::to_string(full.rows_from_imcs),
                        std::to_string(full.restored_smus)});
  restart_table.AddRow({"snapshot resume", Fmt(resume.restart_ms),
                        Fmt(resume.ready_ms),
                        std::to_string(resume.rows_from_imcs),
                        std::to_string(resume.restored_smus)});
  restart_table.Print(
      "ABLATION — IMCS snapshot resume vs full repopulation after disk restart");
  const double speedup =
      resume.ready_ms > 0 ? full.ready_ms / resume.ready_ms : 0;
  report.Metric("restart_full_repop_ready_ms", full.ready_ms);
  report.Metric("restart_snapshot_resume_ready_ms", resume.ready_ms);
  report.Metric("restart_full_repop_restart_ms", full.restart_ms);
  report.Metric("restart_snapshot_resume_restart_ms", resume.restart_ms);
  report.Metric("restart_snapshot_restored_smus", resume.restored_smus);
  report.Metric("restart_snapshot_resume_speedup", speedup);
  std::printf(
      "\nSnapshot resume reaches query-ready %.2fx faster than repopulating\n"
      "the column store from the recovered row store.\n", speedup);
  return 0;
}
