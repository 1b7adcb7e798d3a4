// Microbenchmarks of the DBIM-on-ADG bookkeeping structures on the redo-apply
// hot path: IM-ADG Journal record buffering (per-worker areas, Section III.C),
// IM-ADG Commit Table insertion (partitioned vs single sorted list, Section
// III.D.1), worklink chopping, and redo batch encode/decode.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "imadg/commit_table.h"
#include "imadg/journal.h"
#include "common/random.h"
#include "net/codec.h"
#include "redo/change_vector.h"

namespace stratus {
namespace {

void BM_JournalAddRecord(benchmark::State& state) {
  ImAdgJournal journal(64, 4);
  InvalidationRecord rec;
  rec.object_id = 10;
  rec.dba = 100;
  rec.slot = 1;
  Xid xid = 1;
  int i = 0;
  for (auto _ : state) {
    // A fresh transaction every 16 records (anchor reuse dominates).
    if (++i % 16 == 0) ++xid;
    journal.AddRecord(xid, /*worker=*/0, rec);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalAddRecord);

void BM_JournalAnchorCreation(benchmark::State& state) {
  ImAdgJournal journal(static_cast<size_t>(state.range(0)), 4);
  Xid xid = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(journal.GetOrCreateAnchor(xid++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalAnchorCreation)->Arg(1)->Arg(64)->Arg(1024);

void BM_CommitTableInsert(benchmark::State& state) {
  // Arg = partitions. In-order commitSCNs: the common tail-append path.
  ImAdgCommitTable table(static_cast<size_t>(state.range(0)));
  Scn scn = 1;
  for (auto _ : state) {
    table.Insert(scn, scn, true, false, kDefaultTenant, nullptr);
    ++scn;
    if (scn % 4096 == 0) {
      state.PauseTiming();
      auto* chain = table.Chop(scn);
      while (chain != nullptr) {
        auto* next = chain->next;
        delete chain;
        chain = next;
      }
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitTableInsert)->Arg(1)->Arg(8);

void BM_CommitTableInsertOutOfOrder(benchmark::State& state) {
  // Mildly out-of-order commitSCNs (as parallel mining produces them): the
  // single sorted list pays head walks, partitions mostly avoid them.
  ImAdgCommitTable table(static_cast<size_t>(state.range(0)));
  Random rng(5);
  Scn base = 1000;
  for (auto _ : state) {
    const Scn scn = base + rng.Uniform(64);
    base += 2;
    table.Insert(scn, scn, true, false, kDefaultTenant, nullptr);
    if (base % 8192 == 0) {
      state.PauseTiming();
      auto* chain = table.Chop(base + 64);
      while (chain != nullptr) {
        auto* next = chain->next;
        delete chain;
        chain = next;
      }
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["walk_steps_per_insert"] =
      static_cast<double>(table.insert_walk_steps()) /
      static_cast<double>(table.inserts());
}
BENCHMARK(BM_CommitTableInsertOutOfOrder)->Arg(1)->Arg(8);

void BM_WorklinkChop(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ImAdgCommitTable table(8);
    for (Scn s = 1; s <= 4096; ++s)
      table.Insert(s, s, true, false, kDefaultTenant, nullptr);
    state.ResumeTiming();
    auto* chain = table.Chop(4096);
    benchmark::DoNotOptimize(chain);
    state.PauseTiming();
    while (chain != nullptr) {
      auto* next = chain->next;
      delete chain;
      chain = next;
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_WorklinkChop)->Unit(benchmark::kMicrosecond);

/// One 20-column update record through the one redo codec (the wire's and
/// the archive's EncodeRedoBatch/DecodeRedoBatch).
void BM_RedoBatchEncodeDecode(benchmark::State& state) {
  RedoRecord rec;
  rec.scn = 12345;
  ChangeVector cv;
  cv.kind = CvKind::kUpdate;
  cv.scn = 12345;
  cv.xid = 99;
  cv.dba = 4711;
  cv.object_id = 10;
  cv.slot = 17;
  for (int c = 0; c < 10; ++c) cv.after.push_back(Value(static_cast<int64_t>(c)));
  for (int c = 0; c < 10; ++c) cv.after.push_back(Value(std::string("abcdefgh")));
  rec.cvs.push_back(std::move(cv));
  const std::vector<RedoRecord> batch = {rec};
  for (auto _ : state) {
    std::string buf;
    net::EncodeRedoBatch(batch, &buf);
    std::vector<RedoRecord> out;
    benchmark::DoNotOptimize(net::DecodeRedoBatch(buf, &out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedoBatchEncodeDecode);

/// Unified BENCH_micro_journal.json emitted at exit (google-benchmark owns
/// main(); per-case timings stay in the benchmark's own stdout — the report
/// records the run's shape for trajectory tooling).
struct ReportDumper {
  ~ReportDumper() {
    BenchReport report("micro_journal");
    report.Config("journal_cvs_per_txn", int64_t{16});
    report.Config("chop_batch", int64_t{4096});
    report.Write();
  }
} g_report_dumper;

}  // namespace
}  // namespace stratus
