#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

// The one place the benchmark calls into the stratus program. Everything
// else in perfbench speaks in the plain types below, so an API change lands
// here and nowhere else. Every call into the program is wrapped in a span
// (recorded only while tracing is enabled).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Scn = uint64_t;

enum class TableId { kFact, kDim };

/// Fact table WideTable(4,1): id, n1 (group key), n2 (measure), n3 (filter),
/// n4 (dim key), c1. Dim table WideTable(2,1) uses id, n1, n2, c1 (n3/n4 are
/// ignored).
struct Rec {
  int64_t id = 0;
  int64_t n1 = 0, n2 = 0, n3 = 0, n4 = 0;
  std::string c1;
};

/// Widths of the n3 ranges of the group (50% of rows) and join (10%) shapes.
inline constexpr int64_t kGroupRangeWidth = 500;
inline constexpr int64_t kJoinRangeWidth = 100;

/// The three query shapes of the query client; `arg` is the shape's seeded
/// parameter (scan: n1 value; group/join: low end of the n3 range).
enum class Shape { kScan = 0, kGroup = 1, kJoin = 2 };
struct QuerySpec {
  Shape shape = Shape::kScan;
  int64_t arg = 0;
};

/// Where a pinned read runs: the standby as planned, the standby with the
/// IMCS bypassed, or the primary's flashback read.
enum class ReadPath { kStandby, kStandbyRowStore, kPrimary };

struct QueryOutcome {
  bool ok = false;
  std::string error;
  /// Result bytes (rows, count, aggregate) for the oracle's comparisons.
  std::string result;
  // Scan accounting summed over the query's scan leaves.
  uint64_t invalid_rowpath = 0;
  uint64_t rows_from_imcs = 0;
  uint64_t rows_from_rowstore = 0;
  uint64_t parallel_tasks = 0;
  uint32_t scan_leaves = 0;
  uint32_t rowpath_leaves = 0;
  /// The planner's path for the fact-table leaf, and the rows that leaf
  /// matched (the folded count when the aggregate was pushed into it).
  bool fact_leaf_imcs = true;
  uint64_t fact_leaf_matches = 0;
};

struct TxnOutcome {
  bool ok = false;
  std::string error;
  Scn commit_scn = 0;
  uint64_t update_ns = 0;  ///< Summed time in UpdateByKey calls.
  uint64_t commit_ns = 0;  ///< Time in Commit.
  uint64_t total_ns = 0;   ///< Begin → last UpdateByKey → Commit.
};

/// Public counters of every layer, read in one pass (diffed across spans).
struct Counters {
  uint64_t redo_records = 0;             ///< Σ RedoLog::TotalRecords.
  uint64_t shipped_bytes = 0;            ///< AdgCluster::shipped_bytes.
  uint64_t dispatched_records = 0;
  std::vector<uint64_t> worker_cvs;      ///< RecoveryWorker::applied_cvs.
  uint64_t advancements = 0;
  uint64_t quiesce_ns = 0;
  uint64_t flushed_records = 0;
  uint64_t cooperative_steps = 0;
  uint64_t coordinator_steps = 0;
  uint64_t mined_records = 0;
  uint64_t ct_inserts = 0;
  uint64_t ct_walk_steps = 0;
  uint64_t ct_contention = 0;
  uint64_t journal_contention = 0;
  uint64_t repopulations = 0;
  uint64_t rows_populated = 0;
  uint64_t row_invalidations = 0;
  uint64_t im_used_bytes = 0;
};

/// Pipeline watermarks for one SCN's journey from commit to visibility.
struct Watermarks {
  Scn delivered = 0;    ///< min ReceivedLog::DeliveredWatermark.
  bool shipped_all = false;  ///< Every shipper reached its log's LastScn.
  Scn dispatched = 0;   ///< RedoApplyEngine::dispatched_scn.
  Scn applied = 0;      ///< min RecoveryWorker::applied_watermark.
  Scn query_scn = 0;    ///< StandbyDb::query_scn.
};

class Adapter {
 public:
  /// Builds and starts the primary → standby cluster with the benchmark's
  /// fixed options (see adapter.cc). `redo_threads` primary redo threads.
  explicit Adapter(int redo_threads);
  ~Adapter();

  Adapter(const Adapter&) = delete;
  Adapter& operator=(const Adapter&) = delete;

  /// Creates the fact and dim tables (standby-only IMCS, identity index).
  bool CreateTables(std::string* error);
  /// Inserts `rows` in one transaction on `redo_thread`.
  bool InsertRows(TableId table, std::vector<Rec>&& rows, int redo_thread,
                  std::string* error);
  /// Blocks until the standby QuerySCN covers every primary commit.
  Scn CatchUp();
  /// Synchronously populates both tables' IMCUs on the standby.
  bool Populate(std::string* error);

  /// One transaction: Begin, UpdateByKey per row, Commit.
  TxnOutcome Update(TableId table, const std::vector<Rec>& rows,
                    int redo_thread);

  /// Waits (blocking) for the standby QuerySCN to reach `scn`.
  bool WaitVisible(Scn scn, int64_t timeout_us);
  Scn QueryScn() const;
  Watermarks ReadWatermarks() const;
  void SetShippingPaused(bool paused);

  /// Runs `spec` pinned at `scn` on `path` (dop 2).
  QueryOutcome Query(const QuerySpec& spec, Scn scn, ReadPath path);
  /// Issues the fact-table scan leaf of `spec` straight to the scan engine at
  /// the same pinned SCN, with the plan's access path and push-down
  /// settings. Returns matches (rows or folded count); false on error.
  bool ScanLeaf(const QuerySpec& spec, Scn scn, bool imcs_path,
                uint64_t* matches);
  /// Fact rows a full standby scan at the current QuerySCN would read from
  /// the row store (invalid or uncovered IMCS rows); 0 once repopulation has
  /// caught up. Returns false on error.
  bool FactRowStoreRows(uint64_t* rows);

  /// Garbage-collects row versions no reader can see on both databases.
  void PruneVersions();

  /// Fact COUNT(*) and SUM(n2) pinned at `scn` on `path`.
  bool FactTotals(Scn scn, ReadPath path, uint64_t* count, int64_t* sum,
                  std::string* error);

  Counters ReadCounters() const;
  /// Empty while healthy; otherwise the standby's degraded-health report.
  std::string HealthProblem() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int redo_threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
