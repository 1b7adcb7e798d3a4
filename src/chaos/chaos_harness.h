#ifndef STRATUS_CHAOS_CHAOS_HARNESS_H_
#define STRATUS_CHAOS_CHAOS_HARNESS_H_

#include <cstdint>
#include <mutex>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chaos/crash_point.h"
#include "chaos/invariant_auditor.h"
#include "common/types.h"
#include "db/database.h"

namespace stratus::chaos {

/// Test-side ledger of every data change vector the primary shipped: one
/// count per (dba, slot), keyed like StandbyDb::AccountingKey. Redo is
/// written at DML time (write-ahead), so aborted transactions' DML counts
/// too — the standby applies those vectors physically and the abort record
/// makes them invisible, it never un-applies them.
class ApplyLedger {
 public:
  void Note(Dba dba, SlotId slot) {
    std::lock_guard<std::mutex> g(mu_);
    ++counts_[StandbyDb::AccountingKey(dba, slot)];
  }
  std::unordered_map<uint64_t, uint64_t> Snapshot() const {
    std::lock_guard<std::mutex> g(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> counts_;
};

/// Knobs for one crash–restart cycle driver.
struct HarnessOptions {
  uint64_t seed = 1;
  /// Primary churn per cycle.
  int txns_per_cycle = 12;
  int ops_per_txn = 6;
  double update_fraction = 0.30;
  double delete_fraction = 0.10;
  double abort_fraction = 0.15;
  /// How long to wait for the armed crash point to fire before concluding
  /// the cycle produced too few hits (the cycle still converges and audits).
  int64_t fire_wait_us = 2'000'000;
  int64_t converge_timeout_us = 30'000'000;
  /// Compare the apply-accounting counters against the shipped ledger
  /// (requires DatabaseOptions::apply_accounting on the standby).
  bool check_accounting = true;
  /// Kill-and-recover-from-disk: when a crash point fires, recover the
  /// standby from its data directory (crash teardown, archived-redo replay
  /// over the last fuzzy checkpoint, IMCS snapshot resume) with
  /// RestartStandby({.crash = true, .from_disk = true}) instead of the
  /// in-memory {.crash = true}. Requires DatabaseOptions::persist enabled on
  /// the standby.
  bool disk_restart = false;
};

/// Outcome of one cycle.
struct CycleResult {
  CrashPoint point = CrashPoint::kNumPoints;
  uint64_t armed_nth = 0;
  bool fired = false;         ///< A pipeline thread actually crashed.
  Scn query_scn = kInvalidScn;
  AuditReport report;         ///< Full invariant catalog, post-convergence.
};

/// Drives seeded crash–restart cycles against a live cluster: churn the
/// primary, let the armed crash point kill a standby pipeline thread
/// mid-apply, crash-restart the standby, converge, and run the invariant
/// auditor. Cycles share one driver so the QuerySCN floor and the shipped
/// ledger accumulate across restarts.
class CrashCycleDriver {
 public:
  CrashCycleDriver(AdgCluster* cluster, ChaosController* chaos, ObjectId table,
                   const HarnessOptions& options);

  /// One full cycle against `point`. With crash points compiled out the
  /// arming is skipped and the cycle degenerates to churn + converge + audit.
  CycleResult RunCycle(CrashPoint point);

  const ApplyLedger& ledger() const { return ledger_; }
  Scn floor_scn() const { return floor_; }
  uint64_t cycles_fired() const { return cycles_fired_; }

 private:
  void Churn();
  /// Appends a violation to `out` if the standby fails to converge.
  void Converge(std::vector<std::string>* out);
  uint64_t NthRange(CrashPoint point) const;
  double Uniform();
  Row MakeRow(int64_t key, int64_t payload) const;

  AdgCluster* cluster_;
  ChaosController* chaos_;
  ObjectId table_;
  HarnessOptions options_;
  InvariantAuditor auditor_;
  ApplyLedger ledger_;
  std::mt19937_64 rng_;
  std::vector<std::pair<int64_t, RowId>> live_;  ///< Committed visible rows.
  int64_t next_key_ = 0;
  Scn floor_ = kInvalidScn;
  uint64_t cycles_fired_ = 0;
};

}  // namespace stratus::chaos

#endif  // STRATUS_CHAOS_CHAOS_HARNESS_H_
