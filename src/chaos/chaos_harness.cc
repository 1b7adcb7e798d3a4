#include "chaos/chaos_harness.h"

#include <sstream>
#include <string>

namespace stratus::chaos {

CrashCycleDriver::CrashCycleDriver(AdgCluster* cluster, ChaosController* chaos,
                                   ObjectId table,
                                   const HarnessOptions& options)
    : cluster_(cluster), chaos_(chaos), table_(table), options_(options),
      auditor_(cluster->primary(), cluster->standby(), {table}),
      rng_(options.seed) {}

double CrashCycleDriver::Uniform() {
  // 53-bit mantissa; avoids std::uniform_real_distribution, whose output is
  // implementation-defined (the matrix must replay identically everywhere).
  return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
}

Row CrashCycleDriver::MakeRow(int64_t key, int64_t payload) const {
  return Row{Value(key), Value(payload),
             Value(std::string("v") + std::to_string(payload % 97))};
}

uint64_t CrashCycleDriver::NthRange(CrashPoint point) const {
  // Upper bound on the armed ordinal, sized to how often each point is hit
  // in one cycle's churn so the crash usually lands mid-work.
  switch (point) {
    case CrashPoint::kDispatchHandoff: return 16;
    case CrashPoint::kWorkerDequeue: return 32;
    case CrashPoint::kWorkerApply: return 32;
    case CrashPoint::kJournalMine: return 16;
    case CrashPoint::kCommitChop: return 4;
    case CrashPoint::kQuiesceBegin: return 4;
    case CrashPoint::kQuiescePublish: return 4;
    case CrashPoint::kQuiesceEnd: return 4;
    case CrashPoint::kFlushStep: return 4;
    case CrashPoint::kPopulationSnapshot: return 2;
    case CrashPoint::kNumPoints: break;
  }
  return 8;
}

void CrashCycleDriver::Churn() {
  PrimaryDb* primary = cluster_->primary();
  for (int t = 0; t < options_.txns_per_cycle; ++t) {
    Transaction txn = primary->Begin();
    std::vector<std::pair<int64_t, RowId>> inserted;
    std::vector<std::pair<int64_t, RowId>> deleted;
    for (int op = 0; op < options_.ops_per_txn; ++op) {
      const double p = Uniform();
      if (p < options_.update_fraction && !live_.empty()) {
        const size_t i = static_cast<size_t>(rng_() % live_.size());
        const auto [key, rid] = live_[i];
        if (primary->Update(&txn, table_, rid,
                            MakeRow(key, static_cast<int64_t>(rng_() % 1000)))
                .ok()) {
          ledger_.Note(rid.dba, rid.slot);
        }
      } else if (p < options_.update_fraction + options_.delete_fraction &&
                 !live_.empty()) {
        const size_t i = static_cast<size_t>(rng_() % live_.size());
        const std::pair<int64_t, RowId> victim = live_[i];
        if (primary->Delete(&txn, table_, victim.second).ok()) {
          ledger_.Note(victim.second.dba, victim.second.slot);
          live_[i] = live_.back();
          live_.pop_back();
          deleted.push_back(victim);
        }
      } else {
        const int64_t key = next_key_++;
        RowId rid;
        if (primary->Insert(&txn, table_, MakeRow(key, key % 9), &rid).ok()) {
          ledger_.Note(rid.dba, rid.slot);
          inserted.emplace_back(key, rid);
        }
      }
    }
    // The live map tracks *committed* visibility: inserts join it only on
    // commit; an abort puts deleted victims back.
    const bool roll_back = Uniform() < options_.abort_fraction;
    const bool committed = !roll_back && primary->Commit(&txn).ok();
    if (roll_back) primary->Abort(&txn);
    if (committed) {
      live_.insert(live_.end(), inserted.begin(), inserted.end());
    } else {
      live_.insert(live_.end(), deleted.begin(), deleted.end());
    }
  }
}

void CrashCycleDriver::Converge(std::vector<std::string>* out) {
  StandbyDb* standby = cluster_->standby();
  const Scn target = cluster_->primary()->current_scn();
  const Scn reached =
      standby->WaitForQueryScn(target, options_.converge_timeout_us);
  if (reached == kInvalidScn || reached < target) {
    std::ostringstream os;
    os << "convergence: QuerySCN stalled at "
       << (reached == kInvalidScn ? 0 : reached) << " below primary SCN "
       << target;
    out->push_back(os.str());
    return;
  }
  // Full IMCS coverage so the dual-path and SMU-superset checks see real
  // columnar data, not an empty store falling back to the row path.
  try {
    const Status st = standby->PopulateNow(table_);
    (void)st;
  } catch (const CrashSignal&) {
    // Disarmed by now; a straggler fire here is handled by the next cycle.
  }
}

CycleResult CrashCycleDriver::RunCycle(CrashPoint point) {
  CycleResult result;
  result.point = point;
  StandbyDb* standby = cluster_->standby();

  if (CrashPointsCompiledIn()) {
    result.armed_nth = 1 + rng_() % NthRange(point);
    chaos_->Arm(point, result.armed_nth);
  }

  Churn();

  // Drive population so kPopulationSnapshot (and repopulation of churned
  // IMCUs) has traffic; the crash may surface right here on this thread.
  try {
    const Status st = standby->PopulateNow(table_);
    (void)st;
  } catch (const CrashSignal&) {
  }

  std::vector<std::string> converge_violations;
  if (CrashPointsCompiledIn()) {
    chaos_->WaitForFire(options_.fire_wait_us);
    if (!chaos_->fired()) {
      chaos_->Disarm();
      // Disarm does not synchronize with a Hit that already passed the armed
      // check; give such a straggler a beat to surface before converging.
      chaos_->WaitForFire(100'000);
    }
    if (chaos_->fired()) {
      result.fired = true;
      ++cycles_fired_;
      // Crash teardown, no final archive sync. With disk_restart the cluster
      // also quiesces the shippers, replays archived redo over the last
      // checkpoint (torn tails are real), and resumes the IMCS from its
      // snapshot.
      const Status st = cluster_->RestartStandby(
          {.crash = true, .from_disk = options_.disk_restart});
      if (!st.ok()) converge_violations.push_back("restart: " + st.message());
      chaos_->Disarm();
    }
  }

  Converge(&converge_violations);

  AuditOptions audit;
  audit.min_query_scn = floor_;
  std::unordered_map<uint64_t, uint64_t> expected;
  if (options_.check_accounting) {
    expected = ledger_.Snapshot();
    audit.expected_applies = &expected;
  }
  result.report = auditor_.Run(audit);
  result.report.violations.insert(result.report.violations.begin(),
                                  converge_violations.begin(),
                                  converge_violations.end());
  result.query_scn = standby->query_scn();
  if (result.query_scn != kInvalidScn) floor_ = result.query_scn;
  return result;
}

}  // namespace stratus::chaos
