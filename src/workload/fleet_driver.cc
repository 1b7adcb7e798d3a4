#include "workload/fleet_driver.h"

#include <chrono>
#include <thread>

#include "common/clock.h"
#include "imcs/scan_engine.h"

namespace stratus {

namespace {

/// Scan shapes matching the churn table (WideTable(2,1) + writer mix used by
/// the consistency harness): Q1 numeric point filter, Q2 varchar point
/// filter, Q3 unfiltered — always aggregated so results stay small.
ScanQuery RandomScan(ObjectId table, int64_t value_domain, Random* rng) {
  ScanQuery q;
  q.object = table;
  const uint32_t kind = static_cast<uint32_t>(rng->Uniform(3));
  if (kind == 0) {
    q.predicates = {{1, PredOp::kEq,
                     Value(static_cast<int64_t>(
                         rng->Uniform(static_cast<uint64_t>(value_domain))))}};
  } else if (kind == 1) {
    q.predicates = {{3, PredOp::kEq,
                     Value(std::string("s") + std::to_string(rng->Uniform(6)))}};
  }  // kind == 2: unfiltered.
  q.aggregates = {{AggKind::kSum, 2}};
  return q;
}

}  // namespace

FleetDriver::FleetDriver(fleet::FleetCluster* fleet, fleet::FleetRouter* router,
                         ObjectId table, const FleetDriverOptions& options)
    : fleet_(fleet), router_(router), table_(table), options_(options) {}

namespace {

/// Per-session repeatable-read epoch (pinned sessions only). A session is
/// touched by exactly one worker, so no locking.
struct SessionState {
  Scn pin = kInvalidScn;
  uint64_t fingerprint_count = 0;
  int64_t fingerprint_agg = 0;
  bool fingerprint_agg_valid = false;
  int requeries_left = 0;
};

}  // namespace

void FleetDriver::Run() {
  stop_.store(false, std::memory_order_relaxed);
  const uint64_t start_ns = NowNanos();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(options_.worker_threads));
  for (int w = 0; w < options_.worker_threads; ++w) {
    workers.emplace_back([this, w] { WorkerLoop(w); });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(options_.duration_ms));
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();

  stats_.wall_ns = NowNanos() - start_ns;
}

void FleetDriver::WorkerLoop(int worker) {
  Random rng(options_.seed * 7919 + static_cast<uint64_t>(worker));

  // This worker's slice of the logical sessions (static partition: session
  // ids worker, worker+T, worker+2T, ...) plus their pinned-epoch state.
  std::vector<uint64_t> sessions;
  for (uint64_t s = static_cast<uint64_t>(worker);
       s < static_cast<uint64_t>(options_.sessions);
       s += static_cast<uint64_t>(options_.worker_threads)) {
    sessions.push_back(s);
  }
  if (sessions.empty()) return;
  std::vector<SessionState> state(sessions.size());

  // Round-robin over the slice. Closed loop: each session issues its next
  // query as soon as the previous one returns. Open loop (target_qps > 0):
  // this worker owns a 1/worker_threads share of the aggregate arrival
  // schedule and paces issuance against it.
  const double worker_qps =
      options_.target_qps / static_cast<double>(options_.worker_threads);
  const int64_t arrival_interval_us =
      worker_qps > 0 ? static_cast<int64_t>(1e6 / worker_qps) : 0;
  uint64_t next_arrival_us = NowMicros();

  size_t turn = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (arrival_interval_us > 0) {
      const uint64_t now = NowMicros();
      if (now < next_arrival_us) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(next_arrival_us - now));
      }
      next_arrival_us += static_cast<uint64_t>(arrival_interval_us);
    }
    const size_t slot = turn++ % sessions.size();
    const uint64_t session = sessions[slot];

    // Session -> contract mode, fixed for the session's lifetime.
    Random mode_rng(options_.seed ^ (session * 0x9E3779B97F4A7C15ull));
    const uint64_t roll = mode_rng.Uniform(100);
    const bool strict = roll < options_.strict_pct;
    const bool pinned =
        !strict && roll < options_.strict_pct + options_.pinned_pct;

    const ScanQuery q = RandomScan(table_, options_.value_domain, &rng);
    const uint64_t t0 = NowMicros();

    if (strict) {
      const auto routed = router_->Query(q, fleet::FreshnessContract::Strict());
      stats_.query_us.Record(static_cast<int64_t>(NowMicros() - t0));
      if (!routed.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      stats_.queries.fetch_add(1, std::memory_order_relaxed);
      stats_.strict_queries.fetch_add(1, std::memory_order_relaxed);
      stats_.decide_us.Record(routed->decision.decide_us);
      if (routed->result.snapshot < routed->decision.decision_watermark) {
        stats_.freshness_violations.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }

    if (pinned) {
      SessionState& st = state[slot];
      if (st.pin == kInvalidScn) {
        // Open a new repeatable-read epoch: a bounded query whose snapshot
        // becomes the pin, its result the epoch's fingerprint.
        const auto routed = router_->Query(
            q, fleet::FreshnessContract::BoundedScn(options_.bounded_lag_scn));
        stats_.query_us.Record(static_cast<int64_t>(NowMicros() - t0));
        if (!routed.ok()) {
          stats_.errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        stats_.queries.fetch_add(1, std::memory_order_relaxed);
        stats_.bounded_queries.fetch_add(1, std::memory_order_relaxed);
        stats_.decide_us.Record(routed->decision.decide_us);
        if (routed->result.snapshot + options_.bounded_lag_scn <
            routed->decision.primary_scn) {
          stats_.freshness_violations.fetch_add(1, std::memory_order_relaxed);
        }
        st.pin = routed->result.snapshot;
        st.fingerprint_count = routed->result.count;
        st.fingerprint_agg = routed->result.agg_int;
        st.fingerprint_agg_valid = routed->result.agg_valid;
        st.requeries_left = options_.pinned_requeries;
        continue;
      }

      // Re-execute the SAME query shape at the pinned SCN — possibly on a
      // different standby — and demand an identical answer. The epoch keeps
      // its opening query: RandomScan output this turn is discarded by
      // rebuilding it from the session's epoch seed.
      Random epoch_rng(options_.seed ^ (session * 31 + 17));
      const ScanQuery pinned_q =
          RandomScan(table_, options_.value_domain, &epoch_rng);
      const uint64_t p0 = NowMicros();
      const auto routed = router_->Query(
          pinned_q, fleet::FreshnessContract::PinnedAt(st.pin, session));
      stats_.query_us.Record(static_cast<int64_t>(NowMicros() - p0));
      if (!routed.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        st.pin = kInvalidScn;  // Abandon the epoch; reopen next turn.
        continue;
      }
      stats_.queries.fetch_add(1, std::memory_order_relaxed);
      stats_.pinned_queries.fetch_add(1, std::memory_order_relaxed);
      stats_.decide_us.Record(routed->decision.decide_us);
      if (routed->result.snapshot != st.pin) {
        stats_.freshness_violations.fetch_add(1, std::memory_order_relaxed);
      }
      if (st.requeries_left == options_.pinned_requeries) {
        // First re-execution establishes the pinned fingerprint for the
        // epoch query shape (the opener ran a different random shape).
        st.fingerprint_count = routed->result.count;
        st.fingerprint_agg = routed->result.agg_int;
        st.fingerprint_agg_valid = routed->result.agg_valid;
      } else if (routed->result.count != st.fingerprint_count ||
                 routed->result.agg_int != st.fingerprint_agg ||
                 routed->result.agg_valid != st.fingerprint_agg_valid) {
        stats_.pinned_mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      if (--st.requeries_left <= 0) st.pin = kInvalidScn;
      continue;
    }

    // Bounded-staleness (the default mix).
    const auto routed = router_->Query(
        q, fleet::FreshnessContract::BoundedScn(options_.bounded_lag_scn));
    stats_.query_us.Record(static_cast<int64_t>(NowMicros() - t0));
    if (!routed.ok()) {
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    stats_.bounded_queries.fetch_add(1, std::memory_order_relaxed);
    stats_.decide_us.Record(routed->decision.decide_us);
    if (routed->result.snapshot + options_.bounded_lag_scn <
        routed->decision.primary_scn) {
      stats_.freshness_violations.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace stratus
