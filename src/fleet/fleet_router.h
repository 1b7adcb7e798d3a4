#ifndef STRATUS_FLEET_FLEET_ROUTER_H_
#define STRATUS_FLEET_FLEET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "db/query.h"
#include "fleet/fleet_cluster.h"
#include "obs/metrics.h"

namespace stratus {
namespace fleet {

/// How fresh the answer must be.
enum class FreshnessMode : uint8_t {
  /// Serve from the freshest healthy standby. The result's snapshot is
  /// guaranteed >= the freshest published QuerySCN at decision time.
  kStrict = 0,
  /// Any standby whose QuerySCN is within `max_lag_scn` of the primary's
  /// current SCN qualifies; the router picks the least loaded.
  kBoundedScn = 1,
  /// Any standby whose observed staleness (lag monitor) is within
  /// `max_lag_ms` qualifies; the router picks the least loaded.
  kBoundedMs = 2,
  /// Serve exactly at `pin_scn` (repeatable reads). Sticky: the same
  /// session keeps hitting the same standby while it stays healthy, and any
  /// standby gives byte-identical results at the pinned SCN.
  kPinned = 3,
};

struct FreshnessContract {
  FreshnessMode mode = FreshnessMode::kStrict;
  Scn max_lag_scn = 0;        ///< kBoundedScn.
  int64_t max_lag_ms = 0;     ///< kBoundedMs.
  Scn pin_scn = kInvalidScn;  ///< kPinned.
  uint64_t session_id = 0;    ///< Sticky-routing key (kPinned).

  static FreshnessContract Strict() { return {}; }
  static FreshnessContract BoundedScn(Scn max_lag) {
    FreshnessContract c;
    c.mode = FreshnessMode::kBoundedScn;
    c.max_lag_scn = max_lag;
    return c;
  }
  static FreshnessContract BoundedMs(int64_t ms) {
    FreshnessContract c;
    c.mode = FreshnessMode::kBoundedMs;
    c.max_lag_ms = ms;
    return c;
  }
  static FreshnessContract PinnedAt(Scn scn, uint64_t session_id) {
    FreshnessContract c;
    c.mode = FreshnessMode::kPinned;
    c.pin_scn = scn;
    c.session_id = session_id;
    return c;
  }
};

/// What the router decided, for the caller's contract audit.
struct RoutingDecision {
  int node_id = -1;
  std::string node_name;
  /// Freshest published QuerySCN among healthy nodes at decision time — the
  /// strict contract's floor.
  Scn decision_watermark = kInvalidScn;
  /// The chosen node's published QuerySCN at decision time.
  Scn node_scn = kInvalidScn;
  /// The primary's current SCN at decision time — the bounded contracts'
  /// reference point.
  Scn primary_scn = kInvalidScn;
  int attempts = 1;       ///< Nodes tried (1 = first choice served).
  int64_t decide_us = 0;  ///< Routing-decision latency (excludes execution).
  bool sticky = false;    ///< Served by the session's sticky node.
};

struct RoutedResult {
  QueryResult result;
  RoutingDecision decision;
};

struct RouterOptions {
  /// Bound on waiting for a lagging node to satisfy a pinned SCN.
  int64_t pin_wait_timeout_us = 10'000'000;
  /// Bound on one catch-up wait when no node is inside a bounded contract.
  int64_t catchup_wait_us = 250'000;
  /// Drain backoff after a node failure: doubles per consecutive failure.
  int64_t backoff_base_us = 10'000;
  int64_t backoff_max_us = 2'000'000;
  /// Nodes tried (including catch-up retries) before giving up.
  int max_attempts = 8;
  /// Decision-latency histogram + counters registry (null: stats only).
  obs::MetricsRegistry* registry = nullptr;
};

/// Router counters (all monotonic). freshness_violations counts responses
/// the router itself detected below contract after execution — the invariant
/// the fleet driver asserts is zero.
struct RouterStats {
  uint64_t decisions = 0;
  uint64_t strict_queries = 0;
  uint64_t bounded_queries = 0;
  uint64_t pinned_queries = 0;
  uint64_t sticky_hits = 0;
  uint64_t reroutes = 0;        ///< Retries after a failed/drained node.
  uint64_t drains = 0;          ///< Node marked down (failure or degraded).
  uint64_t probes = 0;          ///< Routed to a node in backoff recovery.
  uint64_t catchup_waits = 0;   ///< Waited for a node to enter a bound.
  uint64_t no_candidate = 0;    ///< Gave up: no eligible node.
  uint64_t freshness_violations = 0;
};

/// Lag-aware query router over a FleetCluster: picks a standby per query
/// according to its freshness contract, drains unhealthy standbys with
/// exponential-backoff re-probing, and audits every response against its
/// contract. Thread-safe; one router serves all sessions.
class FleetRouter {
 public:
  FleetRouter(FleetCluster* fleet, const RouterOptions& options);

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  StatusOr<RoutedResult> Query(const ScanQuery& query,
                               const FreshnessContract& contract);
  /// Star-schema multi-join under the same freshness contracts (pinned
  /// contracts execute through StandbyDb::MultiJoinAt).
  StatusOr<RoutedResult> MultiJoin(const MultiJoinQuery& query,
                                   const FreshnessContract& contract);

  RouterStats stats() const;

  /// True when the router is currently refusing to route to node `i`
  /// (drained: down, degraded, or in failure backoff).
  bool IsDrained(int i) const;

 private:
  struct NodeRetryState {
    std::atomic<uint64_t> down_until_us{0};
    std::atomic<int64_t> backoff_us{0};
  };

  /// Executes `exec(db, pin)` on the node the contract selects, with drain +
  /// reroute on failure. `pin` is kInvalidScn except for pinned contracts.
  StatusOr<RoutedResult> Route(
      const FreshnessContract& contract,
      const std::function<StatusOr<QueryResult>(StandbyDb*, Scn)>& exec);

  /// Picks a node for this attempt; fills the decision fields. Returns -1
  /// when no node qualifies right now.
  int PickNode(const FreshnessContract& contract, RoutingDecision* decision);

  bool Eligible(int i, uint64_t now_us, bool* is_probe) const;
  void MarkFailure(int i);
  void MarkSuccess(int i);
  bool AuditContract(const FreshnessContract& contract,
                     const RoutingDecision& decision, const QueryResult& result);

  FleetCluster* fleet_;
  RouterOptions options_;
  std::vector<std::unique_ptr<NodeRetryState>> retry_;

  mutable std::mutex sticky_mu_;
  std::unordered_map<uint64_t, int> sticky_;  ///< session -> node; sticky_mu_.

  std::atomic<uint64_t> round_robin_{0};  ///< Load tie-break.

  // Stats (atomic mirrors of RouterStats).
  std::atomic<uint64_t> decisions_{0}, strict_{0}, bounded_{0}, pinned_{0};
  std::atomic<uint64_t> sticky_hits_{0}, reroutes_{0}, drains_{0}, probes_{0};
  std::atomic<uint64_t> catchup_waits_{0}, no_candidate_{0}, violations_{0};

  obs::LatencyHistogram* decide_hist_ = nullptr;
  obs::ScopedMetricsCallback metrics_cb_;
};

}  // namespace fleet
}  // namespace stratus

#endif  // STRATUS_FLEET_FLEET_ROUTER_H_
