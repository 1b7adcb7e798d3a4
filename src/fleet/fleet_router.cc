#include "fleet/fleet_router.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/clock.h"

namespace stratus {
namespace fleet {

FleetRouter::FleetRouter(FleetCluster* fleet, const RouterOptions& options)
    : fleet_(fleet), options_(options) {
  for (int i = 0; i < fleet_->num_standbys(); ++i)
    retry_.push_back(std::make_unique<NodeRetryState>());
  if (options_.registry != nullptr) {
    const obs::Labels labels{{"component", "fleet_router"}};
    decide_hist_ = options_.registry->GetHistogram(
        "stratus_fleet_route_decide_us", labels);
    metrics_cb_.Attach(options_.registry, [this](obs::MetricsSink* sink) {
      const obs::Labels l{{"component", "fleet_router"}};
      const RouterStats s = stats();
      sink->Counter("stratus_fleet_route_decisions", l, s.decisions);
      sink->Counter("stratus_fleet_route_strict", l, s.strict_queries);
      sink->Counter("stratus_fleet_route_bounded", l, s.bounded_queries);
      sink->Counter("stratus_fleet_route_pinned", l, s.pinned_queries);
      sink->Counter("stratus_fleet_route_sticky_hits", l, s.sticky_hits);
      sink->Counter("stratus_fleet_route_reroutes", l, s.reroutes);
      sink->Counter("stratus_fleet_route_drains", l, s.drains);
      sink->Counter("stratus_fleet_route_probes", l, s.probes);
      sink->Counter("stratus_fleet_route_catchup_waits", l, s.catchup_waits);
      sink->Counter("stratus_fleet_route_no_candidate", l, s.no_candidate);
      sink->Counter("stratus_fleet_freshness_violations", l,
                    s.freshness_violations);
    });
  }
}

RouterStats FleetRouter::stats() const {
  RouterStats s;
  s.decisions = decisions_.load(std::memory_order_relaxed);
  s.strict_queries = strict_.load(std::memory_order_relaxed);
  s.bounded_queries = bounded_.load(std::memory_order_relaxed);
  s.pinned_queries = pinned_.load(std::memory_order_relaxed);
  s.sticky_hits = sticky_hits_.load(std::memory_order_relaxed);
  s.reroutes = reroutes_.load(std::memory_order_relaxed);
  s.drains = drains_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.catchup_waits = catchup_waits_.load(std::memory_order_relaxed);
  s.no_candidate = no_candidate_.load(std::memory_order_relaxed);
  s.freshness_violations = violations_.load(std::memory_order_relaxed);
  return s;
}

bool FleetRouter::Eligible(int i, uint64_t now_us, bool* is_probe) const {
  const StandbyNode* n = fleet_->node(i);
  if (!n->accepting() || n->db()->degraded()) return false;
  if (n->db()->published_query_scn() == kInvalidScn) return false;
  const NodeRetryState& r = *retry_[static_cast<size_t>(i)];
  const uint64_t down_until = r.down_until_us.load(std::memory_order_acquire);
  if (now_us < down_until) return false;
  if (is_probe != nullptr)
    *is_probe = r.backoff_us.load(std::memory_order_acquire) > 0;
  return true;
}

bool FleetRouter::IsDrained(int i) const {
  return !Eligible(i, NowMicros(), nullptr);
}

void FleetRouter::MarkFailure(int i) {
  NodeRetryState& r = *retry_[static_cast<size_t>(i)];
  int64_t backoff = r.backoff_us.load(std::memory_order_acquire);
  backoff = backoff == 0 ? options_.backoff_base_us
                         : std::min<int64_t>(options_.backoff_max_us,
                                             backoff * 2);
  r.backoff_us.store(backoff, std::memory_order_release);
  r.down_until_us.store(NowMicros() + static_cast<uint64_t>(backoff),
                        std::memory_order_release);
  drains_.fetch_add(1, std::memory_order_relaxed);
}

void FleetRouter::MarkSuccess(int i) {
  NodeRetryState& r = *retry_[static_cast<size_t>(i)];
  r.backoff_us.store(0, std::memory_order_release);
  r.down_until_us.store(0, std::memory_order_release);
}

int FleetRouter::PickNode(const FreshnessContract& contract,
                          RoutingDecision* decision) {
  const uint64_t now = NowMicros();
  const int n = fleet_->num_standbys();
  decision->primary_scn = fleet_->primary()->current_scn();

  // Decision watermark: the freshest published QuerySCN among eligible nodes
  // right now — the strict contract's floor, recorded for every mode.
  Scn watermark = kInvalidScn;
  int freshest = -1;
  for (int i = 0; i < n; ++i) {
    if (!Eligible(i, now, nullptr)) continue;
    const Scn scn = fleet_->node(i)->db()->published_query_scn();
    if (freshest < 0 || scn > watermark) {
      watermark = scn;
      freshest = i;
    }
  }
  decision->decision_watermark = watermark;
  if (freshest < 0) return -1;

  int chosen = -1;
  switch (contract.mode) {
    case FreshnessMode::kStrict:
      chosen = freshest;
      break;
    case FreshnessMode::kPinned: {
      // Sticky first: the session keeps its node while that node is healthy.
      {
        std::lock_guard<std::mutex> g(sticky_mu_);
        auto it = sticky_.find(contract.session_id);
        if (it != sticky_.end()) {
          if (Eligible(it->second, now, nullptr)) {
            chosen = it->second;
            decision->sticky = true;
            sticky_hits_.fetch_add(1, std::memory_order_relaxed);
          } else {
            sticky_.erase(it);  // Node went away; re-pin below.
          }
        }
      }
      if (chosen < 0) {
        // The freshest node reaches the pin soonest (or already has).
        chosen = freshest;
        std::lock_guard<std::mutex> g(sticky_mu_);
        sticky_[contract.session_id] = chosen;
      }
      break;
    }
    case FreshnessMode::kBoundedScn:
    case FreshnessMode::kBoundedMs: {
      // Least-loaded node inside the bound; round-robin breaks load ties so
      // an idle fleet still spreads. Falls back to the freshest node (the
      // caller then waits for it to enter the bound).
      const uint64_t start =
          round_robin_.fetch_add(1, std::memory_order_relaxed);
      uint64_t best_load = 0;
      for (int k = 0; k < n; ++k) {
        const int i = static_cast<int>((start + static_cast<uint64_t>(k)) %
                                       static_cast<uint64_t>(n));
        if (!Eligible(i, now, nullptr)) continue;
        const StandbyNode* node = fleet_->node(i);
        bool in_bound;
        if (contract.mode == FreshnessMode::kBoundedScn) {
          const Scn scn = node->db()->published_query_scn();
          in_bound = decision->primary_scn <= scn ||
                     decision->primary_scn - scn <= contract.max_lag_scn;
        } else {
          obs::LagMonitor* mon =
              const_cast<StandbyNode*>(node)->lag_monitor();
          if (mon == nullptr) {
            in_bound = true;  // No monitor (fleet stopped): no ms signal.
          } else {
            const obs::LagSnapshot lag = mon->Snapshot();
            in_bound = lag.staleness_us <= contract.max_lag_ms * 1000;
          }
        }
        if (!in_bound) continue;
        const uint64_t load = node->in_flight();
        if (chosen < 0 || load < best_load) {
          chosen = i;
          best_load = load;
        }
      }
      if (chosen < 0) chosen = freshest;  // Out of bound: catch-up path.
      break;
    }
  }

  if (chosen >= 0) {
    bool is_probe = false;
    Eligible(chosen, now, &is_probe);
    if (is_probe) probes_.fetch_add(1, std::memory_order_relaxed);
    decision->node_id = chosen;
    decision->node_name = fleet_->node(chosen)->name();
    decision->node_scn = fleet_->node(chosen)->db()->published_query_scn();
  }
  return chosen;
}

bool FleetRouter::AuditContract(const FreshnessContract& contract,
                                const RoutingDecision& decision,
                                const QueryResult& result) {
  switch (contract.mode) {
    case FreshnessMode::kStrict:
      // Publish monotonicity makes the served snapshot at least the freshest
      // watermark observed when the route was decided.
      return decision.decision_watermark == kInvalidScn ||
             result.snapshot >= decision.decision_watermark;
    case FreshnessMode::kBoundedScn:
      return result.snapshot + contract.max_lag_scn >= decision.primary_scn;
    case FreshnessMode::kBoundedMs:
      // The ms bound was checked against the node's lag snapshot at decision
      // time; monotonicity keeps the served snapshot at least as fresh as
      // the node's SCN that passed that check.
      return decision.node_scn == kInvalidScn ||
             result.snapshot >= decision.node_scn;
    case FreshnessMode::kPinned:
      return result.snapshot == contract.pin_scn;
  }
  return true;
}

StatusOr<RoutedResult> FleetRouter::Route(
    const FreshnessContract& contract,
    const std::function<StatusOr<QueryResult>(StandbyDb*, Scn)>& exec) {
  switch (contract.mode) {
    case FreshnessMode::kStrict:
      strict_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FreshnessMode::kBoundedScn:
    case FreshnessMode::kBoundedMs:
      bounded_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FreshnessMode::kPinned:
      pinned_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  const Scn pin =
      contract.mode == FreshnessMode::kPinned ? contract.pin_scn : kInvalidScn;
  const uint64_t route_start = NowMicros();
  RoutingDecision decision;
  Status last_err = Status::Unavailable("no eligible standby");
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    decision = RoutingDecision();
    decision.attempts = attempt;
    const int id = PickNode(contract, &decision);
    if (id < 0) {
      // Nothing eligible this instant (all down or draining): give backoffs
      // a chance to expire, then retry.
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.backoff_base_us));
      continue;
    }
    StandbyNode* node = fleet_->node(id);

    if (pin != kInvalidScn && decision.node_scn < pin) {
      // Pinned ahead of the node: wait for its QuerySCN to reach the pin.
      catchup_waits_.fetch_add(1, std::memory_order_relaxed);
      const Scn reached =
          node->db()->WaitForQueryScn(pin, options_.pin_wait_timeout_us);
      if (reached < pin || !node->accepting()) {
        reroutes_.fetch_add(1, std::memory_order_relaxed);
        last_err = Status::Unavailable("pinned SCN not reached in time");
        continue;
      }
      decision.node_scn = node->db()->published_query_scn();
    }
    if (contract.mode == FreshnessMode::kBoundedScn &&
        decision.primary_scn > decision.node_scn &&
        decision.primary_scn - decision.node_scn > contract.max_lag_scn) {
      // No node inside the bound: wait (bounded) for the freshest to enter
      // it rather than serving staler than the contract allows.
      catchup_waits_.fetch_add(1, std::memory_order_relaxed);
      node->db()->WaitForQueryScn(decision.primary_scn - contract.max_lag_scn,
                                  options_.catchup_wait_us);
      reroutes_.fetch_add(1, std::memory_order_relaxed);
      last_err = Status::Unavailable("no standby within staleness bound");
      continue;  // Re-decide with fresh SCNs.
    }

    decision.decide_us = static_cast<int64_t>(NowMicros() - route_start);
    node->BeginQuery();
    StatusOr<QueryResult> result = exec(node->db(), pin);
    node->EndQuery();
    if (!result.ok()) {
      // The node failed the query (stopped mid-flight, degraded, …): drain
      // it with backoff and try the next one.
      MarkFailure(id);
      reroutes_.fetch_add(1, std::memory_order_relaxed);
      last_err = result.status();
      continue;
    }
    MarkSuccess(id);
    decisions_.fetch_add(1, std::memory_order_relaxed);
    if (decide_hist_ != nullptr)
      decide_hist_->Record(static_cast<uint64_t>(decision.decide_us));
    if (!AuditContract(contract, decision, *result))
      violations_.fetch_add(1, std::memory_order_relaxed);
    RoutedResult routed;
    routed.result = std::move(*result);
    routed.decision = std::move(decision);
    return routed;
  }
  no_candidate_.fetch_add(1, std::memory_order_relaxed);
  return last_err;
}

StatusOr<RoutedResult> FleetRouter::Query(const ScanQuery& query,
                                          const FreshnessContract& contract) {
  return Route(contract, [&query](StandbyDb* db, Scn pin) {
    return pin == kInvalidScn ? db->Query(query) : db->QueryAt(query, pin);
  });
}

StatusOr<RoutedResult> FleetRouter::MultiJoin(
    const MultiJoinQuery& query, const FreshnessContract& contract) {
  return Route(contract, [&query](StandbyDb* db, Scn pin) {
    return pin == kInvalidScn ? db->MultiJoin(query)
                              : db->MultiJoinAt(query, pin);
  });
}

}  // namespace fleet
}  // namespace stratus
