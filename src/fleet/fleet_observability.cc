#include "fleet/fleet_observability.h"

#include <cstdio>

#include "obs/metrics.h"

namespace stratus {
namespace fleet {

namespace {

std::string Frac(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

obs::HttpResponse FleetObservability::Healthz() const {
  for (int i = 0; i < fleet_->num_standbys(); ++i) {
    const StandbyNode* node = fleet_->node(i);
    if (node->accepting() && node->db()->degraded()) {
      obs::HttpResponse resp;
      resp.status = 503;
      resp.content_type = "text/plain";
      resp.body = "degraded: " + node->name() + "\n";
      return resp;
    }
  }
  obs::HttpResponse resp;
  resp.status = 200;
  resp.content_type = "text/plain";
  resp.body = "ok\n";
  return resp;
}

std::string FleetObservability::FleetJson() const {
  uint64_t total_served = 0;
  for (int i = 0; i < fleet_->num_standbys(); ++i)
    total_served += fleet_->node(i)->served();

  std::string out = "{\"primary_scn\":";
  out += obs::JsonScn(fleet_->primary()->current_scn());
  out += ",\"nodes\":[";
  for (int i = 0; i < fleet_->num_standbys(); ++i) {
    StandbyNode* node = fleet_->node(i);
    const StandbyHealth health = node->db()->health();
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(node->id());
    out += ",\"name\":\"" + node->name() + "\"";
    out += ",\"accepting\":" + std::string(node->accepting() ? "true" : "false");
    out += ",\"degraded\":" + std::string(health.degraded ? "true" : "false");
    out += ",\"apply_errors\":" + std::to_string(health.apply_errors);
    out += ",\"query_scn\":" + obs::JsonScn(node->db()->published_query_scn());
    out += ",\"applied_scn\":" + obs::JsonScn(node->db()->applied_scn());
    if (node->lag_monitor() != nullptr) {
      const obs::LagSnapshot lag = node->lag_monitor()->Snapshot();
      out += ",\"transport_lag_scn\":" + std::to_string(lag.transport_lag_scn);
      out += ",\"apply_lag_scn\":" + std::to_string(lag.apply_lag_scn);
      out += ",\"staleness_scn\":" + std::to_string(lag.staleness_scn);
      out += ",\"staleness_us\":" + std::to_string(lag.staleness_us);
    }
    out += ",\"in_flight\":" + std::to_string(node->in_flight());
    out += ",\"served\":" + std::to_string(node->served());
    out += ",\"load_share\":" +
           Frac(total_served == 0
                    ? 0.0
                    : static_cast<double>(node->served()) /
                          static_cast<double>(total_served));
    if (router_ != nullptr) {
      out += ",\"drained\":" +
             std::string(router_->IsDrained(i) ? "true" : "false");
    }
    out += "}";
  }
  out += "]";
  if (router_ != nullptr) {
    const RouterStats s = router_->stats();
    out += ",\"router\":{\"decisions\":" + std::to_string(s.decisions);
    out += ",\"strict\":" + std::to_string(s.strict_queries);
    out += ",\"bounded\":" + std::to_string(s.bounded_queries);
    out += ",\"pinned\":" + std::to_string(s.pinned_queries);
    out += ",\"sticky_hits\":" + std::to_string(s.sticky_hits);
    out += ",\"reroutes\":" + std::to_string(s.reroutes);
    out += ",\"drains\":" + std::to_string(s.drains);
    out += ",\"probes\":" + std::to_string(s.probes);
    out += ",\"catchup_waits\":" + std::to_string(s.catchup_waits);
    out += ",\"no_candidate\":" + std::to_string(s.no_candidate);
    out += ",\"freshness_violations\":" +
           std::to_string(s.freshness_violations);
    out += "}";
  }
  out += "}";
  return out;
}

void FleetObservability::Register(obs::ObsServer* server) {
  server->Handle("/metrics", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.status = 200;
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = MetricsText();
    return resp;
  });
  server->Handle("/metrics.json", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.status = 200;
    resp.content_type = "application/json";
    resp.body = MetricsJson();
    return resp;
  });
  server->Handle("/healthz",
                 [this](const obs::HttpRequest&) { return Healthz(); });
  server->Handle("/v/fleet", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.status = 200;
    resp.content_type = "application/json";
    resp.body = FleetJson();
    return resp;
  });
}

}  // namespace fleet
}  // namespace stratus
