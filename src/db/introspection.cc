#include "db/introspection.h"

#include <algorithm>
#include <utility>

#include "imcs/im_store.h"
#include "imcs/smu.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "redo/log_shipping.h"

namespace stratus {

namespace {

/// Rounds to two decimals without locale-dependent formatting.
std::string Pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Builds the view rows for one (role, instance) column store. Objects with
/// no SMU at all produce no row — the view lists IMCS presence, not the
/// whole dictionary.
void CollectStoreRows(const std::string& role, InstanceId instance,
                      const ImStore* store, const Catalog* catalog,
                      const std::function<Table*(ObjectId)>& table_of,
                      std::vector<VImSegmentsRow>* out) {
  if (store == nullptr) return;
  for (ObjectId object : catalog->AllObjects()) {
    const std::vector<std::shared_ptr<Smu>> smus = store->SmusForObject(object);
    if (smus.empty()) continue;

    VImSegmentsRow row;
    row.role = role;
    row.instance = instance;
    row.object = object;
    StatusOr<std::string> name = catalog->NameOf(object);
    if (name.ok()) row.name = *name;

    for (const auto& smu : smus) {
      ++row.smus_total;
      if (smu->state() == SmuState::kPopulating) {
        ++row.smus_populating;
        continue;
      }
      ++row.smus_ready;
      if (smu->AllInvalid()) ++row.smus_quarantined;
      row.rows_covered += smu->num_rows();
      row.rows_invalid += smu->invalid_count();
      row.blocks_covered += smu->dbas().size();
      const std::shared_ptr<const Imcu> imcu = smu->imcu();
      if (imcu != nullptr) row.bytes += imcu->ApproxBytes();
      const Scn snap = smu->snapshot_scn();
      if (row.min_snapshot_scn == kInvalidScn || snap < row.min_snapshot_scn)
        row.min_snapshot_scn = snap;
      if (row.max_snapshot_scn == kInvalidScn || snap > row.max_snapshot_scn)
        row.max_snapshot_scn = snap;
    }
    if (row.rows_covered > 0) {
      row.invalid_fraction =
          static_cast<double>(row.rows_invalid) / row.rows_covered;
    }
    const char* reason = "";
    const AccessPath path =
        PlannerVerdict(row.rows_covered, row.invalid_fraction,
                       PlannerOptions{}.rowpath_invalid_threshold, &reason);
    row.planner_path = path == AccessPath::kImcs ? "imcs" : "row";
    row.planner_reason = reason;
    Table* table = table_of(object);
    if (table != nullptr) row.blocks_total = table->SnapshotBlocks().size();
    if (row.blocks_total > 0) {
      // Covered blocks can momentarily exceed the table's count while a
      // rebuild overlaps a drop; clamp so the view never reports > 100%.
      row.population_pct =
          std::min(100.0, 100.0 * static_cast<double>(row.blocks_covered) /
                              static_cast<double>(row.blocks_total));
    }
    out->push_back(std::move(row));
  }
}

}  // namespace

std::string VImSegmentsRow::ToJson() const {
  std::string out = "{";
  out += "\"role\":\"" + obs::JsonEscape(role) + "\"";
  out += ",\"instance\":" + std::to_string(instance);
  out += ",\"object\":" + std::to_string(object);
  out += ",\"name\":\"" + obs::JsonEscape(name) + "\"";
  out += ",\"smus_total\":" + std::to_string(smus_total);
  out += ",\"smus_ready\":" + std::to_string(smus_ready);
  out += ",\"smus_populating\":" + std::to_string(smus_populating);
  out += ",\"smus_quarantined\":" + std::to_string(smus_quarantined);
  out += ",\"rows_covered\":" + std::to_string(rows_covered);
  out += ",\"rows_invalid\":" + std::to_string(rows_invalid);
  out += ",\"invalid_fraction\":" + Pct(invalid_fraction * 100.0);
  out += ",\"blocks_total\":" + std::to_string(blocks_total);
  out += ",\"blocks_covered\":" + std::to_string(blocks_covered);
  out += ",\"population_pct\":" + Pct(population_pct);
  out += ",\"bytes\":" + std::to_string(bytes);
  out += ",\"min_snapshot_scn\":" + obs::JsonScn(min_snapshot_scn);
  out += ",\"max_snapshot_scn\":" + obs::JsonScn(max_snapshot_scn);
  out += ",\"planner_path\":\"" + obs::JsonEscape(planner_path) + "\"";
  out += ",\"planner_reason\":\"" + obs::JsonEscape(planner_reason) + "\"";
  out += "}";
  return out;
}

std::string VStandbyApplyRow::ToJson() const {
  std::string out = "{";
  out += "\"degraded\":" + std::string(degraded ? "true" : "false");
  out += ",\"apply_errors\":" + std::to_string(apply_errors);
  out += ",\"quarantined_imcus\":" + std::to_string(quarantined_imcus);
  out += ",\"first_error\":\"" + obs::JsonEscape(first_error) + "\"";
  out += ",\"applied_scn\":" + obs::JsonScn(applied_scn);
  out += ",\"query_scn\":" + obs::JsonScn(query_scn);
  out += ",\"restarts\":" + std::to_string(restarts);
  out += ",\"crash_restarts\":" + std::to_string(crash_restarts);
  out += ",\"journal_live_anchors\":" + std::to_string(journal_live_anchors);
  out += ",\"journal_records_buffered\":" +
         std::to_string(journal_records_buffered);
  out += ",\"journal_anchors_created\":" +
         std::to_string(journal_anchors_created);
  out += ",\"commit_table_live_nodes\":" +
         std::to_string(commit_table_live_nodes);
  out += ",\"commit_table_inserts\":" + std::to_string(commit_table_inserts);
  out += ",\"commit_table_min_pending_scn\":" +
         obs::JsonScn(commit_table_min_pending_scn);
  out += ",\"lag_valid\":" + std::string(lag_valid ? "true" : "false");
  if (lag_valid) {
    out += ",\"primary_scn\":" + obs::JsonScn(lag.primary_scn);
    out += ",\"shipped_scn\":" + obs::JsonScn(lag.shipped_scn);
    out += ",\"transport_lag_scn\":" + std::to_string(lag.transport_lag_scn);
    out += ",\"apply_lag_scn\":" + std::to_string(lag.apply_lag_scn);
    out += ",\"staleness_scn\":" + std::to_string(lag.staleness_scn);
    out += ",\"transport_lag_us\":" + std::to_string(lag.transport_lag_us);
    out += ",\"apply_lag_us\":" + std::to_string(lag.apply_lag_us);
    out += ",\"staleness_us\":" + std::to_string(lag.staleness_us);
    out += ",\"lag_no_data\":" + std::string(lag.no_data ? "true" : "false");
    out += ",\"lag_heartbeat_clamped\":" +
           std::string(lag.heartbeat_clamped ? "true" : "false");
  }
  out += "}";
  return out;
}

std::string VTransportRow::ToJson() const {
  std::string out = "{";
  out += "\"channel\":\"" + obs::JsonEscape(channel) + "\"";
  out += ",\"paused\":" + std::string(paused ? "true" : "false");
  out += ",\"records_shipped\":" + std::to_string(records_shipped);
  out += ",\"last_shipped_scn\":" + obs::JsonScn(last_shipped_scn);
  out += ",\"frames_sent\":" + std::to_string(stats.frames_sent);
  out += ",\"bytes_sent\":" + std::to_string(stats.bytes_sent);
  out += ",\"frames_delivered\":" + std::to_string(stats.frames_delivered);
  out += ",\"bytes_delivered\":" + std::to_string(stats.bytes_delivered);
  out += ",\"retransmits\":" + std::to_string(stats.retransmits);
  out += ",\"acks_received\":" + std::to_string(stats.acks_received);
  out += ",\"reconnects\":" + std::to_string(stats.reconnects);
  out += ",\"crc_errors\":" + std::to_string(stats.crc_errors);
  out += ",\"dup_frames_discarded\":" +
         std::to_string(stats.dup_frames_discarded);
  out += ",\"gap_frames_discarded\":" +
         std::to_string(stats.gap_frames_discarded);
  out += ",\"send_queue_depth\":" + std::to_string(stats.send_queue_depth);
  out += ",\"send_queue_bytes\":" + std::to_string(stats.send_queue_bytes);
  out += ",\"injected_drops\":" + std::to_string(stats.injected_drops);
  out += ",\"injected_dups\":" + std::to_string(stats.injected_dups);
  out += ",\"injected_corrupts\":" + std::to_string(stats.injected_corrupts);
  out += ",\"injected_truncates\":" + std::to_string(stats.injected_truncates);
  out += "}";
  return out;
}

std::string VPersistRow::ToJson() const {
  std::string out = "{";
  out += "\"enabled\":" + std::string(enabled ? "true" : "false");
  out += ",\"data_dir\":\"" + obs::JsonEscape(data_dir) + "\"";
  out += ",\"disk_restarts\":" + std::to_string(disk_restarts);
  out += ",\"archived_records\":" + std::to_string(archived_records);
  out += ",\"archived_bytes\":" + std::to_string(archived_bytes);
  out += ",\"fsyncs\":" + std::to_string(fsyncs);
  out += ",\"truncated_tails\":" + std::to_string(truncated_tails);
  out += ",\"segments\":" + std::to_string(segments);
  out += ",\"segments_recycled\":" + std::to_string(segments_recycled);
  out += ",\"checkpoints\":" + std::to_string(checkpoints);
  out += ",\"snapshots\":" + std::to_string(snapshots);
  out += ",\"recoveries\":" + std::to_string(recoveries);
  out += ",\"faults_injected\":" + std::to_string(faults_injected);
  out += ",\"durable_scn\":" + obs::JsonScn(durable_scn);
  out += ",\"checkpoint_scn\":" + obs::JsonScn(checkpoint_scn);
  out += ",\"snapshot_scn\":" + obs::JsonScn(snapshot_scn);
  out += ",\"recovered_scn\":" + obs::JsonScn(recovered_scn);
  out += ",\"ckpt_loaded\":" + std::string(ckpt_loaded ? "true" : "false");
  out += ",\"snap_loaded\":" + std::string(snap_loaded ? "true" : "false");
  out += ",\"restored_blocks\":" + std::to_string(restored_blocks);
  out += ",\"restored_smus\":" + std::to_string(restored_smus);
  out += ",\"replayed_records\":" + std::to_string(replayed_records);
  out += ",\"replayed_cvs\":" + std::to_string(replayed_cvs);
  out += ",\"applied_cvs\":" + std::to_string(applied_cvs);
  out += ",\"row_invalidations\":" + std::to_string(row_invalidations);
  out += ",\"coarse_invalidations\":" + std::to_string(coarse_invalidations);
  out += "}";
  return out;
}

std::vector<VImSegmentsRow> CollectVImSegments(PrimaryDb* primary,
                                               StandbyDb* standby) {
  std::vector<VImSegmentsRow> rows;
  if (primary != nullptr) {
    CollectStoreRows("primary", kMasterInstance, primary->im_store(),
                     primary->catalog(),
                     [primary](ObjectId oid) { return primary->table(oid); },
                     &rows);
  }
  if (standby != nullptr) {
    for (uint32_t i = 0; i < standby->instance_count(); ++i) {
      CollectStoreRows("standby", i, standby->im_store(i), standby->catalog(),
                       [standby](ObjectId oid) { return standby->table(oid); },
                       &rows);
    }
  }
  return rows;
}

VStandbyApplyRow CollectVStandbyApply(StandbyDb* standby,
                                      obs::LagMonitor* monitor) {
  VStandbyApplyRow row;
  if (standby == nullptr) return row;
  const StandbyHealth health = standby->health();
  row.degraded = health.degraded;
  row.apply_errors = health.apply_errors;
  row.quarantined_imcus = health.quarantined_imcus;
  row.first_error = health.first_error;
  row.applied_scn = standby->applied_scn();
  row.query_scn = standby->published_query_scn();
  row.restarts = standby->restarts();
  row.crash_restarts = standby->crash_restarts();
  if (ImAdgJournal* journal = standby->journal(); journal != nullptr) {
    row.journal_live_anchors = journal->live_anchors();
    row.journal_records_buffered = journal->records_buffered();
    row.journal_anchors_created = journal->anchors_created();
  }
  if (ImAdgCommitTable* ct = standby->commit_table(); ct != nullptr) {
    row.commit_table_live_nodes = ct->live_nodes();
    row.commit_table_inserts = ct->inserts();
    row.commit_table_min_pending_scn = ct->MinPendingScn();
  }
  if (monitor != nullptr) {
    row.lag = monitor->Snapshot();
    row.lag_valid = true;
  }
  return row;
}

std::vector<VTransportRow> CollectVTransport(AdgCluster* cluster) {
  std::vector<VTransportRow> rows;
  if (cluster == nullptr) return rows;
  cluster->VisitShippers([&rows](const LogShipper& shipper) {
    VTransportRow row;
    row.channel = shipper.channel()->options().name;
    row.paused = shipper.paused();
    row.records_shipped = shipper.records_shipped();
    row.last_shipped_scn = shipper.last_shipped_scn();
    row.stats = shipper.channel()->stats();
    rows.push_back(std::move(row));
  });
  return rows;
}

VPersistRow CollectVPersist(StandbyDb* standby) {
  VPersistRow row;
  if (standby == nullptr || !standby->persist_enabled()) return row;
  row.enabled = true;
  row.data_dir = standby->options().persist.data_dir;
  row.disk_restarts = standby->disk_restarts();
  const persist::PersistStats stats = standby->PersistStatsSnapshot();
  row.archived_records = stats.archived_records;
  row.archived_bytes = stats.archived_bytes;
  row.fsyncs = stats.fsyncs;
  row.truncated_tails = stats.truncated_tails;
  row.segments = stats.segments;
  row.segments_recycled = stats.segments_recycled;
  row.checkpoints = stats.checkpoints;
  row.snapshots = stats.snapshots;
  row.recoveries = stats.recoveries;
  row.faults_injected = stats.faults_injected;
  row.durable_scn = stats.durable_scn;
  row.checkpoint_scn = stats.checkpoint_scn;
  row.snapshot_scn = stats.snapshot_scn;
  row.recovered_scn = stats.recovered_scn;
  const persist::RecoveryResult last = standby->last_recovery();
  row.ckpt_loaded = last.checkpoint_loaded;
  row.snap_loaded = last.snapshot_loaded;
  row.restored_blocks = last.restored_blocks;
  row.restored_smus = last.restored_smus;
  row.replayed_records = last.replayed_records;
  row.replayed_cvs = last.replayed_cvs;
  row.applied_cvs = last.applied_cvs;
  row.row_invalidations = last.row_invalidations;
  row.coarse_invalidations = last.coarse_invalidations;
  return row;
}

std::string VImSegmentsJson(const std::vector<VImSegmentsRow>& rows) {
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ",";
    out += rows[i].ToJson();
  }
  out += "]";
  return out;
}

std::string VTransportJson(const std::vector<VTransportRow>& rows) {
  std::string out = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ",";
    out += rows[i].ToJson();
  }
  out += "]";
  return out;
}

std::string ClusterObservability::MetricsText() const {
  return cluster_->MetricsText();
}

std::string ClusterObservability::MetricsJson() const {
  return cluster_->MetricsJson();
}

obs::HttpResponse ClusterObservability::Healthz() const {
  const StandbyHealth health = cluster_->standby()->health();
  obs::HttpResponse resp;
  if (!health.degraded) {
    resp.body = "ok\n";
    return resp;
  }
  resp.status = 503;
  resp.body = "degraded: " + health.first_error + " (apply_errors=" +
              std::to_string(health.apply_errors) + ", quarantined_imcus=" +
              std::to_string(health.quarantined_imcus) + ")\n";
  return resp;
}

obs::HttpResponse ClusterObservability::Readyz() const {
  const Scn query_scn = cluster_->standby()->published_query_scn();
  obs::HttpResponse resp;
  if (query_scn != kInvalidScn) {
    resp.body = "ready query_scn=" + std::to_string(query_scn) + "\n";
    return resp;
  }
  resp.status = 503;
  resp.body = "no QuerySCN published yet\n";
  return resp;
}

std::string ClusterObservability::TracesJson() const {
  return obs::TraceBuffer::Global().ExportJson();
}

std::string ClusterObservability::QueriesJson() const {
  return "{\"primary\":" + cluster_->primary()->slow_query_log()->ToJson() +
         ",\"standby\":" + cluster_->standby()->slow_query_log()->ToJson() +
         "}";
}

obs::HttpResponse ClusterObservability::View(const std::string& view) const {
  obs::HttpResponse resp;
  resp.content_type = "application/json";
  if (view == "im_segments") {
    resp.body = VImSegmentsJson(
        CollectVImSegments(cluster_->primary(), cluster_->standby()));
  } else if (view == "standby_apply") {
    resp.body =
        CollectVStandbyApply(cluster_->standby(), cluster_->lag_monitor())
            .ToJson();
  } else if (view == "transport") {
    resp.body = VTransportJson(CollectVTransport(cluster_));
  } else if (view == "persist") {
    resp.body = CollectVPersist(cluster_->standby()).ToJson();
  } else {
    resp.status = 404;
    resp.body = "{\"error\":\"unknown view '" + obs::JsonEscape(view) +
                "'; try im_segments, standby_apply, transport, persist\"}";
  }
  return resp;
}

void ClusterObservability::Register(obs::ObsServer* server) {
  server->Handle("/metrics", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = MetricsText();
    return resp;
  });
  server->Handle("/metrics.json", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = MetricsJson();
    return resp;
  });
  server->Handle("/healthz",
                 [this](const obs::HttpRequest&) { return Healthz(); });
  server->Handle("/readyz",
                 [this](const obs::HttpRequest&) { return Readyz(); });
  server->Handle("/traces", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = TracesJson();
    return resp;
  });
  server->Handle("/queries", [this](const obs::HttpRequest&) {
    obs::HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = QueriesJson();
    return resp;
  });
  server->HandlePrefix("/v/", [this](const obs::HttpRequest& req) {
    return View(req.path.substr(3));
  });
}

}  // namespace stratus
