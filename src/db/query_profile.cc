#include "db/query_profile.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/clock.h"
#include "obs/metrics.h"

namespace stratus {

std::vector<WorkerLane> RollupLanes(const ScanProfile& profile) {
  std::map<uint32_t, WorkerLane> by_worker;
  for (const ScanTaskProfile& t : profile.tasks) {
    WorkerLane& lane = by_worker[t.worker];
    lane.worker = t.worker;
    // A later task's wait also counts the lane's own earlier run time, so
    // only the lane's first (smallest) wait is time spent queued.
    lane.queue_wait_us = lane.tasks == 0
                             ? t.queue_wait_us
                             : std::min(lane.queue_wait_us, t.queue_wait_us);
    ++lane.tasks;
    lane.exec_us += t.exec_us;
  }
  std::vector<WorkerLane> lanes;
  lanes.reserve(by_worker.size());
  for (auto& [_, lane] : by_worker) lanes.push_back(lane);
  return lanes;
}

std::string OperatorStage::ToJson() const {
  std::string out = "{";
  out += "\"op\":\"" + obs::JsonEscape(op) + "\"";
  if (object != kInvalidObjectId)
    out += ",\"object\":" + std::to_string(object);
  if (!path.empty()) {
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.4f", invalid_fraction);
    out += ",\"path\":\"" + obs::JsonEscape(path) + "\"";
    out += ",\"reason\":\"" + obs::JsonEscape(reason) + "\"";
    out += ",\"invalid_fraction\":" + std::string(frac);
  }
  out += ",\"rows_in\":" + std::to_string(rows_in);
  out += ",\"rows_out\":" + std::to_string(rows_out);
  if (op == "hash_agg") {
    out += ",\"groups\":" + std::to_string(groups);
    out += ",\"fold\":\"" + obs::JsonEscape(fold) + "\"";
  }
  if (op == "hash_join") {
    out += ",\"build_rows\":" + std::to_string(build_rows);
    out += ",\"probe_rows\":" + std::to_string(probe_rows);
    out += ",\"build_side\":\"" + obs::JsonEscape(build_side) + "\"";
  }
  out += ",\"elapsed_us\":" + std::to_string(elapsed_us);
  out += "}";
  return out;
}

std::string QueryProfile::Explain() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%s #%llu on object %llu @ scn %llu (%s)\n",
                kind.c_str(), static_cast<unsigned long long>(query_id),
                static_cast<unsigned long long>(object),
                static_cast<unsigned long long>(snapshot), role.c_str());
  out += line;
  for (const OperatorStage& s : stages) {
    if (s.op == "scan") {
      std::snprintf(line, sizeof(line),
                    "  op scan object %llu path=%s (%s, invalid %.2f%%): "
                    "%llu rows out, %llu us\n",
                    static_cast<unsigned long long>(s.object), s.path.c_str(),
                    s.reason.c_str(), s.invalid_fraction * 100.0,
                    static_cast<unsigned long long>(s.rows_out),
                    static_cast<unsigned long long>(s.elapsed_us));
    } else if (s.op == "hash_join") {
      std::snprintf(line, sizeof(line),
                    "  op hash_join build=%s (%llu build rows, %llu probe "
                    "rows): %llu rows out, %llu us\n",
                    s.build_side.c_str(),
                    static_cast<unsigned long long>(s.build_rows),
                    static_cast<unsigned long long>(s.probe_rows),
                    static_cast<unsigned long long>(s.rows_out),
                    static_cast<unsigned long long>(s.elapsed_us));
    } else if (s.op == "hash_agg") {
      std::snprintf(line, sizeof(line),
                    "  op hash_agg fold=%s: %llu rows in, %llu groups, "
                    "%llu us\n",
                    s.fold.c_str(), static_cast<unsigned long long>(s.rows_in),
                    static_cast<unsigned long long>(s.groups),
                    static_cast<unsigned long long>(s.elapsed_us));
    } else {
      std::snprintf(line, sizeof(line),
                    "  op %s: %llu rows in, %llu rows out, %llu us\n",
                    s.op.c_str(), static_cast<unsigned long long>(s.rows_in),
                    static_cast<unsigned long long>(s.rows_out),
                    static_cast<unsigned long long>(s.elapsed_us));
    }
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  rows: %llu returned, %llu matched "
                "(%llu from IMCS, %llu from row store)\n",
                static_cast<unsigned long long>(rows_returned),
                static_cast<unsigned long long>(matches),
                static_cast<unsigned long long>(scan.rows_from_imcs),
                static_cast<unsigned long long>(scan.rows_from_rowstore));
  out += line;
  std::snprintf(line, sizeof(line),
                "  imcus: %llu scanned, %llu pruned, %llu skipped; "
                "%llu row-path blocks, %llu reconciled invalid rows\n",
                static_cast<unsigned long long>(scan.imcus_scanned),
                static_cast<unsigned long long>(scan.imcus_pruned),
                static_cast<unsigned long long>(scan.imcus_skipped),
                static_cast<unsigned long long>(scan.blocks_rowpath),
                static_cast<unsigned long long>(scan.invalid_rowpath));
  out += line;
  std::snprintf(line, sizeof(line),
                "  kernel: %llu swar words, %llu avx2 words, "
                "%llu scalar rows\n",
                static_cast<unsigned long long>(scan.kernel_swar_words),
                static_cast<unsigned long long>(scan.kernel_avx2_words),
                static_cast<unsigned long long>(scan.kernel_scalar_rows));
  out += line;
  std::snprintf(line, sizeof(line),
                "  parallel: dop %u, %llu tasks over %zu workers\n", dop,
                static_cast<unsigned long long>(scan.parallel_tasks),
                lanes.size());
  out += line;
  for (const WorkerLane& lane : lanes) {
    std::snprintf(line, sizeof(line),
                  "    worker %u: %llu tasks, wait %llu us, exec %llu us\n",
                  lane.worker, static_cast<unsigned long long>(lane.tasks),
                  static_cast<unsigned long long>(lane.queue_wait_us),
                  static_cast<unsigned long long>(lane.exec_us));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  visibility: %llu commit-status lookups",
                static_cast<unsigned long long>(commit_lookups));
  out += line;
  if (imadg_sampled) {
    std::snprintf(line, sizeof(line),
                  "; journal %llu live anchors, commit table %llu live nodes",
                  static_cast<unsigned long long>(journal_live_anchors),
                  static_cast<unsigned long long>(commit_table_live_nodes));
    out += line;
  }
  out += "\n";
  if (lag_sampled) {
    std::snprintf(line, sizeof(line),
                  "  freshness: primary scn %llu, staleness %llu scn / %lld us\n",
                  static_cast<unsigned long long>(primary_scn),
                  static_cast<unsigned long long>(staleness_scn),
                  static_cast<long long>(staleness_us));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  time: %llu us wall (%llu us assembly, %llu us "
                "unattributed), %llu us caller cpu\n",
                static_cast<unsigned long long>(wall_us),
                static_cast<unsigned long long>(assembly_us),
                static_cast<unsigned long long>(unattributed_us),
                static_cast<unsigned long long>(caller_cpu_us));
  out += line;
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{";
  out += "\"query_id\":" + std::to_string(query_id);
  out += ",\"kind\":\"" + obs::JsonEscape(kind) + "\"";
  out += ",\"role\":\"" + obs::JsonEscape(role) + "\"";
  out += ",\"object\":" + std::to_string(object);
  if (join_right != kInvalidObjectId)
    out += ",\"join_right\":" + std::to_string(join_right);
  out += ",\"snapshot\":" + obs::JsonScn(snapshot);
  out += ",\"rows_returned\":" + std::to_string(rows_returned);
  out += ",\"matches\":" + std::to_string(matches);
  if (!stages.empty()) {
    out += ",\"stages\":[";
    for (size_t i = 0; i < stages.size(); ++i) {
      if (i != 0) out += ",";
      out += stages[i].ToJson();
    }
    out += "]";
  }
  out += ",\"rows_from_imcs\":" + std::to_string(scan.rows_from_imcs);
  out += ",\"rows_from_rowstore\":" + std::to_string(scan.rows_from_rowstore);
  out += ",\"imcus_scanned\":" + std::to_string(scan.imcus_scanned);
  out += ",\"imcus_pruned\":" + std::to_string(scan.imcus_pruned);
  out += ",\"imcus_skipped\":" + std::to_string(scan.imcus_skipped);
  out += ",\"blocks_rowpath\":" + std::to_string(scan.blocks_rowpath);
  out += ",\"invalid_rowpath\":" + std::to_string(scan.invalid_rowpath);
  out += ",\"parallel_tasks\":" + std::to_string(scan.parallel_tasks);
  out += ",\"kernel_swar_words\":" + std::to_string(scan.kernel_swar_words);
  out += ",\"kernel_avx2_words\":" + std::to_string(scan.kernel_avx2_words);
  out += ",\"kernel_scalar_rows\":" + std::to_string(scan.kernel_scalar_rows);
  out += ",\"dop\":" + std::to_string(dop);
  out += ",\"lanes\":[";
  for (size_t i = 0; i < lanes.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"worker\":" + std::to_string(lanes[i].worker) +
           ",\"tasks\":" + std::to_string(lanes[i].tasks) +
           ",\"queue_wait_us\":" + std::to_string(lanes[i].queue_wait_us) +
           ",\"exec_us\":" + std::to_string(lanes[i].exec_us) + "}";
  }
  out += "]";
  out += ",\"commit_lookups\":" + std::to_string(commit_lookups);
  out += ",\"imadg_sampled\":" + std::string(imadg_sampled ? "true" : "false");
  if (imadg_sampled) {
    out += ",\"journal_live_anchors\":" + std::to_string(journal_live_anchors);
    out += ",\"commit_table_live_nodes\":" +
           std::to_string(commit_table_live_nodes);
  }
  out += ",\"lag_sampled\":" + std::string(lag_sampled ? "true" : "false");
  if (lag_sampled) {
    out += ",\"primary_scn\":" + obs::JsonScn(primary_scn);
    out += ",\"staleness_scn\":" + std::to_string(staleness_scn);
    out += ",\"staleness_us\":" + std::to_string(staleness_us);
  }
  out += ",\"started_at_us\":" + std::to_string(started_at_us);
  out += ",\"wall_us\":" + std::to_string(wall_us);
  out += ",\"assembly_us\":" + std::to_string(assembly_us);
  out += ",\"unattributed_us\":" + std::to_string(unattributed_us);
  out += ",\"caller_cpu_us\":" + std::to_string(caller_cpu_us);
  out += "}";
  return out;
}

uint64_t SlowQueryLog::Begin(const std::string& kind, ObjectId object,
                             Scn snapshot) {
  std::lock_guard<std::mutex> g(mu_);
  const uint64_t id = next_id_++;
  InFlightQuery q;
  q.query_id = id;
  q.kind = kind;
  q.object = object;
  q.snapshot = snapshot;
  q.started_at_us = NowMicros();
  in_flight_.emplace(id, std::move(q));
  return id;
}

void SlowQueryLog::End(uint64_t query_id, QueryProfile profile) {
  std::lock_guard<std::mutex> g(mu_);
  in_flight_.erase(query_id);
  ++completed_;
  if (profile.wall_us < threshold_us_) return;
  profile.query_id = query_id;
  ring_.push_back(std::move(profile));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<QueryProfile> SlowQueryLog::Completed() const {
  std::lock_guard<std::mutex> g(mu_);
  return {ring_.begin(), ring_.end()};
}

std::vector<InFlightQuery> SlowQueryLog::InFlight() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<InFlightQuery> out;
  out.reserve(in_flight_.size());
  for (const auto& [_, q] : in_flight_) out.push_back(q);
  std::sort(out.begin(), out.end(),
            [](const InFlightQuery& a, const InFlightQuery& b) {
              return a.query_id < b.query_id;
            });
  return out;
}

uint64_t SlowQueryLog::total_completed() const {
  std::lock_guard<std::mutex> g(mu_);
  return completed_;
}

std::string SlowQueryLog::ToJson() const {
  // Copy under the lock, render outside it.
  std::vector<InFlightQuery> inflight = InFlight();
  std::vector<QueryProfile> done = Completed();
  std::string out = "{\"in_flight\":[";
  for (size_t i = 0; i < inflight.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"query_id\":" + std::to_string(inflight[i].query_id) +
           ",\"kind\":\"" + obs::JsonEscape(inflight[i].kind) + "\"" +
           ",\"object\":" + std::to_string(inflight[i].object) +
           ",\"snapshot\":" + obs::JsonScn(inflight[i].snapshot) +
           ",\"started_at_us\":" + std::to_string(inflight[i].started_at_us) +
           "}";
  }
  out += "],\"completed\":[";
  for (size_t i = 0; i < done.size(); ++i) {
    if (i != 0) out += ",";
    out += done[i].ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace stratus
