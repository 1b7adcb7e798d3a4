#include "db/service.h"

namespace stratus {

Status ServiceDirectory::CreateService(const ServiceDefinition& def) {
  if (def.name.empty()) return Status::InvalidArgument("service needs a name");
  if (!def.on_primary && !def.on_standby)
    return Status::InvalidArgument("service runs nowhere");
  std::lock_guard<std::mutex> g(mu_);
  if (services_.contains(def.name))
    return Status::AlreadyExists("service " + def.name);
  services_.emplace(def.name, def);
  return Status::OK();
}

Status ServiceDirectory::CreateDefaultServices() {
  STRATUS_RETURN_IF_ERROR(CreateService({"standby_only", false, true, 0}));
  STRATUS_RETURN_IF_ERROR(CreateService({"primary_only", true, false, 0}));
  return CreateService({"primary_and_standby", true, true, 0});
}

StatusOr<ServiceDefinition> ServiceDirectory::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = services_.find(name);
  if (it == services_.end()) return Status::NotFound("service " + name);
  return it->second;
}

std::vector<ServiceDefinition> ServiceDirectory::All() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<ServiceDefinition> out;
  out.reserve(services_.size());
  for (const auto& [name, def] : services_) out.push_back(def);
  return out;
}

const char* ServiceDirectory::DefaultServiceFor(ImService service) {
  switch (service) {
    case ImService::kPrimaryOnly: return "primary_only";
    case ImService::kStandbyOnly: return "standby_only";
    case ImService::kBoth: return "primary_and_standby";
    case ImService::kNone: return "primary_only";
  }
  return "primary_only";
}

StatusOr<QueryResult> ServiceDirectory::Query(const std::string& service,
                                              const ScanQuery& query) {
  StatusOr<ServiceDefinition> def = Lookup(service);
  if (!def.ok()) return def.status();
  // Offload-first: read-only work prefers the standby when the service spans
  // it (the whole point of ADG offloading); fall back to the primary if the
  // standby has no consistency point yet.
  if (def->on_standby) {
    StatusOr<QueryResult> result =
        cluster_->standby()->Query(query, def->standby_instance);
    if (result.ok() || !def->on_primary || !result.status().IsUnavailable())
      return result;
  }
  return cluster_->primary()->Query(query);
}

StatusOr<std::optional<Row>> ServiceDirectory::Fetch(const std::string& service,
                                                     ObjectId object, int64_t key) {
  StatusOr<ServiceDefinition> def = Lookup(service);
  if (!def.ok()) return def.status();
  if (def->on_standby) {
    StatusOr<std::optional<Row>> result =
        cluster_->standby()->Fetch(object, key, def->standby_instance);
    if (result.ok() || !def->on_primary || !result.status().IsUnavailable())
      return result;
  }
  return cluster_->primary()->Fetch(object, key);
}

StatusOr<Transaction> ServiceDirectory::BeginWrite(const std::string& service,
                                                   TenantId tenant) {
  StatusOr<ServiceDefinition> def = Lookup(service);
  if (!def.ok()) return def.status();
  if (!def->on_primary) {
    return Status::FailedPrecondition(
        "service " + service + " is standby-only: the standby is read-only");
  }
  return cluster_->primary()->Begin(0, tenant);
}

}  // namespace stratus
