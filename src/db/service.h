#ifndef STRATUS_DB_SERVICE_H_
#define STRATUS_DB_SERVICE_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/database.h"

namespace stratus {

/// Where a database service runs (Oracle's Services Infrastructure [7]; the
/// paper's typical deployment creates exactly these three: Standby-only,
/// Primary-only, and Primary-and-Standby — Figure 2).
struct ServiceDefinition {
  std::string name;
  bool on_primary = false;
  bool on_standby = false;
  /// Standby instance the service prefers (RAC).
  InstanceId standby_instance = kMasterInstance;
};

/// Routes application connections to the databases their service runs on.
/// Customers attach each workload (OLTP, reporting, extracts) to a service
/// and attach each object's INMEMORY clause to a service — that is how the
/// paper partitions the IMCS across primary and standby (capacity expansion)
/// and isolates workloads without the application knowing the topology.
class ServiceDirectory {
 public:
  explicit ServiceDirectory(AdgCluster* cluster) : cluster_(cluster) {}

  ServiceDirectory(const ServiceDirectory&) = delete;
  ServiceDirectory& operator=(const ServiceDirectory&) = delete;

  /// Registers a service; fails on duplicate name or a service that runs
  /// nowhere.
  Status CreateService(const ServiceDefinition& def);

  /// Convenience: the paper's canonical trio.
  Status CreateDefaultServices();

  StatusOr<ServiceDefinition> Lookup(const std::string& name) const;
  std::vector<ServiceDefinition> All() const;

  /// Runs a read-only scan on the service: a standby-capable service prefers
  /// the standby (offload, the paper's point); a primary-only service runs on
  /// the primary. Fails (Unavailable) if the service's database cannot serve —
  /// e.g. a standby-only service before the first QuerySCN publication, with
  /// no primary fallback.
  StatusOr<QueryResult> Query(const std::string& service, const ScanQuery& query);

  /// Routes an index fetch the same way.
  StatusOr<std::optional<Row>> Fetch(const std::string& service, ObjectId object,
                                     int64_t key);

  /// Begins a read-write transaction: only services that run on the primary
  /// accept writes (the standby is read-only until failover).
  StatusOr<Transaction> BeginWrite(const std::string& service,
                                   TenantId tenant = kDefaultTenant);

  /// Maps an ImService placement to the service name that would carry it.
  static const char* DefaultServiceFor(ImService service);

 private:
  AdgCluster* cluster_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, ServiceDefinition> services_;
};

}  // namespace stratus

#endif  // STRATUS_DB_SERVICE_H_
