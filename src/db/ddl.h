#ifndef STRATUS_DB_DDL_H_
#define STRATUS_DB_DDL_H_

#include <string>

#include "common/status.h"
#include "db/database.h"

namespace stratus {

/// Primary-side executor for the dictionary-only DDLs the paper's Section
/// III.G discusses. Each DDL:
///  1. emits a redo *marker* change vector, which the standby's Mining
///     Component buffers in the DDL Information Table so the standby's IMCUs
///     are dropped exactly at the QuerySCN that covers the DDL,
///  2. records a new SCN-effective version in the primary catalog through
///     Database::ApplyDictionaryDdl — the same step the standby runs when
///     redo apply reaches the marker,
///  3. takes effect on the primary's own IMCS immediately (DBIM on the
///     primary is tightly integrated with DDL).
class DdlExecutor {
 public:
  explicit DdlExecutor(PrimaryDb* db) : db_(db) {}

  Status DropTable(ObjectId object_id);
  Status DropColumn(ObjectId object_id, const std::string& column_name);
  Status AlterInMemory(ObjectId object_id, ImService service);
  /// ALTER TABLE ... NO INMEMORY.
  Status NoInMemory(ObjectId object_id);

 private:
  /// Fills the tenant, emits the marker and runs steps 2–3.
  Status Execute(DdlMarker marker);

  PrimaryDb* db_;
};

}  // namespace stratus

#endif  // STRATUS_DB_DDL_H_
