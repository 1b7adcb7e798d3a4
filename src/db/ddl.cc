#include "db/ddl.h"

namespace stratus {

Status DdlExecutor::Execute(DdlMarker marker) {
  marker.tenant = db_->catalog()->TenantOf(marker.object_id);
  ChangeVector cv;
  cv.kind = CvKind::kDdlMarker;
  cv.dba = marker.object_id % kTxnTableDbaCount;  // Hashes to one worker.
  cv.object_id = marker.object_id;
  cv.tenant = marker.tenant;
  cv.ddl = marker;
  const Scn scn = db_->redo_log(0)->Append({std::move(cv)});
  STRATUS_RETURN_IF_ERROR(db_->ApplyDictionaryDdl(marker, scn));
  // Immediate on the primary's own IMCS: IMCUs of the old shape (or of an
  // object no longer in memory) are dropped, and rebuilt where still covered.
  db_->RefreshImObject(marker.object_id);
  return Status::OK();
}

Status DdlExecutor::DropTable(ObjectId object_id) {
  if (!db_->catalog()->Exists(object_id)) return Status::NotFound("no such table");
  DdlMarker marker;
  marker.op = DdlOp::kDropTable;
  marker.object_id = object_id;
  return Execute(marker);
}

Status DdlExecutor::DropColumn(ObjectId object_id, const std::string& column_name) {
  StatusOr<Schema> schema = db_->catalog()->CurrentSchema(object_id);
  if (!schema.ok()) return schema.status();
  const int idx = schema->FindColumn(column_name);
  if (idx < 0) return Status::NotFound("no such column");
  DdlMarker marker;
  marker.op = DdlOp::kDropColumn;
  marker.object_id = object_id;
  marker.column_idx = static_cast<uint32_t>(idx);
  return Execute(marker);
}

Status DdlExecutor::AlterInMemory(ObjectId object_id, ImService service) {
  if (!db_->catalog()->Exists(object_id)) return Status::NotFound("no such table");
  DdlMarker marker;
  marker.op = DdlOp::kAlterInMemory;
  marker.object_id = object_id;
  marker.im_service = static_cast<uint8_t>(service);
  return Execute(marker);
}

Status DdlExecutor::NoInMemory(ObjectId object_id) {
  return AlterInMemory(object_id, ImService::kNone);
}

}  // namespace stratus
