#ifndef STRATUS_PERSIST_PERSIST_OPTIONS_H_
#define STRATUS_PERSIST_PERSIST_OPTIONS_H_

#include <cstdint>
#include <string>

namespace stratus {
namespace persist {

/// When the redo archive forces its buffered appends to stable storage.
enum class SyncMode : uint8_t {
  kNone = 0,            ///< Never fsync (OS decides). Fastest, weakest.
  kCommitBoundary = 1,  ///< fsync when a batch carries a commit CV (or on
                        ///< segment roll). The paper's group-commit analogue:
                        ///< an unsynced tail can hold only uncommitted work,
                        ///< so a crash loses no acknowledged transaction —
                        ///< but the standby must be re-shipped the tail
                        ///< (its StandbyLink's cursors retain it; see
                        ///< LogShipper's durable-floor gate).
  kEveryBatch = 2,      ///< fsync every archived batch: durable == delivered,
                        ///< so recovery never depends on redelivery. Default.
};

/// Seeded disk-fault injection (mirrors net::FaultOptions for the wire).
/// All-zero percentages = no injection.
struct DiskFaultOptions {
  uint32_t short_write_pct = 0;  ///< Truncate an append (crash mid-write).
  uint32_t torn_write_pct = 0;   ///< Truncate and flip a bit in the tail
                                 ///< (sector torn across a power cut).
  uint32_t read_error_pct = 0;   ///< Fail a file read outright.
  uint32_t sync_error_pct = 0;   ///< Fail an fsync.
  uint64_t seed = 42;
};

/// Durability configuration for one standby, threaded through
/// `DatabaseOptions::persist`. Disabled by default: the historical all-RAM
/// behavior is unchanged unless a data directory is configured.
struct PersistOptions {
  bool enabled = false;
  /// Root directory for this standby's durable state:
  ///   <data_dir>/archive/s<k>/seg-NNNNNNNN.redo   redo archive, stream k
  ///   <data_dir>/ckpt-NNNNNNNN.ckpt               fuzzy checkpoints
  ///   <data_dir>/imcs-NNNNNNNN.snap               IMCS snapshots
  ///   <data_dir>/META                             manifest / watermarks
  std::string data_dir;
  SyncMode sync = SyncMode::kEveryBatch;
  /// Roll to a new archive segment past this size.
  uint64_t segment_bytes = 4ull << 20;
  /// Background checkpoint cadence. 0 = manual checkpoints only
  /// (StandbyDb::TakeCheckpoint), which keeps tests deterministic.
  int64_t checkpoint_interval_us = 0;
  /// Serialize IMCU/SMU state with each checkpoint so restart resumes
  /// population from the snapshot SCN instead of rebuilding from scratch.
  bool snapshot_imcs = true;
  /// Recycle archive segments wholly covered by checkpoint progress.
  bool recycle_segments = true;
  DiskFaultOptions faults;
};

}  // namespace persist
}  // namespace stratus

#endif  // STRATUS_PERSIST_PERSIST_OPTIONS_H_
