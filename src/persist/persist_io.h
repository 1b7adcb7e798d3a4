#ifndef STRATUS_PERSIST_PERSIST_IO_H_
#define STRATUS_PERSIST_PERSIST_IO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "persist/persist_options.h"

namespace stratus {
namespace persist {

/// Seeded fault injector for the file layer, the disk twin of
/// net::FaultInjector: recovery tests drive short/torn writes and I/O errors
/// through it to prove the CRC framing detects and truncates damaged tails
/// instead of replaying them.
class DiskFaultInjector {
 public:
  explicit DiskFaultInjector(const DiskFaultOptions& options)
      : options_(options), rng_(options.seed) {}

  DiskFaultInjector(const DiskFaultInjector&) = delete;
  DiskFaultInjector& operator=(const DiskFaultInjector&) = delete;

  /// Applies write faults to `buf` in place; returns false if the append
  /// should also report an I/O error to the caller (torn writes land damaged
  /// bytes silently, like a real power cut).
  void FilterAppend(std::string* buf);

  bool FailRead();
  bool FailSync();

  uint64_t short_writes() const { return short_writes_.load(std::memory_order_relaxed); }
  uint64_t torn_writes() const { return torn_writes_.load(std::memory_order_relaxed); }
  uint64_t read_errors() const { return read_errors_.load(std::memory_order_relaxed); }
  uint64_t sync_errors() const { return sync_errors_.load(std::memory_order_relaxed); }

 private:
  bool Roll(uint32_t pct);

  DiskFaultOptions options_;
  std::mutex mu_;
  Random rng_;
  std::atomic<uint64_t> short_writes_{0};
  std::atomic<uint64_t> torn_writes_{0};
  std::atomic<uint64_t> read_errors_{0};
  std::atomic<uint64_t> sync_errors_{0};
};

/// Append-only file handle used by the redo archive. All faults are injected
/// here so the archive logic itself stays oblivious.
class AppendFile {
 public:
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Opens (creating if absent) `path` for appending.
  static StatusOr<std::unique_ptr<AppendFile>> Open(const std::string& path,
                                                    DiskFaultInjector* faults);

  Status Append(const std::string& data);
  Status Sync();

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  AppendFile(int fd, std::string path, uint64_t size, DiskFaultInjector* faults)
      : fd_(fd), path_(std::move(path)), size_(size), faults_(faults) {}

  int fd_;
  std::string path_;
  uint64_t size_;
  DiskFaultInjector* faults_;
};

/// Reads a whole file. NotFound if absent.
Status ReadFileFully(const std::string& path, std::string* out,
                     DiskFaultInjector* faults = nullptr);

/// Crash-safe whole-file write: tmp file, fsync, rename over `path`, fsync
/// the directory. Readers see either the old contents or the new, never a
/// mix — the invariant checkpoints and the manifest rely on.
Status AtomicWriteFile(const std::string& path, const std::string& data,
                       DiskFaultInjector* faults = nullptr);

Status EnsureDir(const std::string& path);  ///< mkdir -p.
Status ListDir(const std::string& path, std::vector<std::string>* names);  ///< Sorted.
Status RemoveFile(const std::string& path);
Status TruncateFile(const std::string& path, uint64_t size);
bool FileExists(const std::string& path);

// ---------------------------------------------------------------------------
// Checked envelope shared by every whole-file persist format (checkpoint,
// IMCS snapshot, META): [u32 magic][u32 body_len][u32 crc32c(body)][body] —
// the same prefix the wire frames use, so one decoder discipline covers
// network and disk. It stays apart from net::DecodeFrame on purpose: a whole
// file is either complete or damaged, so it needs neither the frame's
// "incomplete, read more bytes" result nor its 64 MiB body cap. Bodies are
// written with the value coder in net/codec.h.
// ---------------------------------------------------------------------------
void WrapChecked(uint32_t magic, const std::string& body, std::string* out);
Status UnwrapChecked(uint32_t magic, const std::string& file, std::string* body);

}  // namespace persist
}  // namespace stratus

#endif  // STRATUS_PERSIST_PERSIST_IO_H_
