#include "persist/persist_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <dirent.h>

#include "common/checksum.h"

namespace stratus {
namespace persist {

namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::Internal(op + " " + path + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// DiskFaultInjector
// ---------------------------------------------------------------------------

bool DiskFaultInjector::Roll(uint32_t pct) {
  if (pct == 0) return false;
  std::lock_guard<std::mutex> g(mu_);
  return rng_.Percent(pct);
}

void DiskFaultInjector::FilterAppend(std::string* buf) {
  if (buf->empty()) return;
  if (Roll(options_.torn_write_pct)) {
    // Keep a non-empty prefix and damage one bit inside it: the classic torn
    // sector. The CRC must catch the damage; the truncation must stop the
    // scan without consuming later (never-written) frames.
    std::lock_guard<std::mutex> g(mu_);
    const size_t keep = 1 + rng_.Uniform(buf->size());
    buf->resize(keep);
    const size_t bit = rng_.Uniform(keep * 8);
    (*buf)[bit / 8] = static_cast<char>((*buf)[bit / 8] ^ (1u << (bit % 8)));
    torn_writes_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (Roll(options_.short_write_pct)) {
    std::lock_guard<std::mutex> g(mu_);
    buf->resize(rng_.Uniform(buf->size()));  // May drop the whole append.
    short_writes_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool DiskFaultInjector::FailRead() {
  if (!Roll(options_.read_error_pct)) return false;
  read_errors_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool DiskFaultInjector::FailSync() {
  if (!Roll(options_.sync_error_pct)) return false;
  sync_errors_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// AppendFile
// ---------------------------------------------------------------------------

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<AppendFile>> AppendFile::Open(const std::string& path,
                                                       DiskFaultInjector* faults) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("fstat", path);
  }
  return std::unique_ptr<AppendFile>(
      new AppendFile(fd, path, static_cast<uint64_t>(st.st_size), faults));
}

Status AppendFile::Append(const std::string& data) {
  std::string buf = data;
  if (faults_ != nullptr) faults_->FilterAppend(&buf);
  STRATUS_RETURN_IF_ERROR(WriteAll(fd_, buf.data(), buf.size()));
  size_ += buf.size();
  if (buf.size() != data.size())
    return Status::Internal("short write on " + path_);
  return Status::OK();
}

Status AppendFile::Sync() {
  if (faults_ != nullptr && faults_->FailSync())
    return Status::Internal("injected fsync failure on " + path_);
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Whole-file helpers
// ---------------------------------------------------------------------------

Status ReadFileFully(const std::string& path, std::string* out,
                     DiskFaultInjector* faults) {
  if (faults != nullptr && faults->FailRead())
    return Status::Internal("injected read failure on " + path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Errno("open", path);
  }
  out->clear();
  char buf[64 * 1024];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read", path);
    }
    if (r == 0) break;
    out->append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, const std::string& data,
                       DiskFaultInjector* faults) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  std::string buf = data;
  if (faults != nullptr) faults->FilterAppend(&buf);
  Status s = WriteAll(fd, buf.data(), buf.size());
  if (s.ok() && faults != nullptr && faults->FailSync())
    s = Status::Internal("injected fsync failure on " + tmp);
  if (s.ok() && ::fsync(fd) != 0) s = Errno("fsync", tmp);
  ::close(fd);
  if (s.ok() && buf.size() != data.size())
    s = Status::Internal("short write on " + tmp);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Errno("rename", path);
  }
  // fsync the parent directory so the rename itself is durable.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Status EnsureDir(const std::string& path) {
  std::string cur;
  size_t i = 0;
  while (i <= path.size()) {
    if (i == path.size() || path[i] == '/') {
      cur = path.substr(0, i == path.size() ? i : i + 1);
      if (!cur.empty() && cur != "/" &&
          ::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) {
        return Errno("mkdir", cur);
      }
    }
    ++i;
  }
  return Status::OK();
}

Status ListDir(const std::string& path, std::vector<std::string>* names) {
  names->clear();
  DIR* d = ::opendir(path.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such dir: " + path);
    return Errno("opendir", path);
  }
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names->push_back(name);
  }
  ::closedir(d);
  std::sort(names->begin(), names->end());
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) return Errno("unlink", path);
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
    return Errno("truncate", path);
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// ---------------------------------------------------------------------------
// Checked envelope
// ---------------------------------------------------------------------------

void WrapChecked(uint32_t magic, const std::string& body, std::string* out) {
  out->clear();
  out->reserve(body.size() + 12);
  PutU32(out, magic);
  PutU32(out, static_cast<uint32_t>(body.size()));
  PutU32(out, Crc32c(body.data(), body.size()));
  out->append(body);
}

Status UnwrapChecked(uint32_t magic, const std::string& file, std::string* body) {
  if (file.size() < 12) return Status::Corruption("file shorter than envelope");
  if (LoadU32(file.data()) != magic) return Status::Corruption("bad file magic");
  const uint32_t len = LoadU32(file.data() + 4);
  if (file.size() < 12 + static_cast<size_t>(len))
    return Status::Corruption("file body truncated");
  const uint32_t want = LoadU32(file.data() + 8);
  if (Crc32c(file.data() + 12, len) != want)
    return Status::Corruption("file CRC mismatch");
  body->assign(file.data() + 12, len);
  return Status::OK();
}

}  // namespace persist
}  // namespace stratus
