#include "persist/meta_store.h"

#include "common/checksum.h"
#include "net/codec.h"

namespace stratus {
namespace persist {

namespace {
inline constexpr uint32_t kMetaMagic = 0x53544D31;  // "1MTS"
}  // namespace

StatusOr<std::unique_ptr<MetaStore>> MetaStore::Open(const std::string& path,
                                                     DiskFaultInjector* faults) {
  std::unique_ptr<MetaStore> store(new MetaStore(path, faults));
  std::string file;
  Status s = ReadFileFully(path, &file, faults);
  if (s.code() == Code::kNotFound) return store;
  STRATUS_RETURN_IF_ERROR(s);
  std::string body;
  s = UnwrapChecked(kMetaMagic, file, &body);
  if (!s.ok()) {
    // tmp+rename means a valid file is either old or new in full; damage here
    // is injected (or real media corruption). Start from empty disk truth.
    store->corrupt_loads_ = 1;
    return store;
  }
  size_t pos = 0;
  uint64_t count = 0;
  if (!GetVarint64(body, &pos, &count)) {
    store->corrupt_loads_ = 1;
    return store;
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    uint64_t value = 0;
    if (!net::GetLengthPrefixed(body, &pos, &key) ||
        !GetVarint64(body, &pos, &value)) {
      store->map_.clear();
      store->corrupt_loads_ = 1;
      return store;
    }
    store->map_[key] = value;
  }
  return store;
}

uint64_t MetaStore::Get(const std::string& key, uint64_t def) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = map_.find(key);
  return it == map_.end() ? def : it->second;
}

bool MetaStore::Has(const std::string& key) const {
  std::lock_guard<std::mutex> g(mu_);
  return map_.count(key) != 0;
}

void MetaStore::Set(const std::string& key, uint64_t value) {
  std::lock_guard<std::mutex> g(mu_);
  map_[key] = value;
}

Status MetaStore::Flush() {
  std::string body;
  {
    std::lock_guard<std::mutex> g(mu_);
    PutVarint64(&body, map_.size());
    for (const auto& [key, value] : map_) {
      net::PutLengthPrefixed(&body, key);
      PutVarint64(&body, value);
    }
  }
  std::string file;
  WrapChecked(kMetaMagic, body, &file);
  return AtomicWriteFile(path_, file, faults_);
}

std::map<std::string, uint64_t> MetaStore::SnapshotAll() const {
  std::lock_guard<std::mutex> g(mu_);
  return map_;
}

}  // namespace persist
}  // namespace stratus
