#include "storage/segment_log_storage.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <system_error>
#include <vector>

#include "common/codec.hpp"
#include "storage/sealed_record.hpp"

namespace abcast {
namespace fs = std::filesystem;

namespace {

constexpr std::uint8_t kRecPut = 1;
constexpr std::uint8_t kRecErase = 2;
constexpr const char* kSegPrefix = "seg-";
constexpr const char* kSegSuffix = ".log";

fs::path segment_path(const fs::path& dir, std::uint64_t id) {
  char name[32];
  std::snprintf(name, sizeof name, "%s%012llu%s", kSegPrefix,
                static_cast<unsigned long long>(id), kSegSuffix);
  return dir / name;
}

/// seg-NNNNNNNNNNNN.log -> NNNNNNNNNNNN, or nullopt for foreign files.
std::optional<std::uint64_t> segment_id(const fs::path& path) {
  const std::string name = path.filename().string();
  const std::string prefix = kSegPrefix;
  const std::string suffix = kSegSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t id = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return id;
}

}  // namespace

SegmentedLogStorage::SegmentedLogStorage(SegmentedLogConfig cfg)
    : cfg_(std::move(cfg)) {
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);
  if (ec) throw StorageIoError("cannot create " + cfg_.dir.string());
  replay_segments();
  open_fresh_segment();
}

SegmentedLogStorage::~SegmentedLogStorage() {
  std::unique_lock<std::mutex> lock(mu_);
  // Best-effort final barrier so a clean shutdown leaves nothing in the
  // page cache only (destruction is not a crash).
  if (unsynced_records_ > 0 && fd_ >= 0 && cfg_.sync != SyncMode::kNone) {
    ::fdatasync(fd_);
  }
  if (fd_ >= 0) ::close(fd_);
}

// ---- record framing --------------------------------------------------------

Bytes SegmentedLogStorage::frame_record(std::string_view key,
                                        const Bytes* value) const {
  BufWriter body;
  body.u8(value != nullptr ? kRecPut : kRecErase);
  body.str(key);
  if (value != nullptr) body.bytes(*value);
  const Bytes sealed = seal_record(std::move(body).take());
  BufWriter framed;
  framed.bytes(sealed);  // [u32 len][sealed body] — the segment frame
  return std::move(framed).take();
}

void SegmentedLogStorage::write_all(int fd, const Bytes& data,
                                    const char* what) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) throw StorageIoError(std::string("write failed for ") + what);
    off += static_cast<std::size_t>(n);
  }
}

void SegmentedLogStorage::sync_fd(int fd, const char* what) {
  if (::fdatasync(fd) != 0) {
    throw StorageIoError(std::string("fdatasync failed for ") + what);
  }
  seg_stats_.fsyncs += 1;
}

void SegmentedLogStorage::sync_pending() {
  if (unsynced_records_ == 0 || cfg_.sync == SyncMode::kNone) return;
  sync_fd(fd_, "segment");
  seg_stats_.group_commits += unsynced_records_ - 1;
  unsynced_records_ = 0;
}

void SegmentedLogStorage::sync_dir() {
  const int fd = ::open(cfg_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw StorageIoError("open dir failed: " + cfg_.dir.string());
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) throw StorageIoError("fsync dir failed: " + cfg_.dir.string());
}

// ---- segment lifecycle -----------------------------------------------------

void SegmentedLogStorage::open_fresh_segment() {
  if (fd_ >= 0) {
    // Seal the outgoing segment: everything in it becomes durable before
    // the switch, so sync points only ever cover the current fd.
    sync_pending();
    ::close(fd_);
    fd_ = -1;
  }
  const fs::path path = segment_path(cfg_.dir, next_segment_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw StorageIoError("cannot create " + path.string());
  next_segment_ += 1;
  current_segment_bytes_ = 0;
  seg_stats_.segments_created += 1;
}

void SegmentedLogStorage::append_record(std::string_view key,
                                        const Bytes* value) {
  const Bytes framed = frame_record(key, value);
  write_all(fd_, framed, "segment");
  unsynced_records_ += 1;
  seg_stats_.appends += 1;
  seg_stats_.bytes_appended += framed.size();
  current_segment_bytes_ += framed.size();
  total_disk_bytes_ += framed.size();

  // Update the live map and the dead-byte accounting.
  const auto it = records_.find(key);
  if (it != records_.end()) live_disk_bytes_ -= it->second.disk_size;
  if (value != nullptr) {
    Rec rec;
    rec.value = *value;
    rec.disk_size = framed.size();
    live_disk_bytes_ += framed.size();
    if (it != records_.end()) {
      it->second = std::move(rec);
    } else {
      records_.emplace(std::string(key), std::move(rec));
    }
  } else if (it != records_.end()) {
    records_.erase(it);
  }

  if (current_segment_bytes_ >= cfg_.segment_bytes) open_fresh_segment();
  maybe_compact();
}

void SegmentedLogStorage::maybe_compact() {
  if (total_disk_bytes_ < cfg_.compact_min_bytes) return;
  const std::uint64_t dead = total_disk_bytes_ - live_disk_bytes_;
  if (static_cast<double>(dead) <
      cfg_.compact_dead_ratio * static_cast<double>(total_disk_bytes_)) {
    return;
  }
  compact();
}

void SegmentedLogStorage::compact() {
  // Write the whole live map into a fresh segment, make it durable, THEN
  // unlink the older segments. A crash at any point is safe: replay walks
  // segments in id order, so replaying a surviving old segment plus a
  // partial compacted one just re-applies a subset of the same records.
  const std::uint64_t doomed_below = next_segment_;
  open_fresh_segment();  // seals + closes the outgoing segment
  std::uint64_t compacted_bytes = 0;
  for (auto& [key, rec] : records_) {
    const Bytes framed = frame_record(key, &rec.value);
    write_all(fd_, framed, "compacted segment");
    rec.disk_size = framed.size();
    compacted_bytes += framed.size();
    seg_stats_.bytes_appended += framed.size();
  }
  if (cfg_.sync != SyncMode::kNone) {
    sync_fd(fd_, "compacted segment");
    sync_dir();
  }
  current_segment_bytes_ = compacted_bytes;
  live_disk_bytes_ = compacted_bytes;
  total_disk_bytes_ = compacted_bytes;

  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cfg_.dir, ec)) {
    const auto id = segment_id(entry.path());
    if (id && *id < doomed_below) fs::remove(entry.path(), ec);
  }
  if (cfg_.sync != SyncMode::kNone) sync_dir();
  seg_stats_.compactions += 1;

  // The compacted segment may itself be over the roll threshold; let the
  // next append roll it rather than recursing here.
}

// ---- recovery --------------------------------------------------------------

void SegmentedLogStorage::replay_segments() {
  std::vector<std::pair<std::uint64_t, fs::path>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cfg_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (const auto id = segment_id(entry.path())) {
      segments.emplace_back(*id, entry.path());
      next_segment_ = std::max(next_segment_, *id + 1);
    }
  }
  std::sort(segments.begin(), segments.end());
  for (const auto& [id, path] : segments) {
    const std::uint64_t good_prefix = replay_one(path);
    std::error_code trunc_ec;
    const auto size = fs::file_size(path, trunc_ec);
    if (!trunc_ec && good_prefix < size) {
      // Torn tail: the record was mid-write when the process died, so the
      // operation never completed. Truncate so the damage cannot shadow
      // future replays.
      fs::resize_file(path, good_prefix, trunc_ec);
    }
  }
  // live/total accounting after replay: every surviving record's framed
  // size counts as both live and total (tombstones and overwritten records
  // were already dropped from the map; their dead bytes remain on disk
  // until the next compaction, which total_disk_bytes_ must reflect).
  total_disk_bytes_ = 0;
  for (const auto& [id, path] : segments) {
    std::error_code size_ec;
    const auto size = fs::file_size(path, size_ec);
    if (!size_ec) total_disk_bytes_ += size;
  }
  live_disk_bytes_ = 0;
  for (const auto& [key, rec] : records_) live_disk_bytes_ += rec.disk_size;
}

std::uint64_t SegmentedLogStorage::replay_one(const fs::path& path) {
  std::error_code ec;
  const auto file_size = fs::file_size(path, ec);
  if (ec) return 0;
  Bytes raw(file_size);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw StorageIoError("cannot open " + path.string());
  std::size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n = ::read(fd, raw.data() + off, raw.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  raw.resize(off);

  std::size_t pos = 0;
  while (pos + 4 <= raw.size()) {
    BufReader len_r(raw.data() + pos, 4);
    const std::uint32_t len = len_r.u32();
    if (len < 4 || pos + 4 + len > raw.size()) break;  // torn length/tail
    const Bytes sealed(raw.begin() + static_cast<std::ptrdiff_t>(pos + 4),
                       raw.begin() + static_cast<std::ptrdiff_t>(pos + 4 + len));
    const auto body = unseal_record(sealed);
    if (!body) break;  // CRC failure: the append never completed
    try {
      BufReader r(*body);
      const std::uint8_t type = r.u8();
      std::string key = r.str();
      if (type == kRecPut) {
        Rec rec;
        rec.value = r.bytes();
        r.expect_done();
        rec.disk_size = 4 + len;
        records_.insert_or_assign(std::move(key), std::move(rec));
      } else if (type == kRecErase) {
        r.expect_done();
        records_.erase(key);
      } else {
        break;  // unknown type: treat like a damaged record
      }
    } catch (const CodecError&) {
      break;
    }
    seg_stats_.recovered_records += 1;
    pos += 4 + len;
  }
  if (pos < raw.size()) seg_stats_.torn_tail_records += 1;
  return pos;
}

// ---- StableStorage ---------------------------------------------------------

void SegmentedLogStorage::put(std::string_view key, const Bytes& value) {
  std::unique_lock<std::mutex> lock(mu_);
  append_record(key, &value);
  stats_.put_ops += 1;
  stats_.bytes_written += key.size() + value.size();
}

std::optional<Bytes> SegmentedLogStorage::get(std::string_view key) {
  std::unique_lock<std::mutex> lock(mu_);
  stats_.get_ops += 1;
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second.value;
}

void SegmentedLogStorage::erase(std::string_view key) {
  std::unique_lock<std::mutex> lock(mu_);
  stats_.erase_ops += 1;
  if (records_.find(key) == records_.end()) return;  // nothing to tombstone
  append_record(key, nullptr);
}

void SegmentedLogStorage::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  sync_pending();
}

std::vector<std::string> SegmentedLogStorage::keys_with_prefix(
    std::string_view prefix) {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = records_.lower_bound(prefix); it != records_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

std::uint64_t SegmentedLogStorage::footprint_bytes() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, rec] : records_) {
    total += key.size() + rec.value.size();
  }
  return total;
}

std::uint64_t SegmentedLogStorage::disk_bytes() const {
  std::unique_lock<std::mutex> lock(mu_);
  return total_disk_bytes_;
}

}  // namespace abcast
