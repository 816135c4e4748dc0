// Segmented-log stable storage: the one durable backend (DESIGN.md §16).
//
// Every put/erase appends one checksummed sealed record to the current
// segment of an append-only log; durability is a *sync point* shared by
// every record appended since the previous one:
//
//   * SyncMode::kDeferred — put/erase never sync; flush() issues one
//                           fdatasync covering every record appended since
//                           the last sync. Hosts call flush() at their I/O
//                           barrier (the HostLoop end-of-pass barrier before
//                           any datagram leaves, and AtomicBroadcast after a
//                           §5.4 broadcast is logged), so one fdatasync
//                           covers every record the pass appended
//                           (proposal, acceptor, decision and unordered
//                           records alike) — the paper only needs a record
//                           stable before the process acts on it (§3.2).
//   * SyncMode::kNone     — never sync (benchmarks, simulator backends).
//
// The full record map is also kept in memory (like MemStableStorage), so
// get/keys_with_prefix never touch the disk; the log exists purely for
// crash durability. Recovery scans the segments in id order, replaying
// put/erase records and stopping a segment's scan at the first record whose
// CRC-32 seal fails — a torn tail is truncated away (the sealed-record
// discipline: a damaged record reads as if the operation never completed).
// Overwrites and tombstones leave dead bytes behind; when the dead ratio
// crosses the configured threshold, compaction rewrites the live map into a
// fresh segment and unlinks the old ones (crash-safe: old segments are
// removed only after the replacement is durable, and replaying both is
// idempotent because later segments win).
//
// Thread safety: every method takes one internal mutex, so calls from
// different threads serialize; the backend starts no thread of its own.
// stats() and seg_stats() read unlocked — read them while nothing logs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>

#include "env/stable_storage.hpp"

namespace abcast {

enum class SyncMode : std::uint8_t {
  kNone,      // never sync (benchmarks, sim backends)
  kDeferred,  // sync only at flush(); host must order flush before sends
};

struct SegmentedLogConfig {
  std::filesystem::path dir;
  SyncMode sync = SyncMode::kDeferred;
  /// Roll to a new segment once the current one exceeds this many bytes.
  std::uint64_t segment_bytes = 8ull << 20;
  /// Compact when dead bytes exceed this fraction of the on-disk log...
  double compact_dead_ratio = 0.5;
  /// ...but never below this absolute size (tiny logs aren't worth it).
  std::uint64_t compact_min_bytes = 256 * 1024;
};

struct SegLogStats {
  std::uint64_t appends = 0;        // records written (puts + tombstones)
  std::uint64_t bytes_appended = 0; // framed record bytes, incl. compaction
  std::uint64_t fsyncs = 0;         // fdatasync calls, all causes
  std::uint64_t group_commits = 0;  // records a sync covered beyond its first
  std::uint64_t segments_created = 0;
  std::uint64_t compactions = 0;
  std::uint64_t recovered_records = 0;  // valid records replayed at open
  std::uint64_t torn_tail_records = 0;  // truncated at open (torn tail)
};

class SegmentedLogStorage final : public StableStorage {
 public:
  /// Opens (creating if needed) the log rooted at `cfg.dir` and replays the
  /// existing segments. Throws StorageIoError when the directory or a
  /// segment cannot be opened.
  explicit SegmentedLogStorage(SegmentedLogConfig cfg);
  ~SegmentedLogStorage() override;

  // ---- StableStorage -----------------------------------------------------
  void put(std::string_view key, const Bytes& value) override;
  std::optional<Bytes> get(std::string_view key) override;
  void erase(std::string_view key) override;
  void flush() override;
  std::vector<std::string> keys_with_prefix(std::string_view prefix) override;
  std::uint64_t footprint_bytes() override;
  const StorageStats& stats() const override { return stats_; }

  const SegLogStats& seg_stats() const { return seg_stats_; }
  const std::filesystem::path& root() const { return cfg_.dir; }
  /// On-disk bytes across all live segments (dead records included until
  /// compaction reclaims them).
  std::uint64_t disk_bytes() const;

 private:
  struct Rec {
    Bytes value;
    std::uint64_t disk_size = 0;  // framed record size in the log
  };

  // All private helpers assume mu_ is held.
  void open_fresh_segment();
  void append_record(std::string_view key, const Bytes* value);
  Bytes frame_record(std::string_view key, const Bytes* value) const;
  void write_all(int fd, const Bytes& data, const char* what);
  void sync_fd(int fd, const char* what);
  /// Makes every record appended since the last sync durable (one
  /// fdatasync of the current segment; a no-op under kNone).
  void sync_pending();
  void maybe_compact();
  void compact();
  void replay_segments();
  /// Replays one segment file into the map; returns the byte offset of the
  /// first damaged record (== file size when the whole segment is clean).
  std::uint64_t replay_one(const std::filesystem::path& path);
  void sync_dir();

  SegmentedLogConfig cfg_;
  StorageStats stats_;
  SegLogStats seg_stats_;

  mutable std::mutex mu_;
  std::map<std::string, Rec, std::less<>> records_;
  std::uint64_t live_disk_bytes_ = 0;   // framed size of live put records
  std::uint64_t total_disk_bytes_ = 0;  // framed size of everything on disk
  std::uint64_t next_segment_ = 0;
  std::uint64_t current_segment_bytes_ = 0;
  int fd_ = -1;
  std::uint64_t unsynced_records_ = 0;  // appended to fd_ since the last sync
};

}  // namespace abcast
