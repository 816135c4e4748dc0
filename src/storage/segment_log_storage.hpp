// Group-commit segmented-log stable storage (ROADMAP item 3, DESIGN.md §16).
//
// FileStableStorage pays one tmp-file + fsync + rename + dir-fsync per log
// operation. This backend replaces the file-per-record layout with an
// append-only segmented log: every put/erase appends one checksummed sealed
// record to the current segment, and durability is a *sync point* that can
// be shared by many records:
//
//   * SyncMode::kEachPut   — fdatasync inside every put (the paper's "log
//                            completes before returning", one sync per op);
//   * SyncMode::kGroupCommit — put blocks until a background flusher has
//                            synced past its record; while one fdatasync is
//                            in flight every concurrent put appends and
//                            queues, so the NEXT sync covers them all (one
//                            fdatasync across N concurrent proposers);
//   * SyncMode::kDeferred  — put never syncs; the host calls flush() at its
//                            I/O barrier (before releasing outbound
//                            datagrams / completing an A-broadcast), which
//                            coalesces one fdatasync across every record the
//                            event-loop pass appended (proposal,
//                            acceptor and decision records alike);
//   * SyncMode::kNone      — no syncing (benchmarks, simulator backends).
//
// The full record map is also kept in memory (like MemStableStorage), so
// get/keys_with_prefix never touch the disk; the log exists purely for
// crash durability. Recovery scans the segments in id order, replaying
// put/erase records and stopping a segment's scan at the first record whose
// CRC-32 seal fails — a torn tail is truncated away (PR 1's sealed-record
// discipline: a damaged record reads as if the operation never completed).
// Overwrites and tombstones leave dead bytes behind; when the dead ratio
// crosses the configured threshold, compaction rewrites the live map into a
// fresh segment and unlinks the old ones (crash-safe: old segments are
// removed only after the replacement is durable, and replaying both is
// idempotent because later segments win).
//
// Thread safety: unlike the other backends, every method is internally
// locked — kGroupCommit exists precisely so multiple proposer threads can
// log concurrently and share sync points.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "env/stable_storage.hpp"

namespace abcast {

enum class SyncMode : std::uint8_t {
  kNone,         // never sync (benchmarks, sim backends)
  kEachPut,      // fdatasync inside every put/erase
  kGroupCommit,  // background flusher; put blocks until durable, syncs coalesce
  kDeferred,     // sync only at flush(); host must order flush before sends
};

struct SegmentedLogConfig {
  std::filesystem::path dir;
  SyncMode sync = SyncMode::kEachPut;
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
  std::uint64_t group_commits = 0;  // puts whose durability rode a shared sync
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
  void maybe_compact();
  void compact();
  void replay_segments();
  /// Replays one segment file into the map; returns the byte offset of the
  /// first damaged record (== file size when the whole segment is clean).
  std::uint64_t replay_one(const std::filesystem::path& path);
  void sync_dir();

  /// Blocks until the flusher has synced past `seq` (kGroupCommit).
  void await_durable(std::uint64_t seq, std::unique_lock<std::mutex>& lock);
  void flusher_loop();

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
  bool dirty_ = false;  // unsynced appends on fd_ (kDeferred bookkeeping)

  // Group-commit plumbing. appended_seq_ counts records; durable_seq_ is
  // the highest record the flusher has synced past. The roll/compaction
  // paths sync the outgoing fd before switching, so the flusher only ever
  // needs to sync the current one.
  std::uint64_t appended_seq_ = 0;
  std::uint64_t durable_seq_ = 0;
  bool stop_ = false;
  std::condition_variable flusher_cv_;  // work for the flusher
  std::condition_variable commit_cv_;   // durable_seq_ advanced
  std::thread flusher_;
};

}  // namespace abcast
