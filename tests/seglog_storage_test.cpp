// Segmented-log backend (DESIGN.md §16): round-trip + reopen recovery,
// hostile keys, torn-tail truncation, segment roll, compaction, the flush
// barrier (alone and under concurrent loggers), and the crash-point sweep
// pinning recovery byte-identical to an in-memory reference.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "storage/faulty_storage.hpp"
#include "storage/mem_storage.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
namespace fs = std::filesystem;

namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("abcast_seglog_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

SegmentedLogConfig cfg_at(const fs::path& dir,
                          SyncMode sync = SyncMode::kDeferred) {
  SegmentedLogConfig cfg;
  cfg.dir = dir;
  cfg.sync = sync;
  return cfg;
}

/// Every key/value pair a backend holds, for whole-store comparison.
std::map<std::string, Bytes> dump(StableStorage& s) {
  std::map<std::string, Bytes> out;
  for (const auto& k : s.keys_with_prefix("")) {
    if (auto v = s.get(k)) out.emplace(k, *v);
  }
  return out;
}

}  // namespace

TEST(SegLog, PutGetEraseRoundTrip) {
  TempDir dir;
  SegmentedLogStorage s(cfg_at(dir.path()));
  EXPECT_FALSE(s.get("k").has_value());
  s.put("k", bytes_of("v1"));
  EXPECT_EQ(s.get("k"), bytes_of("v1"));
  s.put("k", bytes_of("v2"));  // overwrite
  EXPECT_EQ(s.get("k"), bytes_of("v2"));
  s.erase("k");
  EXPECT_FALSE(s.get("k").has_value());
  EXPECT_EQ(s.stats().put_ops, 2u);
  EXPECT_EQ(s.stats().erase_ops, 1u);
}

TEST(SegLog, PrefixEnumerationIsSortedAndScoped) {
  TempDir dir;
  SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kNone));
  s.put("cons/prop/2", {});
  s.put("cons/prop/1", {});
  s.put("ab/agreed/1", {});
  const auto keys = s.keys_with_prefix("cons/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "cons/prop/1");
  EXPECT_EQ(keys[1], "cons/prop/2");
  EXPECT_TRUE(s.keys_with_prefix("fd/").empty());
}

TEST(SegLog, ReopenRecoversPutsOverwritesAndErases) {
  TempDir dir;
  std::map<std::string, Bytes> expect;
  {
    SegmentedLogStorage s(cfg_at(dir.path()));
    for (int i = 0; i < 50; ++i) {
      const std::string k = "key/" + std::to_string(i % 17);
      const Bytes v = bytes_of("value-" + std::to_string(i));
      s.put(k, v);
      expect[k] = v;
    }
    s.erase("key/3");
    expect.erase("key/3");
    s.erase("missing");  // erase-of-absent must not log a tombstone
  }
  SegmentedLogStorage reopened(cfg_at(dir.path()));
  EXPECT_EQ(dump(reopened), expect);
  EXPECT_GT(reopened.seg_stats().recovered_records, 0u);
  EXPECT_EQ(reopened.seg_stats().torn_tail_records, 0u);
}

TEST(SegLog, TornTailIsTruncatedAndRecoveryContinues) {
  TempDir dir;
  {
    SegmentedLogStorage s(cfg_at(dir.path()));
    s.put("a", bytes_of("alpha"));
    s.put("b", bytes_of("beta"));
  }
  // Simulate a torn append: garbage after the last complete record of the
  // most recent segment.
  fs::path last;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    if (last.empty() || e.path().filename() > last.filename()) {
      last = e.path();
    }
  }
  ASSERT_FALSE(last.empty());
  {
    std::ofstream f(last, std::ios::binary | std::ios::app);
    const char garbage[] = "\x40\x00\x00\x00partial-record-that-never-finis";
    f.write(garbage, sizeof garbage - 1);
  }
  {
    SegmentedLogStorage s(cfg_at(dir.path()));
    EXPECT_EQ(s.get("a"), bytes_of("alpha"));
    EXPECT_EQ(s.get("b"), bytes_of("beta"));
    EXPECT_EQ(s.seg_stats().torn_tail_records, 1u);
    s.put("c", bytes_of("gamma"));  // keep appending after the repair
  }
  SegmentedLogStorage again(cfg_at(dir.path()));
  EXPECT_EQ(again.seg_stats().torn_tail_records, 0u);  // tail was truncated
  EXPECT_EQ(again.get("a"), bytes_of("alpha"));
  EXPECT_EQ(again.get("c"), bytes_of("gamma"));
}

TEST(SegLog, SegmentRollSpreadsRecordsAcrossFiles) {
  TempDir dir;
  auto cfg = cfg_at(dir.path());
  cfg.segment_bytes = 512;  // force frequent rolls
  cfg.compact_min_bytes = 1 << 30;  // keep compaction out of this test
  std::map<std::string, Bytes> expect;
  {
    SegmentedLogStorage s(cfg);
    for (int i = 0; i < 40; ++i) {
      const std::string k = "k/" + std::to_string(i);
      const Bytes v = bytes_of(std::string(64, 'x'));
      s.put(k, v);
      expect[k] = v;
    }
    EXPECT_GT(s.seg_stats().segments_created, 3u);
  }
  SegmentedLogStorage reopened(cfg);
  EXPECT_EQ(dump(reopened), expect);
}

TEST(SegLog, CompactionReclaimsDeadBytesAndSurvivesReopen) {
  TempDir dir;
  auto cfg = cfg_at(dir.path());
  cfg.segment_bytes = 4096;
  cfg.compact_min_bytes = 2048;
  cfg.compact_dead_ratio = 0.5;
  {
    SegmentedLogStorage s(cfg);
    // Hammer a handful of keys: almost everything on disk is dead bytes.
    for (int i = 0; i < 400; ++i) {
      s.put("hot/" + std::to_string(i % 4),
            bytes_of("payload-" + std::to_string(i)));
    }
    EXPECT_GT(s.seg_stats().compactions, 0u);
    // Compaction bounds the log near the live set, far below the ~400
    // records appended.
    EXPECT_LT(s.disk_bytes(), 8u * 1024u);
    EXPECT_EQ(s.get("hot/3"), bytes_of("payload-399"));
  }
  SegmentedLogStorage reopened(cfg);
  ASSERT_EQ(reopened.keys_with_prefix("hot/").size(), 4u);
  EXPECT_EQ(reopened.get("hot/0"), bytes_of("payload-396"));
  EXPECT_EQ(reopened.get("hot/3"), bytes_of("payload-399"));
}

TEST(SegLog, HostileKeysAndEmptyValuesSurviveReopen) {
  TempDir dir;
  const std::string slashed = "a/b c%d\xE2\x82\xAC!";
  const std::string nul_key("a/nul\0tail", 10);
  const std::string nul_prefix("a/nul", 5);  // a real prefix of nul_key
  {
    SegmentedLogStorage s(cfg_at(dir.path()));
    s.put(slashed, bytes_of("v"));
    s.put(nul_key, {});  // empty value, distinct from absent
    s.put(nul_prefix, bytes_of("short"));
    s.flush();
  }
  SegmentedLogStorage reopened(cfg_at(dir.path()));
  EXPECT_EQ(reopened.get(slashed), bytes_of("v"));
  ASSERT_TRUE(reopened.get(nul_key).has_value());
  EXPECT_TRUE(reopened.get(nul_key)->empty());
  EXPECT_EQ(reopened.get(nul_prefix), bytes_of("short"));
  const std::vector<std::string> expect_keys{slashed, nul_prefix, nul_key};
  EXPECT_EQ(reopened.keys_with_prefix("a/"), expect_keys);
  EXPECT_EQ(reopened.keys_with_prefix(nul_key),
            std::vector<std::string>{nul_key});
  EXPECT_EQ(reopened.footprint_bytes(),
            slashed.size() + 1 + nul_key.size() + nul_prefix.size() + 5);
}

TEST(SegLog, ConcurrentPutsShareOneFlush) {
  TempDir dir;
  constexpr int kThreads = 4;
  constexpr int kPutsEach = 50;
  {
    SegmentedLogStorage s(cfg_at(dir.path()));
    std::vector<std::thread> loggers;
    for (int t = 0; t < kThreads; ++t) {
      loggers.emplace_back([&s, t] {
        for (int i = 0; i < kPutsEach; ++i) {
          s.put("p" + std::to_string(t) + "/" + std::to_string(i),
                bytes_of("proposal"));
        }
      });
    }
    for (auto& th : loggers) th.join();
    s.flush();
    const auto& st = s.seg_stats();
    EXPECT_EQ(st.appends, static_cast<std::uint64_t>(kThreads * kPutsEach));
    // One barrier covers every logger's records: one fdatasync in all.
    EXPECT_EQ(st.fsyncs, 1u);
    EXPECT_EQ(st.group_commits, st.appends - 1);
  }
  SegmentedLogStorage reopened(cfg_at(dir.path()));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reopened.keys_with_prefix("p" + std::to_string(t) + "/").size(),
              static_cast<std::size_t>(kPutsEach));
  }
}

TEST(SegLog, DeferredModeSyncsOnlyAtFlush) {
  TempDir dir;
  SegmentedLogStorage s(cfg_at(dir.path(), SyncMode::kDeferred));
  for (int i = 0; i < 10; ++i) {
    s.put("k" + std::to_string(i), bytes_of("v"));
  }
  EXPECT_EQ(s.seg_stats().fsyncs, 0u);  // puts never sync
  s.flush();
  const auto after_first = s.seg_stats().fsyncs;
  EXPECT_GE(after_first, 1u);
  // 10 records rode that one barrier: 9 shared a sync they did not issue.
  EXPECT_EQ(s.seg_stats().group_commits, 9u);
  s.flush();  // nothing dirty: no extra syscall
  EXPECT_EQ(s.seg_stats().fsyncs, after_first);
}

// The oracle sweep: the same op sequence, the same seeded FaultyStorage
// decorator, the same armed crash-point — run over the segmented log and
// over an in-memory reference. Both must crash at the same op, and after
// the segmented log reopens from disk alone it must hold a record map
// byte-identical to the reference's. Each op is followed by the host's
// flush barrier. 100 seeds × 3 crash phases exercises before-op,
// torn-write, and after-op windows across puts, overwrites, and erases.
TEST(SegLog, CrashPointSweepRecoversIdenticallyToMemReference) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    TempDir seg_dir;
    // Script the op sequence up front (so both backends replay it
    // identically) from a generator the fault RNG never touches.
    Rng script(seed * 2654435761ull + 17);
    const int total_ops = static_cast<int>(script.uniform(8, 40));
    const int crash_at = static_cast<int>(script.uniform(1, total_ops));
    const auto phase = static_cast<CrashPhase>(seed % 3);

    struct Op {
      bool is_erase;
      std::string key;
      Bytes value;
    };
    std::vector<Op> ops;
    for (int i = 0; i < total_ops; ++i) {
      Op op;
      op.is_erase = script.chance(0.2);
      op.key = "k/" + std::to_string(script.uniform(0, 9));
      if (!op.is_erase) {
        op.value = bytes_of("v-" + std::to_string(script.uniform(0, 1000)) +
                            std::string(script.uniform(0, 64), 'z'));
      }
      ops.push_back(std::move(op));
    }

    FaultyStorage mem(std::make_unique<MemStableStorage>(),
                      Rng(seed + 1));  // same fault stream: identical tears
    {
      FaultyStorage seg(
          std::make_unique<SegmentedLogStorage>(cfg_at(seg_dir.path())),
          Rng(seed + 1));
      seg.arm_crash_at_op(static_cast<std::uint64_t>(crash_at), phase);
      mem.arm_crash_at_op(static_cast<std::uint64_t>(crash_at), phase);

      const auto apply = [](FaultyStorage& s, const Op& op) {
        try {
          if (op.is_erase) {
            s.erase(op.key);
          } else {
            s.put(op.key, op.value);
          }
          s.flush();
        } catch (const SimulatedCrash&) {
          return true;
        }
        return false;
      };
      for (const auto& op : ops) {
        const bool seg_crashed = apply(seg, op);
        const bool mem_crashed = apply(mem, op);
        ASSERT_EQ(seg_crashed, mem_crashed) << "seed " << seed;
        if (seg_crashed) break;
      }
    }

    // "Recover": reopen the segmented log from its on-disk state alone.
    SegmentedLogStorage seg(cfg_at(seg_dir.path()));
    ASSERT_EQ(dump(seg), dump(mem.inner()))
        << "recovery divergence at seed " << seed << " phase "
        << static_cast<int>(phase) << " crash_at " << crash_at;
  }
}

// ScopedStorage/FaultyStorage/TracingStorage forward the flush barrier all
// the way down to the backend (the soundness chain of DESIGN.md §16).
TEST(SegLog, FlushForwardsThroughDecoratorChain) {
  TempDir dir;
  FaultyStorage faulty(std::make_unique<SegmentedLogStorage>(
                           cfg_at(dir.path(), SyncMode::kDeferred)),
                       Rng(7));
  auto* seg = static_cast<SegmentedLogStorage*>(&faulty.inner());
  faulty.put("x", bytes_of("y"));
  EXPECT_EQ(seg->seg_stats().fsyncs, 0u);
  const auto ops_before = faulty.op_count();
  faulty.flush();
  EXPECT_EQ(seg->seg_stats().fsyncs, 1u);
  // flush is a barrier, not a log op: the crash-point clock must not tick.
  EXPECT_EQ(faulty.op_count(), ops_before);
}
