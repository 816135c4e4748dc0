// Tests for the real-time threaded runtime: the same stacks ordering
// messages over threads and the steady clock, crash/recovery semantics,
// and file-backed durability.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "obs/trace_check.hpp"
#include "rt/rt_cluster.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
using namespace abcast::apps;
namespace fs = std::filesystem;

namespace {

struct RtKv {
  explicit RtKv(rt::RtConfig cfg, core::StackConfig stack = {})
      : applied(cfg.n), cluster(cfg) {
    for (auto& a : applied) a = std::make_unique<std::atomic<std::uint64_t>>(0);
    cluster.set_node_factory([this, stack](Env& env) {
      const ProcessId pid = env.self();
      // Count applies per host position; the counter survives crashes.
      return std::make_unique<RsmNode>(
          env, stack, [] { return std::make_unique<KvStore>(); },
          [this, pid](const core::AppMsg&) { applied[pid]->fetch_add(1); });
    });
  }

  /// Runs `fn(node)` on p's host thread; false if p is down.
  bool with_node(ProcessId p, const std::function<void(RsmNode&)>& fn) {
    auto& h = cluster.host(p);
    return h.call([&h, &fn] {
      fn(*static_cast<RsmNode*>(h.node_unsafe()));
    });
  }

  std::int64_t read_int(ProcessId p, const std::string& key) {
    std::int64_t out = -1;
    with_node(p, [&](RsmNode& n) {
      out = static_cast<KvStore&>(n.rsm().machine()).get_int(key);
    });
    return out;
  }

  // `applied` outlives `cluster`: host threads increment the counters via
  // the apply callback until ~RtCluster joins them.
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> applied;
  rt::RtCluster cluster;
};

}  // namespace

TEST(Rt, OrdersCommandsAcrossThreads) {
  RtKv c(rt::RtConfig{.n = 3, .seed = 1});
  c.cluster.start_all();
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(c.with_node(static_cast<ProcessId>(i % 3), [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.applied[p]->load() < 15) return false;
        }
        return true;
      },
      seconds(30)));
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(c.read_int(p, "n"), 15);
}

TEST(Rt, ToleratesLossyNetwork) {
  rt::RtConfig cfg{.n = 3, .seed = 2};
  cfg.net.drop_prob = 0.2;
  cfg.net.dup_prob = 0.1;
  RtKv c(cfg);
  c.cluster.start_all();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.with_node(0, [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.applied[2]->load() >= 10; }, seconds(60)));
  EXPECT_EQ(c.read_int(2, "n"), 10);
}

TEST(Rt, CrashRecoveryRebuildsReplica) {
  core::StackConfig stack;
  stack.ab.log_unordered = true;
  stack.ab.incremental_unordered_log = true;
  RtKv c(rt::RtConfig{.n = 3, .seed = 3}, stack);
  c.cluster.start_all();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.with_node(0, [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.applied[2]->load() >= 10; }, seconds(30)));
  c.cluster.crash(2);
  EXPECT_FALSE(c.cluster.host(2).is_up());
  EXPECT_FALSE(c.with_node(2, [](RsmNode&) {}));  // call() refuses when down
  c.cluster.recover(2);
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.read_int(2, "n") == 10; }, seconds(30)));
}

// The offline checker audits real threaded runs where the in-process
// oracle cannot see: enable per-host trace rings, run through a
// crash/recovery, and verify the merged trace upholds the AB properties.
TEST(Rt, TraceRecorderAuditsThreadedRun) {
  rt::RtConfig cfg{.n = 3, .seed = 7};
  cfg.trace_capacity = 1 << 14;
  core::StackConfig stack;
  stack.ab.log_unordered = true;
  RtKv c(cfg, stack);
  c.cluster.start_all();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c.with_node(static_cast<ProcessId>(i % 3), [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.applied[0]->load() >= 10; }, seconds(30)));
  c.cluster.crash(1);
  c.cluster.recover(1);
  ASSERT_TRUE(c.cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (c.read_int(p, "n") != 10) return false;
        }
        return true;
      },
      seconds(60)));

  std::vector<obs::TraceEvent> merged;
  for (ProcessId p = 0; p < 3; ++p) {
    auto* rec = c.cluster.host(p).recorder();
    ASSERT_NE(rec, nullptr);
    auto events = rec->events();
    EXPECT_FALSE(events.empty()) << "node " << p << " recorded nothing";
    merged.insert(merged.end(), events.begin(), events.end());
  }
  // The run may still have stragglers in flight, so keep the lax
  // (non-quiesced) Validity/Termination semantics.
  const auto report = obs::check_trace(merged);
  for (const auto& v : report.violations) ADD_FAILURE() << obs::to_string(v);
  EXPECT_EQ(report.stats.nodes, 3u);
  EXPECT_GT(report.stats.delivers, 0u);
  EXPECT_GT(report.stats.log_writes, 0u);  // log_unordered => ab/ writes
}

TEST(Rt, DurableUnorderedSurvivesBroadcasterCrash) {
  core::StackConfig stack;
  stack.ab.log_unordered = true;
  RtKv c(rt::RtConfig{.n = 3, .seed = 4}, stack);
  c.cluster.start_all();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.with_node(2, [](RsmNode& n) {
      n.submit(KvCommand::add("n", 1));
    }));
  }
  c.cluster.crash(2);  // possibly before ordering completed
  c.cluster.recover(2);
  ASSERT_TRUE(c.cluster.wait_for(
      [&] { return c.read_int(0, "n") == 5; }, seconds(60)));
}

TEST(Rt, FileBackedStorageSurvives) {
  const fs::path dir =
      fs::temp_directory_path() / ("abcast_rt_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    rt::RtConfig cfg{.n = 3, .seed = 5};
    cfg.storage_factory = [dir](ProcessId p) {
      return std::make_unique<SegmentedLogStorage>(SegmentedLogConfig{
          dir / ("node" + std::to_string(p)), SyncMode::kNone});
    };
    core::StackConfig stack;
    stack.ab.log_unordered = true;
    stack.ab.incremental_unordered_log = true;
    RtKv c(cfg, stack);
    c.cluster.start_all();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(c.with_node(0, [](RsmNode& n) {
        n.submit(KvCommand::add("n", 1));
      }));
    }
    ASSERT_TRUE(c.cluster.wait_for(
        [&] { return c.read_int(1, "n") == 8; }, seconds(30)));
    c.cluster.crash(1);
    c.cluster.recover(1);
    ASSERT_TRUE(c.cluster.wait_for(
        [&] { return c.read_int(1, "n") == 8; }, seconds(30)));
  }
  // The consensus log is actually on disk.
  EXPECT_FALSE(fs::is_empty(dir / "node0"));
  fs::remove_all(dir);
}

TEST(Rt, TimersFireAndCancel) {
  rt::RtCluster cluster(rt::RtConfig{.n = 1, .seed = 6});
  std::atomic<int> fired{0};
  struct TimerNode final : NodeApp {
    TimerNode(Env& env, std::atomic<int>& counter)
        : env_(env), counter_(counter) {}
    void start(bool) override {
      env_.schedule_after(millis(10), [this] { counter_ += 1; });
      const TimerId id =
          env_.schedule_after(millis(10), [this] { counter_ += 100; });
      env_.cancel_timer(id);
    }
    void on_message(ProcessId, const Wire&) override {}
    Env& env_;
    std::atomic<int>& counter_;
  };
  cluster.set_node_factory([&fired](Env& env) {
    return std::make_unique<TimerNode>(env, fired);
  });
  cluster.start_all();
  ASSERT_TRUE(cluster.wait_for([&] { return fired.load() >= 1; }, seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 1);
}
