// Real-time demo: the same protocol stacks on actual threads, a real
// clock, and an on-disk segmented log as stable storage — no simulator
// involved.
//
// Three replica threads run a counter RSM over a lossy in-process network;
// one replica is killed mid-run and recovers from its on-disk logs. Run:
// ./rt_demo
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "rt/rt_cluster.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
using namespace abcast::apps;
namespace fs = std::filesystem;

int main() {
  const fs::path dir = fs::temp_directory_path() / "abcast_rt_demo";
  fs::remove_all(dir);

  rt::RtConfig cfg;
  cfg.n = 3;
  cfg.net.drop_prob = 0.05;   // a genuinely lossy loopback network
  cfg.storage_factory = [dir](ProcessId p) {
    // CRC-sealed records appended to a log on disk (no fdatasync, for demo
    // speed).
    return std::make_unique<SegmentedLogStorage>(SegmentedLogConfig{
        dir / ("replica" + std::to_string(p)), SyncMode::kNone});
  };
  rt::RtCluster cluster(cfg);

  core::StackConfig stack_cfg;
  stack_cfg.ab.log_unordered = true;  // submissions survive replica crashes
  stack_cfg.ab.incremental_unordered_log = true;
  cluster.set_node_factory([stack_cfg](Env& env) {
    return std::make_unique<RsmNode>(
        env, stack_cfg, [] { return std::make_unique<KvStore>(); });
  });
  cluster.start_all();

  auto submit_add = [&cluster](ProcessId via, std::int64_t delta) {
    auto& host = cluster.host(via);
    return host.call([&host, delta] {
      static_cast<RsmNode*>(host.node_unsafe())
          ->submit(KvCommand::add("counter", delta));
    });
  };
  auto read_counter = [&cluster](ProcessId at) {
    std::int64_t v = -1;
    auto& host = cluster.host(at);
    host.call([&host, &v] {
      v = static_cast<KvStore&>(
              static_cast<RsmNode*>(host.node_unsafe())->rsm().machine())
              .get_int("counter");
    });
    return v;
  };

  std::printf("submitting 30 increments across the replicas...\n");
  for (int i = 0; i < 30; ++i) {
    // If the chosen replica is down, fail over to the next one — exactly
    // what a client library would do.
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (submit_add(static_cast<ProcessId>((i + attempt) % 3), 1)) break;
    }
    if (i == 14) {
      std::printf("killing replica 2 mid-stream...\n");
      cluster.crash(2);
    }
    if (i == 22) {
      std::printf("replica 2 recovering from its on-disk log...\n");
      cluster.recover(2);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const bool ok = cluster.wait_for(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          if (read_counter(p) != 30) return false;
        }
        return true;
      },
      seconds(60));

  for (ProcessId p = 0; p < 3; ++p) {
    std::printf("replica %u counter = %lld\n", p,
                static_cast<long long>(read_counter(p)));
  }
  std::printf("converged across real threads + disk: %s\n",
              ok ? "yes" : "NO");
  fs::remove_all(dir);
  return ok ? 0 : 1;
}
