// Acceptance sweep for the adversarial scenario DSL: 100 generated
// scenarios (gray failure, asymmetric partitions, flapping links, clock
// skew, slow disks, crash bursts, crash-point storms — under open-loop
// load, crossing both consensus engines, both protocol variants, and both
// gossip modes), each run to quiescence and audited by the strict offline
// trace checker. The generator is the adversary; the checker is the
// oracle. Every failure message carries the serialized one-line scenario,
// so a red seed reproduces with Scenario::parse on any machine.
#include <gtest/gtest.h>

#include <filesystem>

#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
using namespace abcast::scenario;

namespace {

void run_seed(std::uint64_t seed) {
  const Scenario s = generate_scenario(seed);
  const std::string line = s.serialize();
  const RunResult r = run_scenario(s);
  EXPECT_TRUE(r.ok()) << "SCENARIO-FAIL seed=" << seed << "\n  " << line
                      << "\n  failure: " << r.failure;
  if (!r.ok()) return;
  // The run must have meant something: traffic flowed and was ordered.
  EXPECT_GT(r.load.completed, 0u) << line;
  EXPECT_GT(r.delivered_global, 0u) << line;
  EXPECT_GT(r.check_stats.delivers, 0u) << line;
  EXPECT_FALSE(r.windows.empty()) << line;
}

void run_range(std::uint64_t first_seed, std::uint64_t count) {
  for (std::uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    run_seed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace

// 4 shards x 25 seeds = 100 generated adversarial scenarios, every one
// oracle-checked strictly. The bench sweep (bench_scenarios) runs a
// disjoint seed range, so the project exercises well over 200 distinct
// scenarios per full run.
TEST(ScenarioSweep, Seeds0To24) { run_range(0, 25); }
TEST(ScenarioSweep, Seeds25To49) { run_range(25, 25); }
TEST(ScenarioSweep, Seeds50To74) { run_range(50, 25); }
TEST(ScenarioSweep, Seeds75To99) { run_range(75, 25); }

// One cell of the sweep runs a disk-fault-heavy schedule against the
// segmented log (DESIGN.md §16) as the real on-disk backend —
// FaultyStorage decorating SegmentedLogStorage instead of the in-memory
// default. The backend swap must be invisible: the run passes the strict
// oracle AND replays to the exact global delivery order of the in-memory
// run, because a StableStorage implementation may differ only in
// durability mechanics, never in observable contents.
TEST(ScenarioSweep, DiskFaultCellOnSegmentedLogMatchesMemBackend) {
  constexpr const char* kDiskLine =
      "scn1 seed=4242 n=3 horizon=800ms engine=paxos variant=alt "
      "gossip=digest "
      "load(at=10ms,for=700ms,gap=4ms,clients=64,bytes=24) "
      "storm(at=150ms,node=0,ops=4,phase=torn,times=2,gap=120ms) "
      "disk(at=300ms,for=300ms,node=1,min=80us,max=900us,stallp=0.02,"
      "stall=15ms)";
  std::string error;
  const auto s = Scenario::parse(kDiskLine, &error);
  ASSERT_TRUE(s.has_value()) << error;

  const RunResult mem = run_scenario(*s);
  ASSERT_TRUE(mem.ok()) << kDiskLine << " : " << mem.failure;

  const auto root = std::filesystem::temp_directory_path() /
                    ("abcast_scn_seglog_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root);
  RunOptions opts;
  opts.storage_factory = [&root](ProcessId pid) {
    SegmentedLogConfig cfg;
    cfg.dir = root / ("node-" + std::to_string(pid));
    // The simulator's crashes keep the storage object (and its in-memory
    // map) alive, so the sweep cell skips fsyncs for speed; the reopen
    // path has its own crash-point sweep in seglog_storage_test.
    cfg.sync = SyncMode::kNone;
    return std::make_unique<SegmentedLogStorage>(cfg);
  };
  const RunResult seg = run_scenario(*s, opts);
  EXPECT_TRUE(seg.ok()) << kDiskLine << " : " << seg.failure;
  EXPECT_EQ(seg.order_digest, mem.order_digest);
  EXPECT_EQ(seg.delivered_global, mem.delivered_global);
  EXPECT_EQ(seg.events_fired, mem.events_fired);

  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}
