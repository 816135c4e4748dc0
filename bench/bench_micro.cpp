// Wall-clock microbenchmarks of the hot paths underneath the protocol:
// codec, CRC, storage, scheduler, failure-detector tick, and one full
// simulated round. These are the constants behind every virtual-time
// experiment table.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "consensus/consensus.hpp"
#include "core/app_msg.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "storage/mem_storage.hpp"
#include "storage/segment_log_storage.hpp"

#include <deque>
#include <filesystem>

using namespace abcast;
using namespace abcast::bench;

namespace {

void BM_CodecEncodeBatch(benchmark::State& state) {
  std::vector<core::AppMsg> batch;
  for (int i = 0; i < state.range(0); ++i) {
    batch.push_back({MsgId{0, static_cast<std::uint64_t>(i + 1)},
                     Bytes(128, 'x')});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecEncodeBatch)->Arg(1)->Arg(16)->Arg(256);

void BM_CodecDecodeBatch(benchmark::State& state) {
  std::vector<core::AppMsg> batch;
  for (int i = 0; i < state.range(0); ++i) {
    batch.push_back({MsgId{0, static_cast<std::uint64_t>(i + 1)},
                     Bytes(128, 'x')});
  }
  const Bytes encoded = core::encode_batch(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_batch(encoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecDecodeBatch)->Arg(1)->Arg(16)->Arg(256);

void BM_Crc32(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536);

void BM_MemStoragePut(benchmark::State& state) {
  MemStableStorage storage;
  const Bytes value(256, 'v');
  std::uint64_t i = 0;
  for (auto _ : state) {
    storage.put("cons/prop/" + std::to_string(i++ % 1000), value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemStoragePut);

// The segmented-log backend (DESIGN.md §16): one buffered append per put,
// unsynced here; BM_SegLogPutFsync adds the host's flush barrier per put.
void BM_SegLogPut(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("abcast_bench_sl_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    SegmentedLogConfig cfg;
    cfg.dir = dir;
    cfg.sync = SyncMode::kNone;
    SegmentedLogStorage storage(cfg);
    const Bytes value(256, 'v');
    std::uint64_t i = 0;
    for (auto _ : state) {
      storage.put("cons/prop/" + std::to_string(i++ % 100), value);
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegLogPut);

void BM_SegLogPutFsync(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("abcast_bench_slf_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    SegmentedLogConfig cfg;
    cfg.dir = dir;
    cfg.sync = SyncMode::kDeferred;
    SegmentedLogStorage storage(cfg);
    const Bytes value(256, 'v');
    std::uint64_t i = 0;
    for (auto _ : state) {
      storage.put("cons/prop/" + std::to_string(i++ % 100), value);
      storage.flush();
    }
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegLogPutFsync);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(i, [] {});
    }
    while (s.step()) {
    }
    benchmark::DoNotOptimize(s.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerChurn);

// ---- Consensus engine tick vs decided history ---------------------------

/// A one-process group with a hand-cranked clock, timer and loopback
/// channel: enough to decide instances through an engine's public API and
/// then call its periodic tick in isolation.
class LoopbackEnv final : public Env, public LeaderOracle {
 public:
  ProcessId self() const override { return 0; }
  std::uint32_t group_size() const override { return 1; }
  TimePoint now() const override { return 0; }
  TimerId schedule_after(Duration, std::function<void()> fn) override {
    timer = std::move(fn);  // the engine's only timer is its tick
    return 1;
  }
  void cancel_timer(TimerId) override {}
  void send(ProcessId, const Wire& msg) override { inbox.push_back(msg); }
  StableStorage& storage() override { return storage_; }
  Rng& rng() override { return rng_; }
  bool trusted(ProcessId) const override { return true; }
  ProcessId leader() const override { return 0; }

  void pump(ConsensusService& engine) {
    while (!inbox.empty()) {
      const Wire msg = std::move(inbox.front());
      inbox.pop_front();
      engine.on_message(0, msg);
    }
  }

  std::function<void()> timer;
  std::deque<Wire> inbox;

 private:
  MemStableStorage storage_;
  Rng rng_{1};
};

void BM_EngineTickWithDecidedHistory(benchmark::State& state) {
  // The tick must cost what is still open, not the whole log: under the
  // basic protocol nothing truncates decided instances, so a tick that
  // walks them grows with uptime. Times for 1k and 20k decided instances
  // should match.
  const auto kind = state.range(0) == 0 ? ConsensusKind::kPaxos
                                        : ConsensusKind::kCoord;
  const auto decided = static_cast<InstanceId>(state.range(1));
  LoopbackEnv env;
  auto engine = make_consensus(kind, env, env);
  engine->start(false);
  const Bytes value(64, 0x5a);
  for (InstanceId k = 0; k < decided; ++k) {
    engine->propose(k, value);
    env.pump(*engine);
  }
  if (!engine->decided(decided - 1)) {
    state.SkipWithError("history did not decide");
    return;
  }
  for (auto _ : state) {
    auto tick = std::move(env.timer);
    tick();
    env.inbox.clear();
  }
  state.SetLabel(std::string(to_string(kind)) + " decided=" +
                 std::to_string(decided));
}
BENCHMARK(BM_EngineTickWithDecidedHistory)
    ->Args({0, 1000})
    ->Args({0, 20000})
    ->Args({1, 1000})
    ->Args({1, 20000});

// ---- Observability hot-path overhead (see DESIGN.md "Observability") ----

void BM_MetricsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench_counter", {{"node", "0"}});
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsBoundSlotInc(benchmark::State& state) {
  // The protocol's actual hot path: a plain field increment on a struct the
  // registry holds a read-only binding into. The binding must cost nothing
  // here — it is only read at snapshot time. The slot is a RelaxedU64, so
  // the increment is a relaxed fetch_add.
  obs::MetricsRegistry registry;
  RelaxedU64 slot;
  obs::MetricsGroup group = registry.group();
  group.bind("bench_bound", {{"node", "0"}}, &slot);
  for (auto _ : state) {
    slot += 1;
    benchmark::DoNotOptimize(slot);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsBoundSlotInc);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("bench_hist");
  std::uint64_t v = 0;
  for (auto _ : state) {
    hist.observe(v++ & 0xFFF);
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_TraceRecord(benchmark::State& state) {
  obs::TraceRecorder rec(0, 4096);
  TimePoint t = 0;
  for (auto _ : state) {
    rec.record(obs::EventKind::kDeliver, t++, 1, MsgId{0, 1}, 42);
  }
  benchmark::DoNotOptimize(rec.total_recorded());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecord);

void BM_SimulatedRoundTrip(benchmark::State& state) {
  // One full ordering round (broadcast -> consensus -> delivery at all 3
  // processes), including cluster construction.
  for (auto _ : state) {
    harness::ClusterConfig cfg;
    cfg.sim.n = 3;
    cfg.sim.seed = 1;
    harness::Cluster c(cfg);
    c.start_all();
    const MsgId id = c.broadcast(0);
    c.await_delivery({id});
    benchmark::DoNotOptimize(c.oracle().global_order().size());
  }
}
BENCHMARK(BM_SimulatedRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
