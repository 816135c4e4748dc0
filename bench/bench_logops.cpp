// E1 — Minimal logging (paper §4.3, abstract).
//
// Claim: the basic Atomic Broadcast protocol performs ZERO log operations
// beyond those of the Consensus black box — the AB column must be exactly 0.
// Each §5 feature then adds precisely its own documented log operations.
//
// E15 — Batched I/O hot path (DESIGN.md §16). Two wall-clock tables:
// logged-ops/s of the segmented log when one flush() barrier covers a pass
// of P puts (P = 16 must beat P = 1, the each-put cost, by coalescing
// fdatasyncs), and syscalls per delivered message over the real UDP
// transport with sendmmsg/recvmmsg batching off vs on.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "bench_util.hpp"
#include "net/udp_env.hpp"
#include "storage/segment_log_storage.hpp"

using namespace abcast;
using namespace abcast::bench;
using namespace abcast::harness;

namespace {

struct VariantSpec {
  const char* name;
  core::Options options;
};

std::vector<VariantSpec> variants() {
  core::Options ckpt;
  ckpt.checkpointing = true;
  ckpt.checkpoint_period = millis(250);
  core::Options batching;
  batching.log_unordered = true;
  core::Options batching_inc = batching;
  batching_inc.incremental_unordered_log = true;
  return {
      {"basic (Fig.2)", core::Options::basic()},
      {"+ckpt (5.1)", ckpt},
      {"+unordered log (5.4)", batching},
      {"+incremental (5.5)", batching_inc},
      {"alternative (full)", core::Options::alternative()},
  };
}

void run_table() {
  banner("E1: log operations per layer",
         "Claim: basic AB adds 0 log ops beyond Consensus; each extension "
         "adds only its own.");
  Table t({"variant", "n", "msgs", "rounds", "ab ops", "cons ops", "fd ops",
           "ab/msg", "cons/msg", "total/msg"});
  for (const auto& v : variants()) {
    for (const std::uint32_t n : {3u, 5u}) {
      ClusterConfig cfg;
      cfg.sim.n = n;
      cfg.sim.seed = 100 + n;
      cfg.stack.ab = v.options;
      Cluster c(cfg);
      c.start_all();
      const int kMsgs = 200;
      const auto res = run_open_loop(c, kMsgs, 8, millis(20));
      Cluster::LogOps total{};
      for (ProcessId p = 0; p < n; ++p) {
        const auto ops = c.log_ops(p);
        total.ab += ops.ab;
        total.consensus += ops.consensus;
        total.fd += ops.fd;
        total.total += ops.total;
      }
      const double per = static_cast<double>(kMsgs) * n;
      t.row({v.name, std::to_string(n), std::to_string(kMsgs),
             fmt_u64(res.rounds), fmt_u64(total.ab), fmt_u64(total.consensus),
             fmt_u64(total.fd),
             Table::num(static_cast<double>(total.ab) / per, 3),
             Table::num(static_cast<double>(total.consensus) / per, 3),
             Table::num(static_cast<double>(total.total) / per, 3)});
    }
  }
  t.print(std::cout);
  std::printf("\n(ops are summed over all n processes; '/msg' columns are "
              "per delivered message per process)\n");
}

// ---------------------------------------------------------------------------
// E15a — logged-ops throughput of the segmented log (wall clock, real disk).
//
// One thread logs `kOps` sealed 200-byte records in passes of P puts, each
// pass closed by flush() under kDeferred — what a host's end-of-pass
// barrier does. P = 1 pays one fdatasync per put; P = 16 lets one
// fdatasync cover a whole pass.

void run_logged_ops_table() {
  banner("E15a: logged-ops throughput by puts per flush barrier",
         "Claim: one flush() per pass coalesces the pass's fdatasyncs — "
         "16 puts per barrier must beat 1 put per barrier.");
  constexpr int kOps = 256;
  Table t({"puts/flush", "ops", "elapsed ms", "ops/s", "fsyncs"});
  const auto root = std::filesystem::temp_directory_path() /
                    ("abcast_bench_logops_" + std::to_string(::getpid()));
  const Bytes value(200, 'v');
  for (const int pass_puts : {1, 16}) {
    SegmentedLogConfig cfg;
    cfg.dir = root / ("pass-" + std::to_string(pass_puts));
    cfg.sync = SyncMode::kDeferred;
    std::filesystem::remove_all(cfg.dir);
    double elapsed_ms = 0;
    std::uint64_t fsyncs = 0;
    {
      SegmentedLogStorage storage(cfg);
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kOps; ++i) {
        storage.put("cons/prop/" + std::to_string(i % 128), value);
        if ((i + 1) % pass_puts == 0) storage.flush();
      }
      elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      fsyncs = storage.seg_stats().fsyncs;
    }
    const double ops_per_sec =
        elapsed_ms > 0 ? 1e3 * static_cast<double>(kOps) / elapsed_ms : 0;
    t.row({std::to_string(pass_puts), std::to_string(kOps),
           Table::num(elapsed_ms, 1), Table::num(ops_per_sec, 0),
           fmt_u64(fsyncs)});
    Json j;
    j.field("experiment", "logops_throughput")
        .field("pass_puts", pass_puts)
        .field("ops", kOps)
        .field("elapsed_ms", elapsed_ms, 2)
        .field("ops_per_sec", ops_per_sec, 1)
        .field("fsyncs", fsyncs);
    emit_json_row(j);
  }
  std::filesystem::remove_all(root);
  t.print(std::cout);
  std::printf("\n(every record is durable once its pass's flush() returns; "
              "the win is syncs shared across a pass, visible in the fsyncs "
              "column)\n");
}

// ---------------------------------------------------------------------------
// E15b — syscalls per delivered message over the real UDP transport.
//
// A 3-node RSM cluster on localhost sockets orders `kCmds` commands; the
// in-process NetMetrics counters give exact syscall and datagram counts.
// Unbatched, send syscalls == datagrams by construction; with
// sendmmsg/recvmmsg batching each 3-way multisend and each poll wakeup
// coalesces, so the ratio must drop well below 1.

struct UdpBenchCluster {
  UdpBenchCluster(std::uint64_t seed, const net::UdpBatchConfig& batch)
      : applied(3),
        registry(std::make_unique<obs::MetricsRegistry>()),
        hosts(net::make_local_udp_cluster(3, seed, batch, registry.get())) {
    for (auto& a : applied) {
      a = std::make_unique<std::atomic<std::uint64_t>>(0);
    }
    const auto factory = [this](Env& env) -> std::unique_ptr<NodeApp> {
      const ProcessId pid = env.self();
      return std::make_unique<apps::RsmNode>(
          env, core::StackConfig{},
          [] { return std::make_unique<apps::KvStore>(); },
          [this, pid](const core::AppMsg&) { applied[pid]->fetch_add(1); });
    };
    for (auto& h : hosts) h->start_node(factory, /*recovering=*/false);
  }

  // Declaration order: counters and registry outlive the hosts (loop threads
  // increment / stay bound until ~UdpHost joins).
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> applied;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::vector<std::unique_ptr<net::UdpHost>> hosts;
};

void run_udp_syscalls_table() {
  banner("E15b: syscalls per delivered message (real UDP, localhost)",
         "Claim: sendmmsg/recvmmsg batching coalesces the per-datagram "
         "syscall tax without changing ordering behavior.");
  const int kCmds = bench_quick() ? 12 : 48;
  Table t({"batched", "cmds", "send sys", "send dgrams", "sys/dgram",
           "recv sys", "recv dgrams"});
  for (const bool batched : {false, true}) {
    net::UdpBatchConfig batch;
    batch.enabled = batched;
    UdpBenchCluster c(batched ? 11 : 10, batch);
    for (int i = 0; i < kCmds; ++i) {
      auto& h = *c.hosts[static_cast<ProcessId>(i % 3)];
      h.call([&h] {
        static_cast<apps::RsmNode*>(h.node_unsafe())
            ->submit(apps::KvCommand::add("n", 1));
      });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    const auto all_applied = [&c, kCmds] {
      for (ProcessId p = 0; p < 3; ++p) {
        if (c.applied[p]->load() < static_cast<std::uint64_t>(kCmds)) {
          return false;
        }
      }
      return true;
    };
    while (!all_applied() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::uint64_t send_sys = 0, send_dgrams = 0, recv_sys = 0,
                  recv_dgrams = 0;
    for (const auto& h : c.hosts) {
      send_sys += h->net_metrics().send_syscalls.load();
      send_dgrams += h->net_metrics().send_datagrams.load();
      recv_sys += h->net_metrics().recv_syscalls.load();
      recv_dgrams += h->net_metrics().recv_datagrams.load();
    }
    const double ratio =
        send_dgrams > 0
            ? static_cast<double>(send_sys) / static_cast<double>(send_dgrams)
            : 0;
    t.row({batched ? "on" : "off", std::to_string(kCmds), fmt_u64(send_sys),
           fmt_u64(send_dgrams), Table::num(ratio, 3), fmt_u64(recv_sys),
           fmt_u64(recv_dgrams)});
    Json j;
    j.field("experiment", "udp_syscalls")
        .field("batched", batched)
        .field("cmds", kCmds)
        .field("converged", all_applied())
        .field("send_syscalls", send_sys)
        .field("send_datagrams", send_dgrams)
        .field("syscalls_per_datagram", ratio, 4)
        .field("recv_syscalls", recv_sys)
        .field("recv_datagrams", recv_dgrams);
    emit_json_row(j);
  }
  t.print(std::cout);
  std::printf("\n(counters summed over all 3 hosts; unbatched sys/dgram is "
              "1.0 by construction — one sendto per datagram)\n");
}

// Wall-clock cost of the full ordering pipeline per message, for reference.
void BM_EndToEnd200Msgs(benchmark::State& state) {
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.sim.n = 3;
    cfg.sim.seed = 1;
    Cluster c(cfg);
    c.start_all();
    const auto res = run_open_loop(c, 200, 8, millis(20));
    benchmark::DoNotOptimize(res.delivered);
  }
  state.counters["msgs"] = 200;
}
BENCHMARK(BM_EndToEnd200Msgs)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  init_metrics_json(argc, argv);
  run_table();
  run_logged_ops_table();
  run_udp_syscalls_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
