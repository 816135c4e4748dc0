// Wall-clock benchmark of the full stack over real UDP.
//
// Three UdpHost replicas on loopback, in this process, each running
// apps::RsmNode over KvStore with the Paxos engine, batched UDP, digest
// gossip and a 512-message proposal cap. The main thread is the only load
// generator; it submits through UdpHost::call. See README.md for the
// workloads, the metrics and how each layer metric maps to an end-to-end
// one.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Lines
// before it are the per-run report.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "common/crc32.hpp"
#include "decorators.hpp"
#include "net/udp_env.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "storage/segment_log_storage.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using abcast::Bytes;
using abcast::apps::KvStore;
using abcast::apps::RsmNode;
using abcast::net::UdpHost;

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSec = 1'000'000'000;

// ---- workloads --------------------------------------------------------------

struct Spec {
  std::string name;
  double rate = 0;               // Poisson arrivals/s over all targets
  std::vector<std::uint32_t> targets{0, 1, 2};
  bool alternative = false;      // Options::alternative() (Figs. 3–5)
  bool durable = false;          // SegmentedLogStorage (see make_storage)
  bool crashes = false;          // replica 0 crashes and recovers
};

std::optional<Spec> spec_of(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "steady-open") {
    s.rate = 5000;
  } else if (name == "crash-cycle") {
    s.rate = 3000;
    s.targets = {1, 2};
    s.alternative = true;
    s.durable = true;
    s.crashes = true;
  } else {
    return std::nullopt;
  }
  return s;
}

abcast::core::StackConfig stack_config(const Spec& spec) {
  abcast::core::StackConfig c;
  c.ab = spec.alternative ? abcast::core::Options::alternative()
                          : abcast::core::Options::basic();
  // Default Options stall under backlog (oversized proposal datagrams);
  // every workload runs digest gossip and a bounded proposal.
  c.ab.digest_gossip = true;
  c.ab.max_proposal_msgs = 512;
  return c;
}

// Crash schedule: cycles of kCycle; replica 0 crashes kCrashAt into a cycle
// and restarts kDownFor later.
constexpr std::int64_t kCycle = 2500 * kMs;
constexpr std::int64_t kCrashAt = 500 * kMs;
constexpr std::int64_t kDownFor = 1000 * kMs;
constexpr std::int64_t kWarmup = 1000 * kMs;
constexpr std::int64_t kDrainDeadline = 20 * kSec;
constexpr std::uint32_t kSetupSamples = 5;
constexpr std::uint32_t kRounds = 5;

std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * kSec + ts.tv_nsec;
}

/// Heap the process has allocated and not freed (MiB), over every malloc
/// arena. Unlike resident memory it does not count the arenas' free space,
/// whose size depends on how the four threads' allocations interleave.
double heap_mb() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Machine-wide CPU time counters (user, system, idle, steal, ...) in
/// ticks, read from /proc/stat; the report gives the share the hypervisor
/// took from this machine's CPUs during the run.
std::vector<std::uint64_t> machine_cpu_ticks() {
  std::vector<std::uint64_t> t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char name[16] = {};
  if (std::fscanf(f, "%15s", name) == 1) {
    unsigned long long v = 0;
    while (std::fscanf(f, "%llu", &v) == 1) t.push_back(v);
  }
  std::fclose(f);
  return t;
}

double steal_pct(const std::vector<std::uint64_t>& a,
                 const std::vector<std::uint64_t>& b) {
  constexpr std::size_t kSteal = 7;  // user nice system idle iowait irq softirq steal
  if (a.size() <= kSteal || b.size() != a.size()) return 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < a.size() && i < 8; ++i) total += b[i] - a[i];
  return total > 0 ? 100.0 * static_cast<double>(b[kSteal] - a[kSteal]) /
                         static_cast<double>(total)
                   : 0;
}

/// The process's peak resident memory so far (MiB), as the kernel counts it.
double max_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB → MiB
}

void sleep_ns(std::int64_t ns) {
  if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

// ---- cluster ----------------------------------------------------------------

/// Per-replica state outside the crash boundary: what the apply callback
/// saw, and the traced run's recorder.
struct ReplicaRun {
  std::vector<Delivery> log;              // loop thread while hosts run
  std::atomic<std::uint64_t> applied{0};  // callback applies
  std::uint16_t incarnation = 0;          // loop thread (node factory)
  std::unique_ptr<SpanRecorder> rec;      // traced run only
  abcast::SegmentedLogStorage* seg = nullptr;
};

int bind_loopback(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  sockaddr_in actual{};
  socklen_t len = sizeof actual;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("bind() failed");
  }
  *port = ntohs(actual.sin_port);
  return fd;
}

class Cluster {
 public:
  /// Binds the sockets, opens the storage and builds the hosts (their loop
  /// threads start); the nodes are started by start().
  Cluster(const Spec& spec, fs::path dir, bool traced, std::uint64_t seed)
      : spec_(spec), stack_(stack_config(spec)), dir_(std::move(dir)),
        traced_(traced) {
    std::vector<int> fds(kReplicas, -1);
    std::vector<abcast::net::UdpPeer> peers;
    for (std::uint32_t i = 0; i < kReplicas; ++i) {
      std::uint16_t port = 0;
      fds[i] = bind_loopback(&port);
      peers.push_back({"127.0.0.1", port});
      runs_.push_back(std::make_unique<ReplicaRun>());
      if (traced_) runs_[i]->rec = std::make_unique<SpanRecorder>();
    }
    for (std::uint32_t i = 0; i < kReplicas; ++i) {
      abcast::net::UdpConfig cfg;
      cfg.self = i;
      cfg.peers = peers;
      cfg.seed = seed;
      cfg.batch.enabled = true;
      cfg.prebound_fd = fds[i];
      cfg.storage_factory = [this, i] { return make_storage(i); };
      try {
        hosts_.push_back(std::make_unique<UdpHost>(cfg));
      } catch (...) {
        for (std::uint32_t j = i; j < kReplicas; ++j) ::close(fds[j]);
        throw;
      }
      fds[i] = -1;  // the host owns it now
    }
  }

  ~Cluster() {
    hosts_.clear();  // joins the loop threads
    std::error_code ec;
    if (spec_.durable) fs::remove_all(dir_, ec);
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void start(std::uint32_t r, bool recovering) {
    abcast::NodeFactory factory = [this, r, recovering](abcast::Env& env) {
      return make_node(r, env, recovering);
    };
    hosts_[r]->start_node(factory, recovering);
  }
  void crash(std::uint32_t r) { hosts_[r]->crash_node(); }
  void stop() { hosts_.clear(); }

  UdpHost& host(std::uint32_t r) { return *hosts_[r]; }
  ReplicaRun& run(std::uint32_t r) { return *runs_[r]; }
  bool traced() const { return traced_; }

  /// The replica's RsmNode; event-loop thread only (inside call()).
  RsmNode& node(std::uint32_t r) {
    abcast::NodeApp* app = hosts_[r]->node_unsafe();
    return traced_ ? static_cast<TracedNode*>(app)->rsm()
                   : *static_cast<RsmNode*>(app);
  }
  const KvStore& kv(std::uint32_t r) {
    const auto& m = node(r).rsm().machine();
    return traced_ ? static_cast<const TracedMachine&>(m).inner()
                   : static_cast<const KvStore&>(m);
  }

 private:
  std::unique_ptr<abcast::StableStorage> make_storage(std::uint32_t r) {
    std::unique_ptr<abcast::StableStorage> s;
    if (spec_.durable) {
      abcast::SegmentedLogConfig cfg;
      cfg.dir = dir_ / "r";
      cfg.dir += std::to_string(r);
      // No device sync: fdatasync latency on a shared virtual disk follows
      // the host's load, which made every durable figure unsteady. Appends,
      // CRC seals, compaction and recovery reads all still run.
      cfg.sync = abcast::SyncMode::kNone;
      fs::create_directories(cfg.dir);
      auto seg = std::make_unique<abcast::SegmentedLogStorage>(cfg);
      runs_[r]->seg = seg.get();
      s = std::move(seg);
    } else {
      s = std::make_unique<abcast::MemStableStorage>();
    }
    if (traced_) {
      return std::make_unique<TracedStorage>(std::move(s), *runs_[r]->rec);
    }
    return s;
  }

  std::unique_ptr<abcast::NodeApp> make_node(std::uint32_t r,
                                             abcast::Env& env,
                                             bool recovering) {
    ReplicaRun& run = *runs_[r];
    run.incarnation += 1;
    const std::uint16_t inc = run.incarnation;
    auto observer = [&run, inc](const abcast::core::AppMsg& m) {
      Delivery d;
      d.at_ns = wall_now_ns();
      d.incarnation = inc;
      if (auto tag = parse_tag(m.payload)) {
        d.sender = static_cast<std::uint16_t>(tag->sender);
        d.seq = static_cast<std::uint32_t>(tag->seq);
      } else {
        d.sender = 0xffff;  // not a generated command: fails the check
      }
      run.log.push_back(d);
      run.applied.fetch_add(1, std::memory_order_release);
    };
    if (!traced_) {
      return std::make_unique<RsmNode>(
          env, stack_, [] { return std::make_unique<KvStore>(); }, observer);
    }
    SpanRecorder& rec = *run.rec;
    rec.recovering = recovering;
    SpanScope s(rec, Layer::kRestart);
    return std::make_unique<TracedNode>(env, rec, stack_, observer);
  }

  Spec spec_;
  abcast::core::StackConfig stack_;
  fs::path dir_;
  bool traced_;
  std::vector<std::unique_ptr<ReplicaRun>> runs_;
  std::vector<std::unique_ptr<UdpHost>> hosts_;  // last: joins first
};

// ---- counters at the window's edges ----------------------------------------

struct RepSample {
  std::uint64_t total = 0;
  std::uint64_t incarnation = 0;
  std::int64_t loop_cpu_ns = 0;
  std::uint64_t send_syscalls = 0, send_datagrams = 0, recv_syscalls = 0;
  abcast::StorageStats storage;
  std::uint64_t fsyncs = 0;
  std::uint64_t gossip_bytes = 0, state_applied = 0;
  std::size_t span_index = 0;
  SpanRecorder::Counters rec;
};

struct Sample {
  std::int64_t at_ns = 0;
  std::int64_t process_cpu_ns = 0;
  double heap = 0;  // MiB allocated
  std::vector<std::uint64_t> machine_ticks;
  std::vector<RepSample> reps;

  std::uint64_t min_total() const {
    std::uint64_t m = ~0ull;
    for (const auto& r : reps) m = std::min(m, r.total);
    return m;
  }
};

Sample take_sample(Cluster& c) {
  Sample s;
  s.reps.resize(kReplicas);
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    RepSample& rs = s.reps[r];
    ReplicaRun& run = c.run(r);
    c.host(r).call([&] {
      rs.loop_cpu_ns = thread_cpu_ns();
      RsmNode& n = c.node(r);
      rs.total = n.stack().ab().agreed().total();
      rs.incarnation = run.incarnation;
      rs.storage = c.host(r).storage().stats();
      if (run.seg != nullptr) rs.fsyncs = run.seg->seg_stats().fsyncs;
      const auto& m = n.stack().ab().metrics();
      rs.gossip_bytes = m.gossip_bytes_sent.load();
      rs.state_applied = m.state_applied.load();
      if (run.rec) {
        rs.span_index = run.rec->size();
        rs.rec = run.rec->counters;
      }
    });
    const auto& nm = c.host(r).net_metrics();
    rs.send_syscalls = nm.send_syscalls.load();
    rs.send_datagrams = nm.send_datagrams.load();
    rs.recv_syscalls = nm.recv_syscalls.load();
  }
  s.at_ns = wall_now_ns();
  s.process_cpu_ns = process_cpu_ns();
  s.heap = heap_mb();
  s.machine_ticks = machine_cpu_ticks();
  return s;
}

// ---- one run ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir = ".";
};

/// Everything the generator produced, in submission order per sender.
struct Load {
  std::vector<CommandStream> streams;
  std::vector<std::vector<std::int64_t>> due;  // [sender][seq]
  std::vector<double> gen_lag_ms;              // window only
  std::vector<double> call_wait_us;            // window only
};

/// Submits `n` fresh commands of replica r in one UdpHost::call.
void submit(Cluster& c, Load& load, std::uint32_t r, std::size_t n,
            const std::vector<std::int64_t>& due, bool in_window) {
  std::vector<Bytes> cmds;
  cmds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cmds.push_back(load.streams[r].next());
    load.due[r].push_back(due[i]);
  }
  const std::int64_t called = wall_now_ns();
  std::int64_t started = 0;
  const bool ok = c.host(r).call([&] {
    started = wall_now_ns();
    RsmNode& node = c.node(r);
    for (auto& cmd : cmds) {
      if (c.traced()) {
        SpanScope s(*c.run(r).rec, Layer::kSubmit);
        node.submit(std::move(cmd));
      } else {
        node.submit(std::move(cmd));
      }
    }
  });
  if (!ok) throw std::runtime_error("a submit found its replica down");
  if (in_window) {
    load.call_wait_us.push_back(static_cast<double>(started - called) / 1e3);
    for (std::size_t i = 0; i < n; ++i) {
      load.gen_lag_ms.push_back(static_cast<double>(called - due[i]) / kMs);
    }
  }
}

struct CrashCycle {
  std::int64_t crash_ns = 0;
  std::int64_t restart_call_ns = 0;
  std::int64_t restart_done_ns = 0;
  std::int64_t caught_up_ns = 0;
  std::uint64_t target_total = 0;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> report;  // per-run lines
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::pair<double, std::string>> ledger;
};

/// Drives the generator, and the crash schedule when `cycles` is given,
/// until `until`; a crash cycle in progress is finished first.
void generate(Cluster& c, const Spec& spec, Load& load, std::uint64_t& rng,
              std::int64_t& next_due, std::int64_t until, bool in_window,
              std::vector<CrashCycle>* cycles, std::int64_t window_start) {
  const double mean_gap_ns = 1e9 / spec.rate;
  std::size_t next_cycle = cycles != nullptr ? cycles->size() : 0;
  bool down = false;
  CrashCycle* recovering = nullptr;
  std::int64_t next_poll = 0;
  for (;;) {
    const std::int64_t now = wall_now_ns();
    if (now >= until && !down && recovering == nullptr) return;
    bool worked = false;

    if (now < until) {
      // Poisson arrivals: every one due by now, one call per replica.
      std::vector<std::vector<std::int64_t>> dues(kReplicas);
      while (next_due <= now) {
        const std::uint32_t r =
            spec.targets[splitmix(rng) % spec.targets.size()];
        dues[r].push_back(next_due);
        const double u =
            (static_cast<double>(splitmix(rng) >> 11) + 0.5) / 9007199254740992.0;
        next_due += static_cast<std::int64_t>(-std::log(u) * mean_gap_ns);
      }
      for (std::uint32_t r = 0; r < kReplicas; ++r) {
        if (dues[r].empty()) continue;
        submit(c, load, r, dues[r].size(), dues[r], in_window);
        worked = true;
      }
    }

    if (cycles != nullptr) {
      const std::int64_t cycle_start =
          window_start + static_cast<std::int64_t>(next_cycle) * kCycle;
      if (!down && recovering == nullptr && now < until &&
          now >= cycle_start + kCrashAt) {
        CrashCycle cc;
        cc.crash_ns = wall_now_ns();
        c.crash(0);
        cycles->push_back(cc);
        down = true;
        worked = true;
      } else if (down && now >= cycle_start + kCrashAt + kDownFor) {
        CrashCycle& cc = cycles->back();
        // What the survivors had delivered when the restart began.
        for (std::uint32_t r = 1; r < kReplicas; ++r) {
          std::uint64_t t = 0;
          c.host(r).call([&] { t = c.node(r).stack().ab().agreed().total(); });
          cc.target_total = std::max(cc.target_total, t);
        }
        cc.restart_call_ns = wall_now_ns();
        c.start(0, /*recovering=*/true);
        cc.restart_done_ns = wall_now_ns();
        down = false;
        recovering = &cc;
        next_poll = cc.restart_done_ns;
        worked = true;
      } else if (recovering != nullptr && now >= next_poll) {
        std::uint64_t t = 0;
        c.host(0).call([&] { t = c.node(0).stack().ab().agreed().total(); });
        if (t >= recovering->target_total) {
          recovering->caught_up_ns = wall_now_ns();
          recovering = nullptr;
          next_cycle += 1;
        } else {
          next_poll = now + 2 * kMs;
        }
        worked = true;
      }
    }

    if (!worked) {
      std::int64_t wake = std::min(now + 200'000, next_due);
      if (recovering != nullptr) wake = std::min(wake, next_poll);
      sleep_ns(wake - wall_now_ns());
    }
  }
}

double setup_sample(const Spec& spec, const fs::path& dir,
                    std::uint64_t seed) {
  const std::int64_t t0 = wall_now_ns();
  Cluster c(spec, dir, /*traced=*/false, seed);
  for (std::uint32_t r = 0; r < kReplicas; ++r) c.start(r, false);
  c.host(0).call([&] {
    c.node(0).submit(abcast::apps::KvCommand::put("setup/probe00000", "x"));
  });
  for (;;) {
    bool all = true;
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      all = all && c.run(r).applied.load(std::memory_order_acquire) > 0;
    }
    if (all) break;
    if (wall_now_ns() - t0 > 30 * kSec) {
      throw std::runtime_error("setup probe never applied");
    }
    sleep_ns(20'000);
  }
  return static_cast<double>(wall_now_ns() - t0) / kSec;
}

double crc32_mb_s(std::uint64_t seed) {
  Bytes buf(64 * 1024);
  std::uint64_t st = seed;
  for (auto& b : buf) b = static_cast<std::uint8_t>(splitmix(st));
  std::vector<double> rates;
  std::uint32_t crc = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = wall_now_ns();
    std::uint64_t bytes = 0;
    while (wall_now_ns() - t0 < 20 * kMs) {
      buf[0] = static_cast<std::uint8_t>(crc);  // each pass needs the last
      crc = abcast::crc32(buf);
      bytes += buf.size();
    }
    rates.push_back(static_cast<double>(bytes) /
                    (static_cast<double>(wall_now_ns() - t0) / kSec) / 1e6);
  }
  return median(rates);
}

template <typename T>
std::vector<double> window_values(
    const std::vector<std::pair<std::int64_t, T>>& v, std::int64_t from,
    std::int64_t to, double scale) {
  std::vector<double> out;
  for (const auto& [at, x] : v) {
    if (at >= from && at < to) out.push_back(static_cast<double>(x) * scale);
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(
    const std::map<std::string, std::pair<double, std::string>>& m,
    const std::vector<std::string>& only) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : m) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), name) == only.end()) {
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  return out + "}";
}

/// Per-slice end-to-end figures, pooled over a run's rounds.
struct Slices {
  std::vector<double> tput, cpu, p50, p99;
  double peak_heap_mb = 0;  // most heap in use at a slice edge
  std::vector<double> gen_lag_ms;
  std::vector<double> outage_ms, recovery_ms;  // one per crash cycle
  std::uint64_t commit_samples = 0;
  std::uint64_t send_failures = 0;
  std::vector<std::map<std::string, std::pair<double, std::string>>> ledgers;
};

/// One round: a fresh cluster, a warm-up, the measured window, the drain
/// and the checks. Adds to `res` and `pooled`.
void run_round(const Spec& spec, const Args& args, std::uint64_t seed,
               double seconds_arg, const fs::path& dir, RunResult& res,
               Slices& pooled) {
  Cluster c(spec, dir, args.trace, seed);
  for (std::uint32_t r = 0; r < kReplicas; ++r) c.start(r, false);

  Load load;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    load.streams.emplace_back(seed, r);
  }
  load.due.resize(kReplicas);
  std::uint64_t rng = seed ^ 0x6a09e667f3bcc909ull;
  std::int64_t next_due = wall_now_ns();

  // Warm-up, then the measured window.
  generate(c, spec, load, rng, next_due, wall_now_ns() + kWarmup, false,
           nullptr, 0);
  // The window is cut into slices (1 s, or one crash cycle) with a counter
  // sample at every edge; the end-to-end figures are medians over slices.
  const auto seconds = static_cast<std::int64_t>(seconds_arg * kSec);
  const std::int64_t slice = spec.crashes ? kCycle : kSec;
  const std::int64_t n_slices =
      std::max<std::int64_t>(1, (seconds + slice / 2) / slice);
  std::vector<Sample> edges{take_sample(c)};
  std::vector<CrashCycle> cycles;
  for (std::int64_t i = 1; i <= n_slices; ++i) {
    generate(c, spec, load, rng, next_due, edges[0].at_ns + i * slice, true,
             spec.crashes ? &cycles : nullptr, edges[0].at_ns);
    edges.push_back(take_sample(c));
  }
  const Sample& s0 = edges.front();
  const Sample& s1 = edges.back();
  const std::int64_t t0 = s0.at_ns, t1 = s1.at_ns;

  // Drain: every submitted command must reach every replica.
  std::uint64_t attempted = 0;
  std::vector<std::uint64_t> per_sender;
  for (const auto& st : load.streams) {
    per_sender.push_back(st.issued().size());
    attempted += st.issued().size();
  }
  const std::int64_t drain_start = wall_now_ns();
  std::uint64_t min_total = 0;
  for (;;) {
    min_total = ~0ull;
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      std::uint64_t t = 0;
      c.host(r).call([&] { t = c.node(r).stack().ab().agreed().total(); });
      min_total = std::min(min_total, t);
    }
    if (min_total >= attempted ||
        wall_now_ns() - drain_start > kDrainDeadline) {
      break;
    }
    sleep_ns(10 * kMs);
  }
  const double drain_s = static_cast<double>(wall_now_ns() - drain_start) / kSec;

  // Final state, read through each replica's public API.
  const Expected expected = model(seed, load.streams);
  std::vector<ReplicaState> states(kReplicas);
  std::uint64_t send_failures = 0;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    ReplicaState& st = states[r];
    c.host(r).call([&] {
      RsmNode& n = c.node(r);
      const KvStore& kv = c.kv(r);
      st.total = n.stack().ab().agreed().total();
      st.digest = kv.digest();
      st.size = kv.size();
      st.counter = kv.get_int(kCounterKey);
      for (const auto& [k, v] : expected.kv) {
        if (auto got = kv.get(k)) st.kv.emplace(k, *got);
      }
      st.partial_callbacks =
          c.run(r).incarnation > 1 ||
          n.stack().ab().metrics().state_snapshots_applied.load() > 0;
    });
    send_failures += c.host(r).send_failures();
  }
  c.stop();  // joins the loop threads; the logs are final
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    states[r].log = std::move(c.run(r).log);
  }

  const CheckResult check = check_replicas(expected, per_sender, states);
  const std::uint64_t failed = attempted - std::min(attempted, min_total);
  res.attempted += attempted;
  res.failed += failed;
  res.correct = res.correct && check.ok && failed == 0 && send_failures == 0;
  for (const auto& e : check.errors) res.report.push_back("check: " + e);

  // ---- end-to-end figures ---------------------------------------------------
  const double window_s = static_cast<double>(t1 - t0) / kSec;
  const std::uint64_t delivered = s1.min_total() - s0.min_total();
  const double per_cmd = delivered > 0 ? 1.0 / static_cast<double>(delivered) : 0;

  // Commit latency: due → applied at the home replica, for commands due in
  // the window whose home apply the callback saw.
  std::vector<std::vector<std::int64_t>> home_at(kReplicas);
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    home_at[r].assign(per_sender[r], -1);
    for (const auto& d : states[r].log) {
      if (d.sender == r && d.seq < per_sender[r] && home_at[r][d.seq] < 0) {
        home_at[r][d.seq] = d.at_ns;
      }
    }
  }
  std::vector<double> commit_ms;
  std::vector<std::vector<double>> slice_commit_ms(edges.size() - 1);
  std::uint64_t due_in_window = 0;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    for (std::uint64_t j = 0; j < per_sender[r]; ++j) {
      const std::int64_t due = load.due[r][j];
      if (due < t0 || due >= t1) continue;
      due_in_window += 1;
      if (home_at[r][j] < 0) continue;
      const double ms = static_cast<double>(home_at[r][j] - due) / kMs;
      commit_ms.push_back(ms);
      std::size_t i = 0;
      while (due >= edges[i + 1].at_ns) ++i;
      slice_commit_ms[i].push_back(ms);
    }
  }

  std::vector<double> sl_tput, sl_cpu, sl_p50, sl_p99, sl_steal;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const Sample &a = edges[i], &b = edges[i + 1];
    sl_steal.push_back(steal_pct(a.machine_ticks, b.machine_ticks));
    const std::uint64_t n = b.min_total() - a.min_total();
    sl_tput.push_back(static_cast<double>(n) /
                      (static_cast<double>(b.at_ns - a.at_ns) / kSec));
    if (n > 0) {
      sl_cpu.push_back(static_cast<double>(b.process_cpu_ns - a.process_cpu_ns) /
                       1e3 / static_cast<double>(n));
    }
    sl_p50.push_back(percentile(slice_commit_ms[i], 50));
    sl_p99.push_back(percentile(slice_commit_ms[i], 99));
  }

  const double cpu_us =
      static_cast<double>(s1.process_cpu_ns - s0.process_cpu_ns) / 1e3 * per_cmd;
  const double throughput = static_cast<double>(delivered) / window_s;
  // Per-layer figures of this round. The traced run (one round) reports
  // them as its ledger; an untraced round prints its program counters.
  std::map<std::string, std::pair<double, std::string>> ledger;
  auto led = [&](const std::string& name, double v, const std::string& unit) {
    ledger[name] = {v, unit};
  };
  pooled.tput.insert(pooled.tput.end(), sl_tput.begin(), sl_tput.end());
  pooled.cpu.insert(pooled.cpu.end(), sl_cpu.begin(), sl_cpu.end());
  pooled.p50.insert(pooled.p50.end(), sl_p50.begin(), sl_p50.end());
  pooled.p99.insert(pooled.p99.end(), sl_p99.begin(), sl_p99.end());
  pooled.gen_lag_ms.insert(pooled.gen_lag_ms.end(), load.gen_lag_ms.begin(),
                           load.gen_lag_ms.end());
  pooled.commit_samples += commit_ms.size();
  pooled.send_failures += send_failures;
  for (const Sample& e : edges) {
    pooled.peak_heap_mb = std::max(pooled.peak_heap_mb, e.heap);
  }

  char line[512];
  std::snprintf(line, sizeof line,
                "round workload=%s seed=%llu trace=%d window_s=%.3f "
                "attempted=%llu failed=%llu delivered_in_window=%llu "
                "commit_samples=%zu of %llu drain_s=%.3f send_failures=%llu",
                spec.name.c_str(), static_cast<unsigned long long>(seed),
                args.trace ? 1 : 0, window_s,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(delivered), commit_ms.size(),
                static_cast<unsigned long long>(due_in_window), drain_s,
                static_cast<unsigned long long>(send_failures));
  res.report.push_back(line);
  std::snprintf(line, sizeof line,
                "window throughput_cps=%.2f cpu_us_per_cmd=%.3f "
                "commit_p50_ms=%.3f commit_p99_ms=%.3f slices=%zu",
                throughput, cpu_us, percentile(commit_ms, 50),
                percentile(commit_ms, 99), sl_tput.size());
  res.report.push_back(line);
  auto slice_line = [&](const char* name, const std::vector<double>& v) {
    std::string l = std::string("slices ") + name;
    for (double x : v) {
      char b[32];
      std::snprintf(b, sizeof b, " %.4g", x);
      l += b;
    }
    res.report.push_back(l);
  };
  slice_line("throughput_cps", sl_tput);
  slice_line("cpu_us_per_cmd", sl_cpu);
  slice_line("commit_p50_ms", sl_p50);
  slice_line("commit_p99_ms", sl_p99);
  slice_line("steal_pct", sl_steal);
  {
    std::snprintf(line, sizeof line,
                  "generator lag_ms p50=%.4f p99=%.4f max=%.4f samples=%zu",
                  percentile(load.gen_lag_ms, 50), percentile(load.gen_lag_ms, 99),
                  percentile(load.gen_lag_ms, 100), load.gen_lag_ms.size());
    res.report.push_back(line);
  }

  // Program counters over the window (no tracing needed).
  std::uint64_t d_send = 0, d_dgram = 0, d_recv = 0, d_puts = 0, d_bytes = 0,
                d_fsync = 0, d_gossip = 0, d_sessions = 0;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    const RepSample &a = s0.reps[r], &b = s1.reps[r];
    d_send += b.send_syscalls - a.send_syscalls;
    d_dgram += b.send_datagrams - a.send_datagrams;
    d_recv += b.recv_syscalls - a.recv_syscalls;
    d_puts += b.storage.put_ops - a.storage.put_ops;
    d_bytes += b.storage.bytes_written - a.storage.bytes_written;
    d_fsync += b.fsyncs - a.fsyncs;
    // Stack counters restart with each incarnation; use replicas that
    // stayed up through the window.
    if (a.incarnation == b.incarnation) {
      d_gossip += b.gossip_bytes - a.gossip_bytes;
      d_sessions += b.state_applied - a.state_applied;
    }
  }
  led("net.datagrams_per_cmd", static_cast<double>(d_dgram) * per_cmd, "count");
  led("net.send_syscalls_per_cmd", static_cast<double>(d_send) * per_cmd, "count");
  led("net.recv_syscalls_per_cmd", static_cast<double>(d_recv) * per_cmd, "count");
  led("storage.puts_per_cmd", static_cast<double>(d_puts) * per_cmd, "count");
  led("storage.bytes_per_cmd", static_cast<double>(d_bytes) * per_cmd, "B");
  led("storage.fsyncs_per_cmd", static_cast<double>(d_fsync) * per_cmd, "count");
  led("core.gossip_bytes_per_cmd", static_cast<double>(d_gossip) * per_cmd, "B");

  // Follower lag: home apply → last replica's apply, for commands every
  // replica's callback saw.
  {
    std::vector<double> lag_ms;
    std::vector<std::vector<std::vector<std::int64_t>>> at(kReplicas);
    for (std::uint32_t q = 0; q < kReplicas; ++q) {
      at[q].resize(kReplicas);
      for (std::uint32_t r = 0; r < kReplicas; ++r) {
        at[q][r].assign(per_sender[r], -1);
      }
      for (const auto& d : states[q].log) {
        if (d.sender < kReplicas && d.seq < per_sender[d.sender] &&
            at[q][d.sender][d.seq] < 0) {
          at[q][d.sender][d.seq] = d.at_ns;
        }
      }
    }
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      for (std::uint64_t j = 0; j < per_sender[r]; ++j) {
        if (load.due[r][j] < t0 || load.due[r][j] >= t1) continue;
        std::int64_t last = -1;
        bool all = true;
        for (std::uint32_t q = 0; q < kReplicas; ++q) {
          all = all && at[q][r][j] >= 0;
          last = std::max(last, at[q][r][j]);
        }
        if (all && home_at[r][j] >= 0) {
          lag_ms.push_back(static_cast<double>(last - home_at[r][j]) / kMs);
        }
      }
    }
    led("core.follower_lag_ms_p50", percentile(lag_ms, 50), "ms");
  }

  // Crash cycles: outage at the survivors, recovery of replica 0.
  if (spec.crashes) {
    std::vector<double> outage, recovery, restart, catchup;
    for (const auto& cc : cycles) {
      double worst = 0;
      for (std::uint32_t r = 1; r < kReplicas; ++r) {
        std::int64_t prev = -1;
        for (const auto& d : states[r].log) {
          if (d.at_ns < cc.crash_ns - 100 * kMs) continue;
          if (d.at_ns > cc.crash_ns + kCycle - kCrashAt) break;
          if (prev >= 0) {
            worst = std::max(worst, static_cast<double>(d.at_ns - prev) / kMs);
          }
          prev = d.at_ns;
        }
      }
      outage.push_back(worst);
      if (cc.caught_up_ns > 0) {
        recovery.push_back(
            static_cast<double>(cc.caught_up_ns - cc.restart_call_ns) / kMs);
        catchup.push_back(
            static_cast<double>(cc.caught_up_ns - cc.restart_done_ns) / kMs);
      }
      restart.push_back(
          static_cast<double>(cc.restart_done_ns - cc.restart_call_ns) / kMs);
    }
    if (recovery.size() != cycles.size()) {
      res.correct = false;
      res.report.push_back("check: replica 0 did not catch up in every cycle");
    }
    std::snprintf(line, sizeof line,
                  "crash cycles=%zu outage_ms=%.3f recovery_ms=%.3f",
                  cycles.size(), median(outage), median(recovery));
    res.report.push_back(line);
    pooled.outage_ms.insert(pooled.outage_ms.end(), outage.begin(), outage.end());
    pooled.recovery_ms.insert(pooled.recovery_ms.end(), recovery.begin(),
                              recovery.end());
    led("core.restart_ms", median(restart), "ms");
    led("core.catchup_ms", median(catchup), "ms");

    if (args.trace) {
      std::vector<double> detect;
      for (const auto& cc : cycles) {
        std::int64_t first = -1;
        for (std::uint32_t r = 1; r < kReplicas; ++r) {
          for (const auto& lc : c.run(r).rec->leader_changes) {
            if (lc.at_ns >= cc.crash_ns && lc.leader != 0) {
              if (first < 0 || lc.at_ns < first) first = lc.at_ns;
              break;
            }
          }
        }
        if (first >= 0) {
          detect.push_back(static_cast<double>(first - cc.crash_ns) / kMs);
        }
      }
      led("fd.detect_ms", median(detect), "ms");
    }
  }

  if (!args.trace) {
    res.report.push_back("counters " + metrics_json(ledger, {}));
    return;
  }

  // ---- traced run: the per-layer ledger ------------------------------------
  constexpr int kLayers = static_cast<int>(Layer::kCount);
  double self_cpu[kLayers] = {};
  std::vector<double> put_us, flush_us, submit_us, snapshot_us;
  std::int64_t loop_cpu = 0;
  SpanRecorder::Counters d;
  std::uint64_t max_frame = 0, instances = 0;
  std::vector<double> decide_ms, value_bytes;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    const SpanRecorder& rec = *c.run(r).rec;
    const RepSample &a = s0.reps[r], &b = s1.reps[r];
    loop_cpu += b.loop_cpu_ns - a.loop_cpu_ns;
    const auto& spans = rec.spans();
    const auto self = self_times(spans, a.span_index, b.span_index);
    for (std::size_t i = a.span_index; i < b.span_index; ++i) {
      const Span& s = spans[i];
      self_cpu[static_cast<int>(s.layer)] +=
          static_cast<double>(self[i - a.span_index].cpu_ns);
      const double wall_us = static_cast<double>(s.wall_ns) / 1e3;
      if (s.layer == Layer::kStoragePut) put_us.push_back(wall_us);
      if (s.layer == Layer::kStorageFlush && s.arg == 1) {
        flush_us.push_back(wall_us);
      }
      if (s.layer == Layer::kSubmit) submit_us.push_back(wall_us);
      if (s.layer == Layer::kCheckpoint) snapshot_us.push_back(wall_us);
    }
    for (int l = 0; l < kLayers; ++l) {
      d.tx_datagrams[l] += b.rec.tx_datagrams[l] - a.rec.tx_datagrams[l];
      d.tx_bytes[l] += b.rec.tx_bytes[l] - a.rec.tx_bytes[l];
      d.rx_datagrams[l] += b.rec.rx_datagrams[l] - a.rec.rx_datagrams[l];
    }
    d.timer_fires += b.rec.timer_fires - a.rec.timer_fires;
    d.prop_puts += b.rec.prop_puts - a.rec.prop_puts;
    d.recovery_reads += b.rec.recovery_reads - a.rec.recovery_reads;
    instances = std::max(instances, b.rec.dec_puts - a.rec.dec_puts);
    max_frame = std::max(max_frame, rec.max_frame_bytes);
    for (double v : window_values(rec.decide_ns, t0, t1, 1e-6)) {
      decide_ms.push_back(v);
    }
    for (double v : window_values(rec.value_bytes, t0, t1, 1.0)) {
      value_bytes.push_back(v);
    }
  }
  const double per_inst = instances > 0 ? 1.0 / static_cast<double>(instances) : 0;
  auto us_per_cmd = [&](std::initializer_list<Layer> layers) {
    double ns = 0;
    for (Layer l : layers) ns += self_cpu[static_cast<int>(l)];
    return ns / 1e3 * per_cmd;
  };
  double spans_cpu = 0;
  for (double v : self_cpu) spans_cpu += v;
  const double remainder_us = (static_cast<double>(loop_cpu) - spans_cpu) / 1e3 * per_cmd;
  std::uint64_t tx_bytes = 0;
  for (auto b : d.tx_bytes) tx_bytes += b;

  led("net.bytes_per_cmd", static_cast<double>(tx_bytes) * per_cmd, "B");
  led("net.loop_cpu_us_per_cmd", remainder_us, "us");
  led("net.loop_thread_cpu_us_per_cmd", static_cast<double>(loop_cpu) / 1e3 * per_cmd, "us");
  led("net.call_wait_us_p50", percentile(load.call_wait_us, 50), "us");
  led("net.max_datagram_bytes", static_cast<double>(max_frame), "B");
  led("stack.timer_us_per_cmd", us_per_cmd({Layer::kTimer}), "us");
  led("stack.timer_fires_per_cmd", static_cast<double>(d.timer_fires) * per_cmd, "count");
  led("consensus.rx_us_per_cmd", us_per_cmd({Layer::kConsensusRx}), "us");
  led("consensus.msgs_per_instance",
      static_cast<double>(d.tx_datagrams[static_cast<int>(Layer::kConsensusRx)]) * per_inst,
      "count");
  led("consensus.decide_ms_p50", percentile(decide_ms, 50), "ms");
  led("consensus.value_bytes_p50", percentile(value_bytes, 50), "B");
  led("core.cmds_per_instance", static_cast<double>(delivered) * per_inst, "count");
  led("core.proposals_per_instance", static_cast<double>(d.prop_puts) * per_inst, "count");
  led("core.rx_gossip_us_per_cmd", us_per_cmd({Layer::kGossipRx}), "us");
  led("core.broadcast_us_p50", percentile(submit_us, 50), "us");
  led("core.submit_us_per_cmd", us_per_cmd({Layer::kSubmit}), "us");
  led("core.rx_state_us_per_cmd", us_per_cmd({Layer::kStateRx}), "us");
  led("core.state_sessions_per_kinstance",
      static_cast<double>(d_sessions) * per_inst * 1000.0, "count");
  led("core.restart_us_per_cmd", us_per_cmd({Layer::kRestart}), "us");
  led("storage.put_us_p50", percentile(put_us, 50), "us");
  led("storage.put_us_p99", percentile(put_us, 99), "us");
  led("storage.flush_us_p50", percentile(flush_us, 50), "us");
  led("storage.self_us_per_cmd",
      us_per_cmd({Layer::kStoragePut, Layer::kStorageGet, Layer::kStorageErase,
                  Layer::kStorageScan, Layer::kStorageFlush}),
      "us");
  led("apps.apply_us_per_cmd", us_per_cmd({Layer::kApply}), "us");
  led("apps.checkpoint_us_per_cmd", us_per_cmd({Layer::kCheckpoint}), "us");
  if (spec.alternative) led("apps.snapshot_us_p50", percentile(snapshot_us, 50), "us");
  led("fd.rx_us_per_cmd", us_per_cmd({Layer::kFdRx}), "us");
  led("net.other_rx_us_per_cmd", us_per_cmd({Layer::kOtherRx}), "us");
  if (spec.crashes) {
    led("storage.recovery_reads", static_cast<double>(d.recovery_reads), "count");
  }

  // The ledger must account for the loop threads' CPU: the self times of
  // every layer plus the uncovered remainder sum to it by construction, so
  // a negative remainder means the spans overlap or nest wrongly.
  std::snprintf(line, sizeof line,
                "ledger loop_cpu_us_per_cmd=%.4f spans=%.4f remainder=%.4f "
                "coverage=%.4f",
                static_cast<double>(loop_cpu) / 1e3 * per_cmd,
                spans_cpu / 1e3 * per_cmd, remainder_us,
                loop_cpu > 0 ? spans_cpu / static_cast<double>(loop_cpu) : 0);
  res.report.push_back(line);
  if (remainder_us < 0) {
    res.correct = false;
    res.report.push_back("check: span self times exceed the loop threads' CPU");
  }

  // Spans are written out once the round is over.
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    c.run(r).rec->write((args.workdir /
                         (spec.name + "-" + dir.filename().string() +
                          "-spans-r" + std::to_string(r) + ".tsv"))
                            .string());
  }
  led("common.crc32_mb_s", crc32_mb_s(seed), "MB/s");
  pooled.ledgers.push_back(std::move(ledger));
}

RunResult run_workload(const Spec& spec, const Args& args) {
  RunResult res;
  const fs::path base =
      args.workdir / (spec.name + "-" + std::to_string(::getpid()));

  // Set-up time, measured on throwaway clusters (untraced runs only).
  std::vector<double> setups;
  if (!args.trace) {
    for (std::uint32_t i = 0; i < kSetupSamples; ++i) {
      setups.push_back(
          setup_sample(spec, base / ("setup" + std::to_string(i)), args.seed));
    }
  }

  // Independent rounds, each on a fresh cluster, so that one cluster that
  // settles into a slow regime moves the pooled median less. The crash
  // workload runs one crash cycle per round.
  const auto cycles = static_cast<std::uint32_t>(args.seconds * kSec / kCycle);
  const std::uint32_t rounds = spec.crashes ? std::max(1u, cycles) : kRounds;
  Slices pooled;
  const auto ticks0 = machine_cpu_ticks();
  std::uint64_t st = args.seed;
  for (std::uint32_t k = 0; k < rounds; ++k) {
    run_round(spec, args, splitmix(st), args.seconds / rounds,
              base / ("round" + std::to_string(k)), res, pooled);
  }
  std::error_code ec;
  fs::remove_all(base, ec);
  char line[256];
  std::snprintf(line, sizeof line,
                "run workload=%s rounds=%u attempted=%llu failed=%llu "
                "send_failures=%llu commit_samples=%llu max_rss_mb=%.3f "
                "steal_pct=%.2f",
                spec.name.c_str(), rounds,
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                static_cast<unsigned long long>(pooled.send_failures),
                static_cast<unsigned long long>(pooled.commit_samples),
                max_rss_mb(), steal_pct(ticks0, machine_cpu_ticks()));
  res.report.push_back(line);
  {
    std::snprintf(line, sizeof line,
                  "run generator_lag_ms p50=%.4f p99=%.4f max=%.4f samples=%zu",
                  percentile(pooled.gen_lag_ms, 50),
                  percentile(pooled.gen_lag_ms, 99),
                  percentile(pooled.gen_lag_ms, 100), pooled.gen_lag_ms.size());
    res.report.push_back(line);
  }
  if (spec.crashes) {
    res.ledger["outage_ms"] = {median(pooled.outage_ms), "ms"};
    res.ledger["recovery_ms"] = {median(pooled.recovery_ms), "ms"};
  }
  if (args.trace) {
    // Each per-layer figure is the median over the rounds' ledgers.
    for (const auto& [name, vu] : pooled.ledgers.front()) {
      std::vector<double> v;
      for (const auto& l : pooled.ledgers) {
        if (auto it = l.find(name); it != l.end()) v.push_back(it->second.first);
      }
      res.ledger[name] = {median(v), vu.second};
    }
    res.ledger["trace.throughput_cps"] = {median(pooled.tput), "cmds/s"};
    res.ledger["trace.cpu_us_per_cmd"] = {median(pooled.cpu), "us"};
    return res;
  }
  res.metrics["setup_s"] = {median(setups), "s"};
  res.metrics["throughput_cps"] = {median(pooled.tput), "cmds/s"};
  res.metrics["commit_p50_ms"] = {median(pooled.p50), "ms"};
  res.metrics["commit_p99_ms"] = {median(pooled.p99), "ms"};
  res.metrics["cpu_us_per_cmd"] = {median(pooled.cpu), "us"};
  res.metrics["peak_heap_mb"] = {pooled.peak_heap_mb, "MB"};
  return res;
}

// ---- output -----------------------------------------------------------------

/// The per-layer metrics the traced run reports on every workload; the
/// ledger line adds the ones that apply to some workloads only.
const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "net.datagrams_per_cmd", "net.send_syscalls_per_cmd",
      "net.recv_syscalls_per_cmd", "net.bytes_per_cmd",
      "net.loop_cpu_us_per_cmd", "net.loop_thread_cpu_us_per_cmd",
      "net.call_wait_us_p50", "net.max_datagram_bytes",
      "stack.timer_us_per_cmd", "stack.timer_fires_per_cmd",
      "consensus.rx_us_per_cmd", "consensus.msgs_per_instance",
      "consensus.decide_ms_p50", "consensus.value_bytes_p50",
      "core.cmds_per_instance", "core.proposals_per_instance",
      "core.rx_gossip_us_per_cmd", "core.gossip_bytes_per_cmd",
      "core.broadcast_us_p50", "core.submit_us_per_cmd",
      "core.state_sessions_per_kinstance", "core.follower_lag_ms_p50",
      "storage.put_us_p50", "storage.put_us_p99", "storage.flush_us_p50",
      "storage.puts_per_cmd", "storage.bytes_per_cmd",
      "storage.self_us_per_cmd",
      "apps.apply_us_per_cmd", "fd.rx_us_per_cmd", "common.crc32_mb_s",
      "trace.throughput_cps", "trace.cpu_us_per_cmd"};
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <steady-open|crash-cycle> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::stoull(v);
    else if (k == "--seconds") args.seconds = std::stod(v);
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--workdir") args.workdir = v;
    else return usage();
  }
  const auto spec = spec_of(args.workload);
  if (!spec || args.seconds <= 0) return usage();
  try {
    std::filesystem::create_directories(args.workdir);
    const RunResult res = run_workload(*spec, args);
    for (const auto& l : res.report) std::printf("%s\n", l.c_str());
    if (!res.ledger.empty()) {
      std::printf("ledger %s\n", metrics_json(res.ledger, {}).c_str());
    }
    const std::string metrics =
        args.trace ? metrics_json(res.ledger, per_layer_names())
                   : metrics_json(res.metrics, {});
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        res.correct ? "true" : "false",
        static_cast<unsigned long long>(res.attempted),
        static_cast<unsigned long long>(res.failed), metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
