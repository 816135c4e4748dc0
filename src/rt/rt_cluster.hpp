// Real-time runtime: the same protocol stacks driven by threads and the
// steady clock instead of the discrete-event simulator.
//
// Each process is a host with its own event-loop thread; all protocol
// callbacks (start, on_message, timers) run on that thread, preserving the
// single-threaded execution model the stacks assume. Hosts exchange Wire
// datagrams over an in-process loopback network with configurable delay,
// loss and duplication — the same fair-lossy channel semantics as the
// simulator, at wall-clock speed. Crash/recovery destroys and rebuilds the
// stack exactly like the simulated host does.
//
// This runtime exists to demonstrate (and test) that the protocol code is
// not simulator-bound; production transports (UDP sockets, etc.) would
// implement the same Env interface.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "env/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/mem_storage.hpp"

namespace abcast::rt {

struct RtNetConfig {
  Duration delay_min = micros(100);
  Duration delay_max = millis(2);
  double drop_prob = 0.0;
  double dup_prob = 0.0;
};

struct RtConfig {
  std::uint32_t n = 3;
  std::uint64_t seed = 1;
  RtNetConfig net;
  /// Per-process stable storage; defaults to MemStableStorage (which here
  /// survives crash()/recover() but not process exit). Use
  /// FileStableStorage for on-disk durability.
  std::function<std::unique_ptr<StableStorage>(ProcessId)> storage_factory;
  /// Per-host protocol trace ring capacity (events); 0 disables tracing.
  std::size_t trace_capacity = 0;
};

class RtCluster;

class RtHost final : public Env {
 public:
  RtHost(RtCluster& cluster, ProcessId id);
  ~RtHost() override;

  // Env (called from the host thread only)
  ProcessId self() const override { return id_; }
  std::uint32_t group_size() const override;
  TimePoint now() const override;
  TimerId schedule_after(Duration delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  void send(ProcessId to, const Wire& msg) override;
  StableStorage& storage() override {
    return tracing_storage_ ? static_cast<StableStorage&>(*tracing_storage_)
                            : *storage_;
  }
  Rng& rng() override { return rng_; }
  obs::TraceRecorder* tracer() override { return recorder_.get(); }
  obs::MetricsRegistry* metrics_registry() override;

  /// This host's protocol trace, or nullptr when trace_capacity == 0.
  /// TraceRecorder is internally synchronized, so any thread may read it.
  obs::TraceRecorder* recorder() { return recorder_.get(); }

  /// Runs `fn` on the host thread (from any thread); no-op result if the
  /// host is down when the task is picked up and `only_if_up` is set.
  void post(std::function<void()> fn, bool only_if_up = true);

  /// Runs `fn` on the host thread and waits for it to finish. Returns false
  /// (without running) if the host is down.
  bool call(const std::function<void()>& fn);

  bool is_up() const { return up_.load(); }

  /// Timer bookkeeping entries currently held (outstanding timers of the
  /// live incarnation). Exposed so a test can pin that cancel-after-fire
  /// does not leak.
  std::size_t pending_timer_entries() const;

  /// The hosted protocol stack. Host-thread only: call this exclusively
  /// from inside a call()/post() body (where it is guaranteed non-null for
  /// call()). Cast to the concrete NodeApp type the factory produces.
  NodeApp* node_unsafe() { return node_.get(); }

  /// Stops the event loop and joins the thread (idempotent). The cluster
  /// shuts every host down before destroying any of them so no in-flight
  /// task can touch a dead peer.
  void shutdown();

 private:
  friend class RtCluster;

  struct Task {
    TimePoint due = 0;
    std::uint64_t seq = 0;
    std::uint64_t incarnation = 0;  // 0 = not incarnation-bound (messages)
    bool only_if_up = true;
    std::function<void()> fn;

    bool operator>(const Task& o) const {
      return std::tie(due, seq) > std::tie(o.due, o.seq);
    }
  };

  void loop();
  void start_node(const NodeFactory& factory, bool recovering);
  void crash_node();
  void enqueue(Task task);
  void enqueue_message(TimePoint due, ProcessId from, Wire msg);

  RtCluster& cluster_;
  ProcessId id_;
  Rng rng_;
  std::unique_ptr<StableStorage> storage_;
  std::unique_ptr<obs::TraceRecorder> recorder_;    // survives crashes
  std::unique_ptr<TracingStorage> tracing_storage_;  // wraps storage_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Task, std::vector<Task>, std::greater<>> tasks_;
  std::uint64_t next_seq_ = 1;
  // Bumped on crash so pending timers go stale. Starts at 1: a task whose
  // incarnation field is 0 is a network delivery, not a timer.
  std::uint64_t incarnation_ = 1;
  /// Ids of scheduled timers that have neither fired nor been cancelled.
  std::unordered_set<std::uint64_t> live_timers_;
  bool stop_ = false;

  std::atomic<bool> up_{false};
  std::unique_ptr<NodeApp> node_;  // touched on host thread only
  std::thread thread_;
};

class RtCluster {
 public:
  explicit RtCluster(RtConfig config);
  ~RtCluster();

  RtCluster(const RtCluster&) = delete;
  RtCluster& operator=(const RtCluster&) = delete;

  void set_node_factory(NodeFactory factory) { factory_ = std::move(factory); }

  void start_all();
  void start(ProcessId p);
  void crash(ProcessId p);
  void recover(ProcessId p);

  /// Blocks the calling thread until `pred` (evaluated on the caller, so it
  /// must be thread-safe) holds or the wall-clock timeout expires.
  bool wait_for(const std::function<bool()>& pred, Duration timeout,
                Duration poll = millis(5)) const;

  RtHost& host(ProcessId p);
  std::uint32_t n() const { return config_.n; }
  TimePoint now() const;

  /// Cluster-wide metrics registry (outside every crash boundary;
  /// thread-safe).
  obs::MetricsRegistry& metrics_registry() { return registry_; }

 private:
  friend class RtHost;

  void transmit(ProcessId from, ProcessId to, const Wire& msg, Rng& rng);

  RtConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  obs::MetricsRegistry registry_;
  NodeFactory factory_;
  std::vector<std::unique_ptr<RtHost>> hosts_;
};

}  // namespace abcast::rt
