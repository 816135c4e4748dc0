// The event loop shared by every real-time host: the in-process loopback
// runtime (src/rt) and the UDP transport (src/net) are each a HostLoop plus
// their transport code.
//
// A HostLoop runs one process of the group on its own thread. Every protocol
// callback (start, on_message, timers, call() bodies) runs on that thread,
// preserving the single-threaded execution model the stacks assume. The
// loop owns the timer heap, the incarnation gate that makes a crash cancel
// every pending timer, the start/crash/recover lifecycle (a crash destroys
// the stack exactly like the simulated host does), and the one wait:
// poll() on a self-pipe plus the transport's descriptor, if it has one,
// with the earliest task's deadline as the timeout.
//
// Durability barrier (DESIGN.md §16): each pass begins by flushing
// storage() and only then lets the transport release the datagrams queued
// since the last pass. A transport never emits from send(), so nothing
// leaves the process describing state that is not yet durable, whatever
// the transport or storage backend (paper §3: stable storage survives a
// crash, volatile state does not).
#pragma once

#include <atomic>
#include <chrono>
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
#include "obs/trace.hpp"

namespace abcast::host {

class HostLoop : public Env {
 public:
  ~HostLoop() override;

  // Env (called from the loop thread only)
  ProcessId self() const override { return self_; }
  std::uint32_t group_size() const override { return group_size_; }
  TimePoint now() const override;
  TimerId schedule_after(Duration delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  StableStorage& storage() override {
    return tracing_storage_ ? static_cast<StableStorage&>(*tracing_storage_)
                            : *storage_;
  }
  Rng& rng() override { return rng_; }
  obs::TraceRecorder* tracer() override { return recorder_.get(); }
  obs::MetricsRegistry* metrics_registry() override { return registry_; }

  // ---- lifecycle (external threads) --------------------------------------
  /// Constructs the protocol stack via `factory` and starts it.
  void start_node(const NodeFactory& factory, bool recovering);
  /// Crash: destroys the stack (volatile state dies), makes its pending
  /// timers stale and drops the datagrams it queued but the barrier has not
  /// released. Input arriving while down is lost, as in the paper's model.
  void crash_node();
  /// Runs `fn` on the loop thread and waits for it to finish. Returns false
  /// (without running) if the host is down.
  bool call(const std::function<void()>& fn);
  /// Stops the loop and joins its thread (idempotent).
  void shutdown();

  bool is_up() const { return up_.load(); }
  /// The hosted protocol stack. Loop thread only: call this exclusively
  /// from inside a call() body, where it is non-null. Cast to the concrete
  /// NodeApp type the factory produces.
  NodeApp* node_unsafe() { return node_.get(); }
  /// This host's protocol trace, or nullptr when tracing is off.
  /// TraceRecorder is internally synchronized, so any thread may read it.
  obs::TraceRecorder* recorder() { return recorder_.get(); }
  /// Timer entries alive (scheduled and neither fired nor cancelled).
  /// Regression hook for the cancelled-timer leak: stays bounded by the
  /// OUTSTANDING timers however many cancel/fire cycles have run.
  std::size_t pending_timer_entries() const;

  /// Queues `msg` from `from` for delivery at `due` (any thread); it is
  /// dropped if the host is down when it comes due.
  void deliver_at(TimePoint due, ProcessId from, Wire msg);

 protected:
  /// Null `storage` means a fresh MemStableStorage; `trace_capacity` 0
  /// disables tracing. Times are measured from `epoch`.
  HostLoop(ProcessId self, std::uint32_t group_size, std::uint64_t rng_seed,
           std::unique_ptr<StableStorage> storage, std::size_t trace_capacity,
           obs::MetricsRegistry* registry,
           std::chrono::steady_clock::time_point epoch);

  /// Starts the loop thread. The derived constructor's last step, so the
  /// thread never sees a half-built transport; the derived destructor calls
  /// shutdown() first for the same reason.
  void start_loop();

  // ---- transport hooks (loop thread) -------------------------------------
  /// A descriptor to poll for input, or -1 for none.
  virtual int input_fd() const { return -1; }
  /// Consumes whatever input_fd() has ready.
  virtual void drain_input() {}
  /// Emits every datagram queued since the last release: the second half
  /// of the barrier, and the only place a transport may emit.
  virtual void release_output() = 0;
  /// Drops the queued datagrams; they die with a crashed process.
  virtual void discard_output() = 0;

 private:
  struct Task {
    TimePoint due = 0;
    std::uint64_t seq = 0;
    std::uint64_t incarnation = 0;  // 0 = not a timer (never goes stale)
    std::function<void()> fn;

    bool operator>(const Task& o) const {
      return std::tie(due, seq) > std::tie(o.due, o.seq);
    }
  };

  void loop();
  void run_due_tasks();
  std::uint64_t enqueue(TimePoint due, bool timer, std::function<void()> fn);
  void run_and_wait(const std::function<void()>& fn);
  void wake();

  const ProcessId self_;
  const std::uint32_t group_size_;
  const std::chrono::steady_clock::time_point epoch_;
  Rng rng_;
  obs::MetricsRegistry* registry_;
  std::unique_ptr<StableStorage> storage_;
  std::unique_ptr<obs::TraceRecorder> recorder_;     // survives crashes
  std::unique_ptr<TracingStorage> tracing_storage_;  // wraps storage_
  int wake_fds_[2] = {-1, -1};  // self-pipe that interrupts poll()

  mutable std::mutex mu_;
  std::priority_queue<Task, std::vector<Task>, std::greater<>> tasks_;
  std::uint64_t next_seq_ = 1;
  // Bumped on crash so pending timers go stale. Starts at 1: a task whose
  // incarnation field is 0 is not a timer.
  std::uint64_t incarnation_ = 1;
  /// Timers scheduled but not yet fired or cancelled: cancel erases, the
  /// pop fires only ids still present, so a cancel-after-fire leaves no
  /// tombstone behind.
  std::unordered_set<std::uint64_t> live_timers_;
  bool stop_ = false;

  std::atomic<bool> up_{false};
  std::unique_ptr<NodeApp> node_;  // loop thread only
  std::thread thread_;
};

}  // namespace abcast::host
