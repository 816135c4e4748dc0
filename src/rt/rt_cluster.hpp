// Real-time runtime: the same protocol stacks driven by threads and the
// steady clock instead of the discrete-event simulator.
//
// Each process is a host::HostLoop (its own event-loop thread, timers,
// crash/recover, and the storage-flush-before-send barrier) whose transport
// is an in-process loopback network with configurable delay, loss and
// duplication: the same fair-lossy channel semantics as the simulator, at
// wall-clock speed. Crash/recovery destroys and rebuilds the stack exactly
// like the simulated host does. The UDP transport (src/net) runs on the
// same loop over real sockets.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "host/host_loop.hpp"
#include "obs/metrics.hpp"
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
  /// SegmentedLogStorage for on-disk durability.
  std::function<std::unique_ptr<StableStorage>(ProcessId)> storage_factory;
  /// Per-host protocol trace ring capacity (events); 0 disables tracing.
  std::size_t trace_capacity = 0;
};

class RtCluster;

/// One process over the loopback channel. send() queues; the loop's
/// end-of-pass barrier hands the queue to RtCluster::transmit.
class RtHost final : public host::HostLoop {
 public:
  RtHost(RtCluster& cluster, ProcessId id);
  ~RtHost() override { shutdown(); }

  void send(ProcessId to, const Wire& msg) override;

 private:
  void release_output() override;
  void discard_output() override { outbox_.clear(); }

  RtCluster& cluster_;
  std::vector<std::pair<ProcessId, Wire>> outbox_;  // loop thread only
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
