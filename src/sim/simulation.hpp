// Deterministic simulation of an asynchronous crash-recovery system.
//
// Models exactly the system of Section 2 of the paper:
//   * processes that are up or down; a crash loses volatile memory (the
//     protocol object is destroyed) and every message that arrives while the
//     process is down is lost;
//   * stable storage that survives crashes;
//   * fair-lossy, duplicating, non-FIFO channels with arbitrary finite
//     delays between every pair of processes.
//
// The run is fully deterministic given (seed, configuration, fault plan).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "env/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "storage/faulty_storage.hpp"
#include "storage/mem_storage.hpp"

namespace abcast::sim {

/// Which directions of a partition cut are blocked. The asymmetric modes
/// model one-way network failures (a dead receive queue, a misconfigured
/// firewall rule): the affected side keeps transmitting into the void.
enum class PartitionMode {
  kSymmetric,  // both directions blocked across the cut (classic split)
  kInbound,    // only traffic INTO `members` is blocked; they can talk out
  kOutbound,   // only traffic OUT OF `members` is blocked; they still hear
};

/// Channel behaviour. The defaults give a lossy but lively network.
struct NetConfig {
  Duration delay_min = millis(1);
  Duration delay_max = millis(10);
  /// Probability an individual datagram is silently dropped.
  double drop_prob = 0.0;
  /// Probability an individual datagram is delivered twice.
  double dup_prob = 0.0;
  /// Local (self) delivery latency; self sends are never dropped.
  Duration self_delay = micros(10);
};

struct SimConfig {
  std::uint32_t n = 3;
  std::uint64_t seed = 1;
  NetConfig net;
  /// Per-process stable storage; defaults to MemStableStorage. Supply
  /// DiscardStorage for crash-stop baselines or SegmentedLogStorage for
  /// durability integration tests. Every host's storage is wrapped in a
  /// FaultyStorage decorator (a passthrough until faults are configured).
  std::function<std::unique_ptr<StableStorage>(ProcessId)> storage_factory;
  /// RNG-driven storage fault rates applied to every host's decorator.
  StorageFaultProfile storage_faults;
  /// Per-host protocol trace ring capacity (events); 0 disables tracing.
  /// Recorders live in the host, outside the crash boundary, so one trace
  /// spans every incarnation of a process.
  std::size_t trace_capacity = 0;
};

/// Aggregate network counters for bandwidth-style experiments.
struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_channel = 0;   // lost by the lossy channel
  std::uint64_t dropped_down = 0;      // receiver was down on arrival
  std::uint64_t dropped_partition = 0; // link administratively blocked
  std::uint64_t duplicated = 0;
  std::uint64_t bytes_sent = 0;
  /// Sends and bytes per message type — attributes traffic to protocol
  /// layers (heartbeats vs consensus vs gossip vs state transfer ...).
  std::map<MsgType, std::uint64_t> sent_by_type;
  std::map<MsgType, std::uint64_t> bytes_by_type;

  std::uint64_t sent_of(MsgType t) const {
    auto it = sent_by_type.find(t);
    return it == sent_by_type.end() ? 0 : it->second;
  }
};

/// Per-process lifecycle counters.
struct HostStats {
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  /// Crashes caused by a storage fault (armed crash-point or an escaping
  /// StorageIoError), including those that interrupted a recovery.
  std::uint64_t storage_crashes = 0;
  /// Recovery attempts that themselves died on a storage fault.
  std::uint64_t failed_recoveries = 0;
};

class Simulation;

/// The Env a simulated process hands to its protocol stack.
class SimHost final : public Env {
 public:
  SimHost(Simulation& sim, ProcessId id);

  // Env
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

  bool is_up() const { return node_ != nullptr; }
  const HostStats& stats() const { return stats_; }

  /// This host's protocol trace, or nullptr when trace_capacity == 0.
  obs::TraceRecorder* recorder() { return recorder_.get(); }

  /// The fault-injection decorator every storage op flows through; arm
  /// crash-points / set per-host profiles here.
  FaultyStorage& faulty_storage() { return *storage_; }

  /// The undecorated backend (e.g. the MemStableStorage whose per-scope
  /// counters the harness reads).
  StableStorage& raw_storage() { return storage_->inner(); }

  /// Gray-failure knob: inbound datagrams to this host have their channel
  /// delay multiplied by `factor` (>= 0; 1 = nominal). Models a node whose
  /// receive path is slow rather than dead.
  void set_rx_delay_factor(double factor) { rx_delay_factor_ = factor; }
  double rx_delay_factor() const { return rx_delay_factor_; }

  /// Clock/timer skew knob: every delay this host's protocol stack passes
  /// to schedule_after is multiplied by `scale` (> 0). scale > 1 is a slow
  /// clock (timers fire late), scale < 1 a fast one.
  void set_timer_scale(double scale) { timer_scale_ = scale; }
  double timer_scale() const { return timer_scale_; }

  /// Virtual time up to which this host is stalled on its (slow) storage;
  /// sends/timers scheduled earlier are pushed past it. See DESIGN.md §12.
  TimePoint busy_until() const { return busy_until_; }

  /// Converts a SimulatedCrash/StorageIoError that escaped into HARNESS
  /// code (e.g. a test calling broadcast() on a host with an armed
  /// crash-point) into the usual storage-fault crash.
  void crash_from_storage_fault();

 private:
  friend class Simulation;

  /// Returns false when the start/recovery itself died on a storage fault
  /// (the host stays down; stable storage keeps whatever was written).
  bool start(const NodeFactory& factory, bool recovering);
  void crash();
  void deliver(ProcessId from, const Wire& msg);

  /// Folds the storage decorator's accrued slow-disk latency into
  /// busy_until_ and returns how far past `now` this host is stalled
  /// (0 when idle). Called on every send/schedule/delivery so the stall
  /// defers exactly the activity that follows the slow operation.
  Duration consume_busy_delay();

  Simulation& sim_;
  ProcessId id_;
  Rng rng_;
  std::unique_ptr<FaultyStorage> storage_;
  std::unique_ptr<obs::TraceRecorder> recorder_;       // survives crashes
  std::unique_ptr<TracingStorage> tracing_storage_;    // wraps storage_
  std::unique_ptr<NodeApp> node_;
  std::set<Scheduler::Token> live_timers_;
  HostStats stats_;
  double rx_delay_factor_ = 1.0;
  double timer_scale_ = 1.0;
  TimePoint busy_until_ = 0;
};

class Simulation {
 public:
  explicit Simulation(SimConfig config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Installs the protocol-stack factory used at every start and recovery.
  void set_node_factory(NodeFactory factory) { factory_ = std::move(factory); }

  /// Starts all processes at time 0 (recovering = false).
  void start_all();

  /// Starts one process (initial start).
  void start(ProcessId p);

  // ---- fault injection -------------------------------------------------
  /// Crashes `p` now: its protocol object is destroyed, its timers are
  /// cancelled, and datagrams arriving while it is down are lost.
  void crash(ProcessId p);

  /// Recovers `p` now: a fresh protocol stack is built over the surviving
  /// stable storage and started with recovering = true. Returns false when
  /// the recovery itself crashed on a storage fault (the host stays down;
  /// retry later — the paper's model allows a process to crash during its
  /// own recovery procedure).
  bool recover(ProcessId p);

  void crash_at(TimePoint t, ProcessId p);
  void recover_at(TimePoint t, ProcessId p);

  /// Arms a crash-point on `p`'s storage: the process crashes at its
  /// `op_index`-th storage operation (lifetime count), in the given phase.
  void crash_at_storage_op(ProcessId p, std::uint64_t op_index,
                           CrashPhase phase) {
    host(p).faulty_storage().arm_crash_at_op(op_index, phase);
  }

  /// Per-host fault-injection decorator (arm crash-points, set profiles).
  FaultyStorage& storage_faults(ProcessId p) {
    return host(p).faulty_storage();
  }

  /// Administratively blocks/unblocks the directed link from `a` to `b`.
  void block_link(ProcessId a, ProcessId b);
  void unblock_link(ProcessId a, ProcessId b);

  /// Drops the next datagram of `type` sent from `a` to `b`: one chosen
  /// channel loss, for tests that need exactly that message to vanish.
  void drop_next(ProcessId a, ProcessId b, MsgType type) {
    drop_next_.insert({a, b, type});
  }

  /// Partitions the group into {members} vs the rest. The default blocks
  /// both directions across the cut; the asymmetric modes block only one
  /// (see PartitionMode). heal_partition removes ALL blocks; use
  /// heal_link / unpartition for surgical repair.
  void partition(const std::vector<ProcessId>& members,
                 PartitionMode mode = PartitionMode::kSymmetric);
  void heal_partition();

  /// Unblocks both directions of one link (per-link heal: a partial repair
  /// that can leave the rest of a cut in place).
  void heal_link(ProcessId a, ProcessId b);

  /// Removes exactly the blocks partition(members, mode) installed, leaving
  /// blocks from other sources (flapping links, other cuts) untouched.
  void unpartition(const std::vector<ProcessId>& members,
                   PartitionMode mode = PartitionMode::kSymmetric);

  /// Per-host gray-failure / skew knobs (see SimHost).
  void set_rx_delay_factor(ProcessId p, double factor) {
    host(p).set_rx_delay_factor(factor);
  }
  void set_timer_scale(ProcessId p, double scale) {
    host(p).set_timer_scale(scale);
  }

  // ---- execution -------------------------------------------------------
  /// Runs until virtual time `t` (events at exactly `t` included).
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now() + d); }

  /// Runs until `pred()` holds (checked after every event) or `deadline`
  /// passes. Returns true if the predicate held.
  bool run_until_pred(const std::function<bool()>& pred, TimePoint deadline);

  /// Fires a single event; returns false when no events remain.
  bool step() { return scheduler_.step(); }

  /// Schedules an arbitrary callback (test hooks, workload generators).
  Scheduler::Token at(TimePoint t, std::function<void()> fn) {
    return scheduler_.schedule_at(t, std::move(fn));
  }
  Scheduler::Token after(Duration d, std::function<void()> fn) {
    return scheduler_.schedule_after(d, std::move(fn));
  }

  // ---- introspection ----------------------------------------------------
  TimePoint now() const { return scheduler_.now(); }
  std::uint32_t n() const { return config_.n; }
  const SimConfig& config() const { return config_; }
  SimHost& host(ProcessId p);
  const NetStats& net_stats() const { return net_stats_; }
  /// Cluster-wide metrics registry (outside every crash boundary).
  obs::MetricsRegistry& metrics_registry() { return registry_; }
  Rng& rng() { return rng_; }
  std::uint64_t events_fired() const { return scheduler_.fired(); }

  /// Protocol stack of `p`, or nullptr while down. Cast to the concrete
  /// stack type to inspect state in tests.
  NodeApp* node(ProcessId p);

 private:
  friend class SimHost;

  void transmit(ProcessId from, ProcessId to, const Wire& msg,
                Duration sender_stall);

  /// Installs or removes the directed cross-cut blocks of one partition.
  void apply_partition(const std::vector<ProcessId>& members,
                       PartitionMode mode, bool install);

  SimConfig config_;
  Rng rng_;
  Scheduler scheduler_;
  obs::MetricsRegistry registry_;
  NodeFactory factory_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::set<std::pair<ProcessId, ProcessId>> blocked_links_;
  std::set<std::tuple<ProcessId, ProcessId, MsgType>> drop_next_;
  NetStats net_stats_;
};

}  // namespace abcast::sim
