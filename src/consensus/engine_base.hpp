// Scaffolding shared by both consensus engines: proposal logging (the
// paper's "log is done as the first operation of the Consensus"), the
// decision log, decided-value retransmission with backoff, and the driver
// tick.
#pragma once

#include <map>
#include <set>

#include "consensus/consensus.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/durable_counter.hpp"
#include "storage/scoped_storage.hpp"

namespace abcast {

class EngineBase : public ConsensusService {
 public:
  void start(bool recovering) final;
  void propose(InstanceId k, const Bytes& value) final;
  std::optional<Bytes> decision(InstanceId k) final;
  void set_decided_callback(DecidedCallback cb) final { decided_cb_ = std::move(cb); }
  bool proposed(InstanceId k) const final { return proposals_.count(k) != 0; }
  bool decided(InstanceId k) const final { return decisions_.count(k) != 0; }
  void offer_decisions(ProcessId to, InstanceId from_k,
                       std::uint32_t max) final;
  void truncate_below(InstanceId k) final;
  InstanceId low_water() const final { return low_water_; }
  void set_obsolete_callback(
      std::function<void(ProcessId, InstanceId)> cb) final {
    obsolete_cb_ = std::move(cb);
  }
  void on_message(ProcessId from, const Wire& msg) final;
  const StorageStats& storage_stats() const final { return storage_.stats(); }
  const ConsensusMetrics& metrics() const final { return metrics_; }

  /// Value bytes held in the proposal map. A decided instance keeps only
  /// its key (the decision log holds the outcome). Regression hook for
  /// value retention under the basic protocol, where nothing truncates.
  std::size_t proposal_value_bytes() const;

 protected:
  /// `decided_type`/`ack_type` are the engine-specific MsgTypes used for the
  /// shared decision-dissemination sub-protocol.
  EngineBase(Env& env, const LeaderOracle& oracle, ConsensusConfig config,
             MsgType decided_type, MsgType ack_type);

  // ---- hooks implemented by the concrete engine -------------------------
  /// Called from start() after proposals/decisions are loaded.
  virtual void engine_start(bool recovering) = 0;
  /// Called once per instance when a (canonical) proposal becomes active.
  virtual void engine_propose(InstanceId k, const Bytes& value) = 0;
  /// Called every tick; drive retries here.
  virtual void engine_tick() = 0;
  /// Engine-specific messages (everything but decided/ack). Never called
  /// for truncated instances.
  virtual void engine_message(ProcessId from, const Wire& msg) = 0;
  /// Volatile per-instance state may be dropped once decided.
  virtual void engine_decided(InstanceId k) = 0;
  /// Durably erase engine-private records of instances below `k` and drop
  /// their volatile state.
  virtual void engine_truncate(InstanceId k) = 0;
  /// A message arrived for an instance this process is quarantined on (see
  /// quarantine_instance). The engine may NOT act on the instance's state,
  /// but it may redirect the sender so the group makes progress without us
  /// (e.g. push it past rounds this process would have coordinated).
  virtual void engine_quarantined_message(ProcessId from, const Wire& msg) {
    (void)from;
    (void)msg;
  }

  // ---- services for the concrete engine ---------------------------------
  /// Records a decision (idempotent): logs it, fires the callback and, when
  /// `i_decided` (we produced the decision rather than learning it), sends
  /// it to every peer at once and retransmits until each one acks.
  void learn_decision(InstanceId k, const Bytes& value, bool i_decided);

  bool has_decision(InstanceId k) const { return decisions_.count(k) != 0; }

  /// Undecided instances the concrete engine holds state for, in id order —
  /// what engine_tick drives, so a tick costs the open instances, not the
  /// whole history. The engine reports each instance it creates
  /// (note_instance) or discards (forget_instance); decisions and
  /// truncation leave the set here.
  void note_instance(InstanceId k) {
    if (!has_decision(k)) undecided_.insert(k);
  }
  void forget_instance(InstanceId k) { undecided_.erase(k); }
  /// Calls `f(k)` for every undecided instance in ascending order. Re-seeks
  /// after each call, so `f` may decide or open instances.
  template <class F>
  void for_each_undecided(F&& f) {
    for (auto it = undecided_.begin(); it != undecided_.end();) {
      const InstanceId k = *it;
      f(k);
      it = undecided_.upper_bound(k);
    }
  }
  const std::map<InstanceId, Bytes>& proposals() const { return proposals_; }

  /// Amnesia containment. An engine that finds its private acceptor record
  /// for instance `k` torn or corrupt must not participate in `k` again:
  /// promises/estimates it durably made are forgotten, and acting as if
  /// they never happened can double-vote an instance. Quarantining drops
  /// every engine message for `k` (the generic decided/ack machinery still
  /// works, so the decision is eventually learned from peers — safe as long
  /// as a majority of acceptors kept their records). Lifted automatically
  /// when the decision for `k` is learned or the instance is truncated.
  void quarantine_instance(InstanceId k);
  bool is_quarantined(InstanceId k) const {
    return quarantined_.count(k) != 0;
  }
  /// Counts a record discarded as torn/corrupt during recovery.
  void note_corrupt_record() { metrics_.corrupt_records += 1; }

  std::uint32_t majority() const { return env_.group_size() / 2 + 1; }

  /// Records a protocol trace event when the host installed a recorder.
  void trace(obs::EventKind kind, InstanceId k, std::uint64_t arg = 0,
             std::string detail = {}) {
    if (tracer_ != nullptr) {
      tracer_->record(kind, env_.now(), k, MsgId{}, arg, std::move(detail));
    }
  }

  Env& env_;
  const LeaderOracle& oracle_;
  ConsensusConfig config_;
  ScopedStorage storage_;
  ConsensusMetrics metrics_;

 private:
  void bind_metrics();
  /// DECIDED dissemination of one fresh decision. `unacked` holds the peers
  /// still owed a copy when this process decided (empty when it learned the
  /// decision); the last copy left, or the decision was learned, at
  /// next_at - interval. The tick drops the entry once nothing is unacked
  /// and next_at has passed.
  struct Retransmit {
    std::set<ProcessId> unacked;
    TimePoint next_at = 0;
    Duration interval = 0;
  };

  void tick();
  /// True while a DECIDED copy of `k` is in flight to every peer lacking
  /// it: our last copy left less than retransmit_initial ago or, at a
  /// learner, the decision arrived that recently (the decider's copies are
  /// out). Repair paths then send no second copy; the decider's
  /// retransmission covers a loss, and a peer still lagging after the gate
  /// keeps sending traffic that is answered then.
  bool copy_in_flight(InstanceId k) const;
  /// Tracks the proposed-but-undecided instance count and mirrors it into
  /// the cons_inflight gauge: 0 or 1 for the sequential proposer, more only
  /// while recovery resumes several logged-but-undecided proposals.
  void adjust_inflight(std::int64_t by) {
    inflight_ += by;
    if (inflight_gauge_ != nullptr) inflight_gauge_->set(inflight_);
  }

  /// Dual-slot low-water mark: a torn write while truncating loses at most
  /// the latest advance, and since records are only erased AFTER the mark
  /// put returns, the surviving (older) mark still covers every completed
  /// erase — the amnesia filter never opens up.
  DurableCounter trunc_mark_;
  MsgType decided_type_;
  MsgType ack_type_;
  DecidedCallback decided_cb_;
  std::function<void(ProcessId, InstanceId)> obsolete_cb_;
  std::map<InstanceId, Bytes> proposals_;
  std::map<InstanceId, Bytes> decisions_;
  std::map<InstanceId, Retransmit> retransmit_;
  std::set<InstanceId> quarantined_;
  std::set<InstanceId> undecided_;  // see note_instance
  InstanceId low_water_ = 0;
  std::int64_t inflight_ = 0;             // proposed ∧ undecided instances
  obs::Gauge* inflight_gauge_ = nullptr;  // registry-owned; may be null
  obs::TraceRecorder* tracer_ = nullptr;  // host-owned; may be null
  bool started_ = false;
  // Declared last: unbinds metrics_ from the registry before it is
  // destroyed (crash destroys this object, not the registry).
  obs::MetricsGroup metrics_group_;
};

}  // namespace abcast
