// Span recorder for the traced benchmark run.
//
// One recorder per replica, written only by that replica's event-loop
// thread (every decorator call and every UdpHost::call body runs there).
// A span is opened at a layer boundary and closed when the call returns;
// spans are appended in entry order with their nesting depth, so the
// parent of a span is the nearest earlier span one level up. Each span
// keeps its wall-clock duration (latency percentiles) and its thread-CPU
// duration (the per-layer CPU ledger). Spans stay in memory and are
// written out once the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Layers a span is charged to. Inbound datagrams are split by MsgType;
/// storage and state-machine calls by operation.
enum class Layer : std::uint8_t {
  kTimer,        // a protocol timer callback (stack.*)
  kConsensusRx,  // Paxos datagram handling (consensus.*)
  kGossipRx,     // full-set or digest gossip handling (core.*)
  kStateRx,      // catch-up state chunk handling (core.*)
  kFdRx,         // failure-detector heartbeat handling (fd.*)
  kOtherRx,      // any other datagram type
  kSubmit,       // RsmNode::submit, including the unordered-set log
  kRestart,      // stack construction and start() (initial or recovery)
  kStoragePut,
  kStorageGet,
  kStorageErase,
  kStorageScan,  // keys_with_prefix
  kStorageFlush,
  kApply,        // StateMachine::apply
  kCheckpoint,   // StateMachine::snapshot / restore
  kCount,
};

const char* layer_name(Layer layer);

struct Span {
  std::int64_t start_ns = 0;  // wall clock, benchmark epoch
  std::int64_t wall_ns = 0;   // duration (while open: 0)
  std::int64_t cpu_ns = 0;    // thread CPU duration (while open: start)
  std::uint32_t arg = 0;      // bytes or similar, per layer
  Layer layer = Layer::kTimer;
  std::uint8_t depth = 0;
};

/// Self time of one span: its duration minus its direct children's.
struct SelfTime {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
};

/// Computes each span's self time from the entry-ordered, depth-tagged
/// sequence. A span whose parent lies outside `spans` counts as a root.
std::vector<SelfTime> self_times(const std::vector<Span>& spans,
                                 std::size_t begin, std::size_t end);

/// Wall-clock nanoseconds since the benchmark's epoch (steady clock).
std::int64_t wall_now_ns();
/// CPU nanoseconds consumed by the calling thread.
std::int64_t thread_cpu_ns();

struct LeaderChange {
  std::int64_t at_ns = 0;
  std::uint32_t leader = 0;
};

/// Per-replica span store plus the counters taken at the same boundaries.
/// Lives outside the crash boundary, so it spans every incarnation.
class SpanRecorder {
 public:
  std::size_t open(Layer layer, std::uint32_t arg) {
    Span s;
    s.start_ns = wall_now_ns();
    s.cpu_ns = thread_cpu_ns();
    s.arg = arg;
    s.layer = layer;
    s.depth = depth_++;
    spans_.push_back(s);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    Span& s = spans_[index];
    s.cpu_ns = thread_cpu_ns() - s.cpu_ns;
    s.wall_ns = wall_now_ns() - s.start_ns;
    --depth_;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Writes one tab-separated line per span.
  void write(const std::string& path) const;

  /// Counts taken at the decorators; copied at the window's edges.
  struct Counters {
    std::uint64_t tx_datagrams[static_cast<int>(Layer::kCount)] = {};
    std::uint64_t tx_bytes[static_cast<int>(Layer::kCount)] = {};
    std::uint64_t rx_datagrams[static_cast<int>(Layer::kCount)] = {};
    std::uint64_t timer_fires = 0;
    std::uint64_t prop_puts = 0;       // first proposal logs (cons/prop/k)
    std::uint64_t dec_puts = 0;        // decision logs (cons/dec/k)
    std::uint64_t recovery_reads = 0;  // gets/scans inside a recovering start
  };
  Counters counters;
  std::uint64_t max_frame_bytes = 0;
  bool recovering = false;
  /// A put or erase happened since the last flush (the flush has work).
  bool dirty = false;

  /// (time of the decision log, proposal-to-decision latency), one per
  /// instance this replica both proposed and decided.
  std::vector<std::pair<std::int64_t, std::int64_t>> decide_ns;
  /// (time, sealed decision record size), one per decision log.
  std::vector<std::pair<std::int64_t, std::uint32_t>> value_bytes;
  /// Proposal log time per instance, waiting for the decision.
  std::unordered_map<std::uint64_t, std::int64_t> pending_props;

  std::vector<LeaderChange> leader_changes;
  std::uint32_t last_leader = ~0u;

 private:
  std::vector<Span> spans_;
  std::uint8_t depth_ = 0;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, Layer layer, std::uint32_t arg = 0)
      : rec_(rec), index_(rec.open(layer, arg)) {}
  ~SpanScope() { rec_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  std::size_t index_;
};

}  // namespace perfbench
