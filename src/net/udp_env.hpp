// Real network transport: the Env interface over UDP sockets.
//
// The paper's transport (§3.1) is an unreliable, duplicating, non-FIFO
// datagram service with fair-lossy channels — which is exactly what UDP
// is. This host runs one process of the group over a real socket: every
// protocol retransmission mechanism (gossip, consensus retries, decided
// backoff, fill ticks) that the simulator exercised against injected loss
// here covers genuine kernel-buffer drops and datagram loss.
//
// The host is a host::HostLoop (one event-loop thread, timers,
// crash/recover) whose transport is one nonblocking socket the loop polls.
// Datagrams are framed as [u32 sender pid][Wire]; anything malformed or
// from an unknown peer is dropped (CodecError can never propagate past the
// loop — unreliable transport semantics).
//
// send()/multisend() only queue frames (a multisend queues one refcounted
// frame per peer over a single encode). A message addressed to this process
// skips the kernel: it is queued as a Wire and, at release, handed back to
// the loop as a task due now. The loop's end-of-pass barrier runs
// storage().flush() BEFORE the queue is released, so a deferred-sync backend
// (SegmentedLogStorage) is externally indistinguishable from a synchronous
// one, and one fdatasync covers every record the pass appended (DESIGN.md
// §16). The release issues one sendto() per datagram, or with
// UdpBatchConfig::enabled one sendmmsg() per send_batch datagrams, each
// mmsghdr carrying its own destination. Inbound, batching drains up to recv_batch datagrams per
// recvmmsg() into a preallocated buffer ring feeding the same decode path.
//
// Limitations (documented, inherent to UDP): a frame larger than
// kMaxDatagram (env/wire.hpp) cannot be sent and is dropped, so deployments
// with long histories should enable application checkpointing + trimmed
// state transfer to keep state messages small.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/relaxed_counter.hpp"
#include "host/host_loop.hpp"
#include "obs/metrics.hpp"
#include "storage/mem_storage.hpp"

// Forward-declared here so the header stays free of <sys/socket.h>; defined
// in the .cpp against the real kernel structs.
struct mmsghdr;
struct iovec;
struct sockaddr_in;

namespace abcast::net {

/// A peer endpoint (IPv4). Index in the peer table = ProcessId.
struct UdpPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Syscall batching knobs. Off by default: the one-syscall-per-datagram
/// path remains the reference behavior; benches and tests flip this on to
/// measure/exercise the batched engine.
struct UdpBatchConfig {
  bool enabled = false;
  /// Max datagrams drained per recvmmsg() call (buffer ring size).
  std::uint32_t recv_batch = 16;
  /// Max datagrams flushed per sendmmsg() call.
  std::uint32_t send_batch = 16;
};

/// Transport-level counters, bound into the metrics registry (when one is
/// configured) under net_* names — see EXPERIMENTS.md metrics index. The
/// syscall/datagram pairs are what the batching bench reads: batching on
/// should show send_syscalls << send_datagrams.
struct NetMetrics {
  RelaxedU64 send_syscalls;   // sendto/sendmmsg calls issued
  RelaxedU64 send_datagrams;  // datagrams handed to the kernel
  RelaxedU64 send_failures;   // oversized or kernel-rejected datagrams
  RelaxedU64 recv_syscalls;   // recvfrom/recvmmsg calls issued
  RelaxedU64 recv_datagrams;  // datagrams received
  RelaxedU64 recv_errors;     // receive-side errno other than would-block
};

struct UdpConfig {
  ProcessId self = 0;
  std::vector<UdpPeer> peers;
  std::uint64_t seed = 1;
  /// Stable storage for this host; defaults to MemStableStorage.
  std::function<std::unique_ptr<StableStorage>()> storage_factory;
  UdpBatchConfig batch;
  /// An already-bound UDP socket to adopt instead of binding
  /// peers[self] (ownership transfers; the host closes it). This is how
  /// make_local_udp_cluster avoids the classic reserve/release/rebind port
  /// race: every socket is bound exactly once, before any host starts.
  int prebound_fd = -1;
  /// Optional registry for net_* counter bindings; must outlive the host.
  obs::MetricsRegistry* registry = nullptr;
};

class UdpHost final : public host::HostLoop {
 public:
  /// Binds a socket to peers[config.self] (port 0 = ephemeral; see
  /// local_port()) — or adopts config.prebound_fd — and starts the event
  /// loop. Throws std::runtime_error on socket errors.
  explicit UdpHost(UdpConfig config);
  ~UdpHost() override;

  // Env (called from the event-loop thread only)
  void send(ProcessId to, const Wire& msg) override;
  /// Frames the datagram once ([u32 self][Wire]) and queues it for every
  /// peer — one encode per multisend instead of one per recipient; the
  /// queue entries share one refcounted frame.
  void multisend(const Wire& msg) override;

  /// The actually bound port (useful when configured with port 0).
  std::uint16_t local_port() const { return local_port_; }

  /// Datagrams that failed to send (e.g. oversized) — observability for
  /// the UDP size limitation.
  std::uint64_t send_failures() const {
    return metrics_.send_failures.load();
  }
  const NetMetrics& net_metrics() const { return metrics_; }

 private:
  /// One queued outbound datagram.
  struct PendingSend {
    ProcessId to = 0;
    SharedBytes frame;
  };

  int input_fd() const override { return fd_; }
  void drain_input() override;
  void release_output() override;
  void discard_output() override {
    send_queue_.clear();
    self_queue_.clear();
  }

  void drain_socket_batched();
  void handle_datagram(const std::uint8_t* data, std::size_t size);
  void send_queue_batched();
  Bytes make_frame(const Wire& msg) const;
  void queue_frame(ProcessId to, const SharedBytes& frame);
  /// Queues a message to this process; `frame_bytes` is the datagram it
  /// would have been.
  void queue_self(const Wire& msg, std::size_t frame_bytes);
  void fill_dest(ProcessId to, sockaddr_in* addr) const;

  UdpConfig config_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint16_t>> peer_addrs_;

  NetMetrics metrics_;
  obs::MetricsGroup metrics_group_;

  // Event-loop thread only (Env serializes callbacks).
  std::vector<PendingSend> send_queue_;
  std::vector<Wire> self_queue_;
  // Batched-I/O state: recv_batch preallocated datagram buffers and the
  // syscall headers, sized once.
  std::vector<Bytes> recv_ring_;
  std::vector<mmsghdr> send_hdrs_, recv_hdrs_;
  std::vector<iovec> send_iovs_, recv_iovs_;
  std::vector<sockaddr_in> send_addrs_, recv_addrs_;
};

/// Convenience for tests and demos: builds n hosts on ephemeral localhost
/// ports and wires their peer tables together. All sockets are bound before
/// any host is constructed (via UdpConfig::prebound_fd), so there is no
/// window where a reserved port could be lost to another process.
std::vector<std::unique_ptr<UdpHost>> make_local_udp_cluster(
    std::uint32_t n, std::uint64_t seed = 1, const UdpBatchConfig& batch = {},
    obs::MetricsRegistry* registry = nullptr,
    std::function<std::unique_ptr<StableStorage>()> storage_factory = {});

}  // namespace abcast::net
