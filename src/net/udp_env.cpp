#include "net/udp_env.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/check.hpp"
#include "common/codec.hpp"

namespace abcast::net {
namespace {

/// The length make_frame gives `msg`: sender pid, type, payload length and
/// payload.
std::size_t frame_size(const Wire& msg) {
  return sizeof(std::uint32_t) + sizeof(std::uint16_t) +
         sizeof(std::uint32_t) + msg.payload.size();
}

int make_udp_socket(const std::string& host, std::uint16_t port,
                    std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("bind() failed on " + host + ":" +
                             std::to_string(port));
  }
  sockaddr_in actual{};
  socklen_t len = sizeof actual;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len);
  *bound_port = ntohs(actual.sin_port);
  return fd;
}

}  // namespace

UdpHost::UdpHost(UdpConfig config)
    : HostLoop(config.self, static_cast<std::uint32_t>(config.peers.size()),
               config.seed * 7919 + config.self,
               config.storage_factory ? config.storage_factory() : nullptr,
               /*trace_capacity=*/0, config.registry,
               std::chrono::steady_clock::now()),
      config_(std::move(config)) {
  ABCAST_CHECK(config_.self < config_.peers.size());

  if (config_.prebound_fd >= 0) {
    // Adopt a socket bound by the caller (make_local_udp_cluster binds the
    // whole peer table before constructing any host).
    fd_ = config_.prebound_fd;
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    sockaddr_in actual{};
    socklen_t len = sizeof actual;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&actual), &len);
    local_port_ = ntohs(actual.sin_port);
  } else {
    const auto& me = config_.peers[config_.self];
    fd_ = make_udp_socket(me.host, me.port, &local_port_);
  }

  // Resolve peers once; index = pid.
  for (const auto& peer : config_.peers) {
    std::uint32_t ip = 0;
    if (::inet_pton(AF_INET, peer.host.c_str(), &ip) != 1) {
      ::close(fd_);
      throw std::runtime_error("bad peer address: " + peer.host);
    }
    peer_addrs_.emplace_back(ip, peer.port);
  }

  if (config_.batch.enabled) {
    ABCAST_CHECK(config_.batch.recv_batch >= 1);
    ABCAST_CHECK(config_.batch.send_batch >= 1);
    recv_ring_.assign(config_.batch.recv_batch, Bytes(kMaxDatagram));
    recv_hdrs_.resize(config_.batch.recv_batch);
    recv_iovs_.resize(config_.batch.recv_batch);
    recv_addrs_.resize(config_.batch.recv_batch);
    send_hdrs_.resize(config_.batch.send_batch);
    send_iovs_.resize(config_.batch.send_batch);
    send_addrs_.resize(config_.batch.send_batch);
  }

  if (config_.registry != nullptr) {
    const obs::Labels labels{{"node", std::to_string(config_.self)}};
    metrics_group_ = config_.registry->group();
    metrics_group_.bind("net_send_syscalls", labels, &metrics_.send_syscalls);
    metrics_group_.bind("net_send_datagrams", labels,
                        &metrics_.send_datagrams);
    metrics_group_.bind("net_send_failures", labels, &metrics_.send_failures);
    metrics_group_.bind("net_recv_syscalls", labels, &metrics_.recv_syscalls);
    metrics_group_.bind("net_recv_datagrams", labels,
                        &metrics_.recv_datagrams);
    metrics_group_.bind("net_recv_errors", labels, &metrics_.recv_errors);
  }

  start_loop();
}

UdpHost::~UdpHost() {
  shutdown();
  if (fd_ >= 0) ::close(fd_);
}

Bytes UdpHost::make_frame(const Wire& msg) const {
  BufWriter w;
  w.u32(config_.self);  // frame: sender pid + wire
  msg.encode(w);
  return std::move(w).take();
}

void UdpHost::fill_dest(ProcessId to, sockaddr_in* addr) const {
  std::memset(addr, 0, sizeof *addr);
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = peer_addrs_[to].first;
  addr->sin_port = htons(peer_addrs_[to].second);
}

void UdpHost::queue_frame(ProcessId to, const SharedBytes& frame) {
  if (frame.size() > kMaxDatagram) {
    metrics_.send_failures += 1;  // UDP cannot carry it; drop (unreliable)
    return;
  }
  send_queue_.push_back(PendingSend{to, frame});
}

void UdpHost::queue_self(const Wire& msg, std::size_t frame_bytes) {
  // Held to the datagram limit like any other frame, so a message is
  // dropped or delivered the same whoever it is addressed to.
  if (frame_bytes > kMaxDatagram) {
    metrics_.send_failures += 1;
    return;
  }
  self_queue_.push_back(msg);
}

void UdpHost::send(ProcessId to, const Wire& msg) {
  ABCAST_CHECK(to < peer_addrs_.size());
  if (to == self()) {
    queue_self(msg, frame_size(msg));
  } else {
    queue_frame(to, SharedBytes(make_frame(msg)));
  }
}

void UdpHost::multisend(const Wire& msg) {
  const SharedBytes frame(make_frame(msg));  // one encode for all recipients
  for (ProcessId to = 0; to < group_size(); ++to) {
    if (to == self()) {
      queue_self(msg, frame.size());
    } else {
      queue_frame(to, frame);
    }
  }
}

void UdpHost::release_output() {
  // Self-addressed messages never touch the socket: they become loop tasks
  // due now, handled after this barrier like any received datagram.
  for (Wire& msg : self_queue_) deliver_at(now(), self(), std::move(msg));
  self_queue_.clear();
  if (send_queue_.empty()) return;
  if (config_.batch.enabled) {
    send_queue_batched();
  } else {
    for (const PendingSend& p : send_queue_) {
      const Bytes& frame = p.frame.get();
      sockaddr_in addr;
      fill_dest(p.to, &addr);
      const auto n =
          ::sendto(fd_, frame.data(), frame.size(), 0,
                   reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
      metrics_.send_syscalls += 1;
      if (n < 0) {
        metrics_.send_failures += 1;  // full buffers etc.: a lost
                                      // datagram, which UDP permits
      } else {
        metrics_.send_datagrams += 1;
      }
    }
  }
  send_queue_.clear();
}

void UdpHost::send_queue_batched() {
  std::size_t done = 0;
  while (done < send_queue_.size()) {
    const std::size_t batch = std::min<std::size_t>(
        config_.batch.send_batch, send_queue_.size() - done);
    for (std::size_t i = 0; i < batch; ++i) {
      const PendingSend& p = send_queue_[done + i];
      const Bytes& frame = p.frame.get();
      send_iovs_[i].iov_base = const_cast<std::uint8_t*>(frame.data());
      send_iovs_[i].iov_len = frame.size();
      fill_dest(p.to, &send_addrs_[i]);
      std::memset(&send_hdrs_[i], 0, sizeof send_hdrs_[i]);
      send_hdrs_[i].msg_hdr.msg_name = &send_addrs_[i];
      send_hdrs_[i].msg_hdr.msg_namelen = sizeof send_addrs_[i];
      send_hdrs_[i].msg_hdr.msg_iov = &send_iovs_[i];
      send_hdrs_[i].msg_hdr.msg_iovlen = 1;
    }
    const int sent = ::sendmmsg(fd_, send_hdrs_.data(),
                                static_cast<unsigned>(batch), 0);
    metrics_.send_syscalls += 1;
    if (sent < 0) {
      if (errno == EINTR) continue;
      // EAGAIN / hard error: drop the rest of the queue. Same contract as
      // the unbatched path's failed sendto — a lost datagram, which the
      // protocol's retransmission machinery already tolerates.
      metrics_.send_failures += send_queue_.size() - done;
      return;
    }
    metrics_.send_datagrams += static_cast<std::uint64_t>(sent);
    done += static_cast<std::size_t>(sent);
  }
}

void UdpHost::handle_datagram(const std::uint8_t* data, std::size_t size) {
  NodeApp* node = node_unsafe();
  if (node == nullptr) return;  // down: arriving datagrams are lost
  try {
    BufReader r(data, size);
    const ProcessId from = r.u32();
    const Wire wire = Wire::decode(r);
    r.expect_done();
    if (from >= config_.peers.size()) return;
    node->on_message(from, wire);
  } catch (const CodecError&) {
    // Malformed datagram (stray traffic): drop, as UDP semantics allow.
  }
}

void UdpHost::drain_input() {
  if (config_.batch.enabled) {
    drain_socket_batched();
    return;
  }
  std::uint8_t buf[kMaxDatagram];
  for (;;) {
    const auto n = ::recvfrom(fd_, buf, sizeof buf, 0, nullptr, nullptr);
    metrics_.recv_syscalls += 1;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) metrics_.recv_errors += 1;
      return;  // would-block: socket drained; real errors are counted
    }
    metrics_.recv_datagrams += 1;
    handle_datagram(buf, static_cast<std::size_t>(n));
  }
}

void UdpHost::drain_socket_batched() {
  const unsigned batch = config_.batch.recv_batch;
  for (;;) {
    for (unsigned i = 0; i < batch; ++i) {
      recv_iovs_[i].iov_base = recv_ring_[i].data();
      recv_iovs_[i].iov_len = recv_ring_[i].size();
      std::memset(&recv_hdrs_[i], 0, sizeof recv_hdrs_[i]);
      recv_hdrs_[i].msg_hdr.msg_name = &recv_addrs_[i];
      recv_hdrs_[i].msg_hdr.msg_namelen = sizeof recv_addrs_[i];
      recv_hdrs_[i].msg_hdr.msg_iov = &recv_iovs_[i];
      recv_hdrs_[i].msg_hdr.msg_iovlen = 1;
    }
    const int n = ::recvmmsg(fd_, recv_hdrs_.data(), batch, 0, nullptr);
    metrics_.recv_syscalls += 1;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) metrics_.recv_errors += 1;
      return;
    }
    metrics_.recv_datagrams += static_cast<std::uint64_t>(n);
    for (int i = 0; i < n; ++i) {
      handle_datagram(recv_ring_[static_cast<std::size_t>(i)].data(),
                      recv_hdrs_[static_cast<std::size_t>(i)].msg_len);
    }
    if (static_cast<unsigned>(n) < batch) return;  // socket drained
  }
}

std::vector<std::unique_ptr<UdpHost>> make_local_udp_cluster(
    std::uint32_t n, std::uint64_t seed, const UdpBatchConfig& batch,
    obs::MetricsRegistry* registry,
    std::function<std::unique_ptr<StableStorage>()> storage_factory) {
  ABCAST_CHECK(n >= 1);
  // Bind every socket up front, then hand the live fds to the hosts via
  // UdpConfig::prebound_fd. Each port is bound exactly once and never
  // released, so the old reserve/close/rebind race (another process
  // grabbing the port inside the window) cannot happen.
  std::vector<int> fds(n, -1);
  std::vector<std::uint16_t> ports(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    fds[i] = make_udp_socket("127.0.0.1", 0, &ports[i]);
  }
  std::vector<UdpPeer> peers;
  for (std::uint32_t i = 0; i < n; ++i) {
    peers.push_back(UdpPeer{"127.0.0.1", ports[i]});
  }
  std::vector<std::unique_ptr<UdpHost>> hosts;
  for (std::uint32_t i = 0; i < n; ++i) {
    UdpConfig cfg;
    cfg.self = i;
    cfg.peers = peers;
    cfg.seed = seed;
    cfg.batch = batch;
    cfg.prebound_fd = fds[i];
    cfg.registry = registry;
    cfg.storage_factory = storage_factory;
    try {
      hosts.push_back(std::make_unique<UdpHost>(cfg));
    } catch (...) {
      for (std::uint32_t j = i; j < n; ++j) ::close(fds[j]);
      throw;
    }
    fds[i] = -1;  // ownership transferred
  }
  return hosts;
}

}  // namespace abcast::net
