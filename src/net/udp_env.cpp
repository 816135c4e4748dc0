#include "net/udp_env.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <future>
#include <stdexcept>

#include "common/check.hpp"
#include "common/codec.hpp"

namespace abcast::net {
namespace {

constexpr std::size_t kMaxDatagram = 64 * 1024;

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
    : config_(std::move(config)),
      rng_(config_.seed * 7919 + config_.self),
      storage_(config_.storage_factory ? config_.storage_factory()
                                       : std::make_unique<MemStableStorage>()),
      epoch_(std::chrono::steady_clock::now()) {
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

  if (::pipe(wake_fds_) != 0) {
    ::close(fd_);
    throw std::runtime_error("pipe() failed");
  }
  const int wf = ::fcntl(wake_fds_[0], F_GETFL, 0);
  ::fcntl(wake_fds_[0], F_SETFL, wf | O_NONBLOCK);

  thread_ = std::thread([this] { loop(); });
}

UdpHost::~UdpHost() {
  shutdown();
  if (fd_ >= 0) ::close(fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void UdpHost::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void UdpHost::wake() {
  const char b = 1;
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &b, 1);
}

TimePoint UdpHost::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TimerId UdpHost::schedule_after(Duration delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Task t;
    t.due = now() + delay;
    t.seq = next_seq_++;
    t.incarnation = incarnation_;
    t.fn = std::move(fn);
    id = t.seq;
    live_timers_.insert(id);
    tasks_.push(std::move(t));
  }
  wake();
  return id;
}

void UdpHost::cancel_timer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Erasing from the live set both cancels the timer and bounds the
  // bookkeeping: an id for a timer that already fired (or belonged to a
  // previous incarnation) is simply absent, so cancel-after-fire is a no-op
  // instead of a leaked tombstone.
  live_timers_.erase(id);
}

std::size_t UdpHost::pending_timer_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_timers_.size();
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

void UdpHost::send_frame(ProcessId to, const Bytes& frame) {
  if (frame.size() > kMaxDatagram) {
    metrics_.send_failures += 1;  // UDP cannot carry it; drop (unreliable)
    return;
  }
  sockaddr_in addr;
  fill_dest(to, &addr);
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

void UdpHost::queue_frame(ProcessId to, const SharedBytes& frame) {
  if (frame.size() > kMaxDatagram) {
    metrics_.send_failures += 1;
    return;
  }
  send_queue_.push_back(PendingSend{to, frame});
}

void UdpHost::send(ProcessId to, const Wire& msg) {
  ABCAST_CHECK(to < peer_addrs_.size());
  if (config_.batch.enabled) {
    queue_frame(to, SharedBytes(make_frame(msg)));
  } else {
    send_frame(to, make_frame(msg));
  }
}

void UdpHost::multisend(const Wire& msg) {
  if (config_.batch.enabled) {
    // One encode, one refcounted frame, group_size() queue entries — and
    // (send_batch permitting) one sendmmsg for the lot at the pass flush.
    const SharedBytes frame(make_frame(msg));
    for (ProcessId to = 0; to < group_size(); ++to) queue_frame(to, frame);
    return;
  }
  const Bytes frame = make_frame(msg);  // one encode for all recipients
  for (ProcessId to = 0; to < group_size(); ++to) send_frame(to, frame);
}

void UdpHost::flush_send_queue() {
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
      break;
    }
    metrics_.send_datagrams += static_cast<std::uint64_t>(sent);
    done += static_cast<std::size_t>(sent);
  }
  send_queue_.clear();
}

void UdpHost::flush_io() {
  // Durability BEFORE visibility: a deferred-sync storage backend must make
  // this pass's log records crash-proof before any datagram that could
  // reveal them leaves the process (DESIGN.md §16). Throwing here follows
  // the StorageIoError contract: log either completes or the process dies.
  storage_->flush();
  if (!send_queue_.empty()) flush_send_queue();
}

void UdpHost::start_node(const NodeFactory& factory, bool recovering) {
  std::promise<void> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Task t;
    t.due = now();
    t.seq = next_seq_++;
    t.fn = [this, &factory, recovering, &done] {
      ABCAST_CHECK_MSG(node_ == nullptr, "udp node already up");
      node_ = factory(*this);
      up_.store(true);
      node_->start(recovering);
      done.set_value();
    };
    tasks_.push(std::move(t));
  }
  wake();
  done.get_future().get();
}

void UdpHost::crash_node() {
  std::promise<void> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Task t;
    t.due = now();
    t.seq = next_seq_++;
    t.fn = [this, &done] {
      ABCAST_CHECK_MSG(node_ != nullptr, "udp node already down");
      up_.store(false);
      node_.reset();
      send_queue_.clear();  // unsent datagrams die with the process
      {
        std::lock_guard<std::mutex> inner(mu_);
        incarnation_ += 1;
        live_timers_.clear();  // ids of the dead incarnation can never fire
      }
      done.set_value();
    };
    tasks_.push(std::move(t));
  }
  wake();
  done.get_future().get();
}

bool UdpHost::call(const std::function<void()>& fn) {
  ABCAST_CHECK(std::this_thread::get_id() != thread_.get_id());
  std::promise<bool> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Task t;
    t.due = now();
    t.seq = next_seq_++;
    t.fn = [this, &fn, &done] {
      if (node_ == nullptr) {
        done.set_value(false);
        return;
      }
      fn();
      done.set_value(true);
    };
    tasks_.push(std::move(t));
  }
  wake();
  return done.get_future().get();
}

void UdpHost::handle_datagram(const std::uint8_t* data, std::size_t size) {
  if (node_ == nullptr) return;  // down: arriving datagrams are lost
  try {
    BufReader r(data, size);
    const ProcessId from = r.u32();
    const Wire wire = Wire::decode(r);
    r.expect_done();
    if (from >= config_.peers.size()) return;
    node_->on_message(from, wire);
  } catch (const CodecError&) {
    // Malformed datagram (stray traffic): drop, as UDP semantics allow.
  }
}

void UdpHost::drain_socket() {
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

void UdpHost::loop() {
  for (;;) {
    // End-of-pass I/O barrier: everything the previous pass logged becomes
    // durable, then everything it queued goes out, then we sleep.
    flush_io();

    // Compute poll timeout from the earliest due task.
    int timeout_ms = 1000;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      if (!tasks_.empty()) {
        const auto wait = tasks_.top().due - now();
        timeout_ms = wait <= 0 ? 0 : static_cast<int>(wait / 1'000'000 + 1);
      }
    }

    pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    fds[1] = {wake_fds_[0], POLLIN, 0};
    const int pr = ::poll(fds, 2, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      // Unspecified revents on failure: fall through with the zeroed
      // revents so due tasks still run, rather than reading garbage.
      fds[0].revents = 0;
      fds[1].revents = 0;
    }

    if (fds[1].revents & POLLIN) {
      std::uint8_t sink[64];
      while (::read(wake_fds_[0], sink, sizeof sink) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) drain_socket();

    // Run everything due.
    for (;;) {
      Task task;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
        if (tasks_.empty() || tasks_.top().due > now()) break;
        // Moving the callback out leaves due/seq intact for pop().
        task = std::move(const_cast<Task&>(tasks_.top()));
        tasks_.pop();
        if (task.incarnation != 0) {
          if (task.incarnation != incarnation_) continue;
          // Fire only timers still alive; erasing keeps the table bounded
          // by outstanding timers (cancel/fire both remove the entry).
          if (live_timers_.erase(task.seq) == 0) continue;
          if (node_ == nullptr) continue;
        }
      }
      task.fn();
    }
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
