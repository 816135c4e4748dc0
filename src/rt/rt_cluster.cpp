#include "rt/rt_cluster.hpp"

#include <chrono>
#include <thread>

#include "common/check.hpp"

namespace abcast::rt {

using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------- RtHost

RtHost::RtHost(RtCluster& cluster, ProcessId id)
    : HostLoop(id, cluster.config_.n, cluster.config_.seed * 1000003 + id,
               cluster.config_.storage_factory
                   ? cluster.config_.storage_factory(id)
                   : nullptr,
               cluster.config_.trace_capacity, &cluster.registry_,
               cluster.epoch_),
      cluster_(cluster) {
  start_loop();
}

void RtHost::send(ProcessId to, const Wire& msg) {
  ABCAST_CHECK(to < group_size());
  outbox_.emplace_back(to, msg);
}

void RtHost::release_output() {
  for (const auto& [to, msg] : outbox_) {
    cluster_.transmit(self(), to, msg, rng());
  }
  outbox_.clear();
}

// -------------------------------------------------------------- RtCluster

RtCluster::RtCluster(RtConfig config)
    : config_(std::move(config)), epoch_(Clock::now()) {
  ABCAST_CHECK(config_.n >= 1);
  hosts_.reserve(config_.n);
  for (ProcessId p = 0; p < config_.n; ++p) {
    hosts_.push_back(std::make_unique<RtHost>(*this, p));
  }
}

RtCluster::~RtCluster() {
  for (auto& h : hosts_) h->shutdown();
}

TimePoint RtCluster::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

RtHost& RtCluster::host(ProcessId p) {
  ABCAST_CHECK(p < hosts_.size());
  return *hosts_[p];
}

void RtCluster::start_all() {
  for (ProcessId p = 0; p < config_.n; ++p) start(p);
}

void RtCluster::start(ProcessId p) {
  ABCAST_CHECK_MSG(static_cast<bool>(factory_), "node factory not set");
  host(p).start_node(factory_, /*recovering=*/false);
}

void RtCluster::crash(ProcessId p) { host(p).crash_node(); }

void RtCluster::recover(ProcessId p) {
  ABCAST_CHECK_MSG(static_cast<bool>(factory_), "node factory not set");
  host(p).start_node(factory_, /*recovering=*/true);
}

bool RtCluster::wait_for(const std::function<bool()>& pred, Duration timeout,
                         Duration poll) const {
  const TimePoint deadline = now() + timeout;
  while (now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::nanoseconds(poll));
  }
  return pred();
}

void RtCluster::transmit(ProcessId from, ProcessId to, const Wire& msg,
                         Rng& rng) {
  ABCAST_CHECK(to < config_.n);
  RtHost& target = host(to);
  if (from == to) {
    target.deliver_at(now(), from, msg);
    return;
  }
  const RtNetConfig& net = config_.net;
  if (rng.chance(net.drop_prob)) return;
  target.deliver_at(now() + rng.uniform(net.delay_min, net.delay_max), from,
                    msg);
  if (rng.chance(net.dup_prob)) {
    target.deliver_at(now() + rng.uniform(net.delay_min, net.delay_max), from,
                      msg);
  }
}

}  // namespace abcast::rt
