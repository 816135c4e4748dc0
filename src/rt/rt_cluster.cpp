#include "rt/rt_cluster.hpp"

#include <chrono>
#include <future>

#include "common/check.hpp"

namespace abcast::rt {

using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------- RtHost

RtHost::RtHost(RtCluster& cluster, ProcessId id)
    : cluster_(cluster), id_(id),
      rng_(cluster.config_.seed * 1000003 + id),
      storage_(cluster.config_.storage_factory
                   ? cluster.config_.storage_factory(id)
                   : std::make_unique<MemStableStorage>()) {
  if (cluster.config_.trace_capacity > 0) {
    recorder_ = std::make_unique<obs::TraceRecorder>(
        id, cluster.config_.trace_capacity);
    recorder_->set_clock([this] { return now(); });
    tracing_storage_ = std::make_unique<TracingStorage>(
        *storage_, *recorder_, [this] { return now(); });
  }
  thread_ = std::thread([this] { loop(); });
}

obs::MetricsRegistry* RtHost::metrics_registry() {
  return &cluster_.metrics_registry();
}

RtHost::~RtHost() { shutdown(); }

void RtHost::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::uint32_t RtHost::group_size() const { return cluster_.n(); }

TimePoint RtHost::now() const { return cluster_.now(); }

TimerId RtHost::schedule_after(Duration delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  std::lock_guard<std::mutex> lock(mu_);
  Task t;
  t.due = now() + delay;
  t.seq = next_seq_++;
  t.incarnation = incarnation_;
  t.only_if_up = true;
  t.fn = std::move(fn);
  const TimerId id = t.seq;
  live_timers_.insert(id);
  tasks_.push(std::move(t));
  cv_.notify_all();
  return id;
}

void RtHost::cancel_timer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Cancel-after-fire (or of a previous incarnation's timer) finds nothing
  // to erase, so it leaves no tombstone behind.
  live_timers_.erase(id);
}

std::size_t RtHost::pending_timer_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_timers_.size();
}

void RtHost::send(ProcessId to, const Wire& msg) {
  cluster_.transmit(id_, to, msg, rng_);
}

void RtHost::enqueue(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    task.seq = next_seq_++;
    tasks_.push(std::move(task));
  }
  cv_.notify_all();
}

void RtHost::enqueue_message(TimePoint due, ProcessId from, Wire msg) {
  Task t;
  t.due = due;
  t.incarnation = 0;  // network delivery: dropped (not deferred) when down
  t.only_if_up = true;
  t.fn = [this, from, m = std::move(msg)] {
    if (node_) node_->on_message(from, m);
  };
  enqueue(std::move(t));
}

void RtHost::post(std::function<void()> fn, bool only_if_up) {
  Task t;
  t.due = now();
  t.incarnation = 0;
  t.only_if_up = only_if_up;
  t.fn = [this, only_if_up, f = std::move(fn)] {
    if (only_if_up && node_ == nullptr) return;
    f();
  };
  enqueue(std::move(t));
}

bool RtHost::call(const std::function<void()>& fn) {
  // External threads only; calling from the host thread would self-deadlock.
  ABCAST_CHECK(std::this_thread::get_id() != thread_.get_id());
  std::promise<bool> done;
  Task t;
  t.due = now();
  t.incarnation = 0;
  t.only_if_up = false;
  t.fn = [this, &fn, &done] {
    if (node_ == nullptr) {
      done.set_value(false);
      return;
    }
    fn();
    done.set_value(true);
  };
  enqueue(std::move(t));
  return done.get_future().get();
}

void RtHost::start_node(const NodeFactory& factory, bool recovering) {
  ABCAST_CHECK(std::this_thread::get_id() != thread_.get_id());
  std::promise<void> done;
  Task t;
  t.due = now();
  t.incarnation = 0;
  t.only_if_up = false;
  t.fn = [this, &factory, recovering, &done] {
    ABCAST_CHECK_MSG(node_ == nullptr, "rt process already up");
    if (recovering && recorder_) {
      recorder_->record(obs::EventKind::kRecoverBegin, now());
    }
    node_ = factory(*this);
    up_.store(true);
    node_->start(recovering);
    if (recovering && recorder_) {
      recorder_->record(obs::EventKind::kRecoverEnd, now());
    }
    done.set_value();
  };
  enqueue(std::move(t));
  done.get_future().get();
}

void RtHost::crash_node() {
  ABCAST_CHECK(std::this_thread::get_id() != thread_.get_id());
  std::promise<void> done;
  Task t;
  t.due = now();
  t.incarnation = 0;
  t.only_if_up = false;
  t.fn = [this, &done] {
    ABCAST_CHECK_MSG(node_ != nullptr, "rt process already down");
    up_.store(false);
    node_.reset();  // volatile state dies here
    if (recorder_) recorder_->record(obs::EventKind::kCrash, now());
    {
      std::lock_guard<std::mutex> lock(mu_);
      incarnation_ += 1;  // pending timers become stale
      live_timers_.clear();
    }
    done.set_value();
  };
  enqueue(std::move(t));
  done.get_future().get();
}

void RtHost::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (tasks_.empty()) {
      cv_.wait(lock);
      continue;
    }
    const TimePoint due = tasks_.top().due;
    const TimePoint current = now();
    if (due > current) {
      cv_.wait_for(lock, std::chrono::nanoseconds(due - current));
      continue;
    }
    // Moving the callback out leaves due/seq intact, so pop() still finds
    // the heap consistent.
    Task task = std::move(const_cast<Task&>(tasks_.top()));
    tasks_.pop();
    // Timer bookkeeping: skip cancelled or stale-incarnation timers.
    if (task.incarnation != 0) {
      if (task.incarnation != incarnation_) continue;
      if (live_timers_.erase(task.seq) == 0) continue;  // cancelled
      if (node_ == nullptr) continue;
    }
    lock.unlock();
    task.fn();
    lock.lock();
  }
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
    target.enqueue_message(now(), from, msg);
    return;
  }
  const RtNetConfig& net = config_.net;
  if (rng.chance(net.drop_prob)) return;
  target.enqueue_message(now() + rng.uniform(net.delay_min, net.delay_max),
                         from, msg);
  if (rng.chance(net.dup_prob)) {
    target.enqueue_message(now() + rng.uniform(net.delay_min, net.delay_max),
                           from, msg);
  }
}

}  // namespace abcast::rt
