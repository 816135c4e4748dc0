#include "host/host_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <future>
#include <stdexcept>

#include "common/check.hpp"
#include "storage/mem_storage.hpp"

namespace abcast::host {
namespace {

// The HostLoop whose thread is the current one, if any. Work queued from
// the loop thread needs no wake-up: the loop recomputes its poll timeout
// before it sleeps again.
thread_local const HostLoop* current_loop = nullptr;

}  // namespace

HostLoop::HostLoop(ProcessId self, std::uint32_t group_size,
                   std::uint64_t rng_seed,
                   std::unique_ptr<StableStorage> storage,
                   std::size_t trace_capacity, obs::MetricsRegistry* registry,
                   std::chrono::steady_clock::time_point epoch)
    : self_(self), group_size_(group_size), epoch_(epoch), rng_(rng_seed),
      registry_(registry),
      storage_(storage ? std::move(storage)
                       : std::make_unique<MemStableStorage>()) {
  if (trace_capacity > 0) {
    recorder_ = std::make_unique<obs::TraceRecorder>(self, trace_capacity);
    recorder_->set_clock([this] { return now(); });
    tracing_storage_ = std::make_unique<TracingStorage>(
        *storage_, *recorder_, [this] { return now(); });
  }
  if (::pipe(wake_fds_) != 0) throw std::runtime_error("pipe() failed");
  // Both ends nonblocking: a full pipe already holds a pending wake-up, so
  // a writer may drop its byte rather than block behind a busy loop.
  for (const int fd : wake_fds_) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
}

HostLoop::~HostLoop() {
  shutdown();
  for (const int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void HostLoop::start_loop() {
  thread_ = std::thread([this] { loop(); });
}

void HostLoop::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
}

void HostLoop::wake() {
  const char b = 1;
  [[maybe_unused]] const auto n = ::write(wake_fds_[1], &b, 1);
}

TimePoint HostLoop::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t HostLoop::enqueue(TimePoint due, bool timer,
                                std::function<void()> fn) {
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_seq_++;
    if (timer) live_timers_.insert(seq);
    tasks_.push(Task{due, seq, timer ? incarnation_ : 0, std::move(fn)});
  }
  if (current_loop != this) wake();
  return seq;
}

TimerId HostLoop::schedule_after(Duration delay, std::function<void()> fn) {
  return enqueue(now() + std::max<Duration>(delay, 0), /*timer=*/true,
                 std::move(fn));
}

void HostLoop::cancel_timer(TimerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  live_timers_.erase(id);
}

std::size_t HostLoop::pending_timer_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_timers_.size();
}

void HostLoop::deliver_at(TimePoint due, ProcessId from, Wire msg) {
  enqueue(due, /*timer=*/false, [this, from, m = std::move(msg)] {
    if (node_) node_->on_message(from, m);
  });
}

void HostLoop::run_and_wait(const std::function<void()>& fn) {
  // External threads only: waiting on the loop thread would self-deadlock.
  ABCAST_CHECK(current_loop != this);
  std::promise<void> done;
  enqueue(now(), /*timer=*/false, [&fn, &done] {
    fn();
    done.set_value();
  });
  done.get_future().get();
}

bool HostLoop::call(const std::function<void()>& fn) {
  bool ran = false;
  run_and_wait([&] {
    if (node_ == nullptr) return;
    fn();
    ran = true;
  });
  return ran;
}

void HostLoop::start_node(const NodeFactory& factory, bool recovering) {
  run_and_wait([&] {
    ABCAST_CHECK_MSG(node_ == nullptr, "process already up");
    if (recovering && recorder_) {
      recorder_->record(obs::EventKind::kRecoverBegin, now());
    }
    node_ = factory(*this);
    up_.store(true);
    node_->start(recovering);
    if (recovering && recorder_) {
      recorder_->record(obs::EventKind::kRecoverEnd, now());
    }
  });
}

void HostLoop::crash_node() {
  run_and_wait([this] {
    ABCAST_CHECK_MSG(node_ != nullptr, "process already down");
    up_.store(false);
    node_.reset();  // volatile state dies here
    discard_output();
    if (recorder_) recorder_->record(obs::EventKind::kCrash, now());
    std::lock_guard<std::mutex> lock(mu_);
    incarnation_ += 1;     // pending timers become stale
    live_timers_.clear();  // ids of the dead incarnation can never fire
  });
}

void HostLoop::loop() {
  current_loop = this;
  for (;;) {
    // The barrier: everything the previous pass logged becomes durable,
    // then everything it queued goes out, then the loop sleeps. A
    // StorageIoError escaping flush() ends the process: in the model a log
    // either completes or the process crashes.
    storage().flush();
    release_output();

    int timeout_ms = 1000;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      if (!tasks_.empty()) {
        const auto wait = tasks_.top().due - now();
        timeout_ms = wait <= 0 ? 0 : static_cast<int>(wait / 1'000'000 + 1);
      }
    }

    // poll() ignores a negative fd, so a transport without input costs
    // nothing here.
    pollfd fds[2] = {{input_fd(), POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    if (::poll(fds, 2, timeout_ms) < 0) {
      if (errno == EINTR) continue;
      // Unspecified revents on failure: clear them so due tasks still run,
      // rather than reading garbage.
      fds[0].revents = 0;
      fds[1].revents = 0;
    }
    if (fds[1].revents & POLLIN) {
      std::uint8_t sink[64];
      while (::read(wake_fds_[0], sink, sizeof sink) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) drain_input();
    run_due_tasks();
  }
}

void HostLoop::run_due_tasks() {
  for (;;) {
    Task task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      if (tasks_.empty() || tasks_.top().due > now()) return;
      // Moving the callback out leaves due/seq intact for pop().
      task = std::move(const_cast<Task&>(tasks_.top()));
      tasks_.pop();
      // A timer fires only if its incarnation is alive and it was neither
      // cancelled nor already fired (erasing keeps the set bounded).
      if (task.incarnation != 0 &&
          (task.incarnation != incarnation_ ||
           live_timers_.erase(task.seq) == 0 || node_ == nullptr)) {
        continue;
      }
    }
    task.fn();
  }
}

}  // namespace abcast::host
