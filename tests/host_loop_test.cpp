// Tests for the event loop every real-time host is built on (host::HostLoop),
// run over each transport: the rt loopback channel, and UDP sockets with
// one syscall per datagram and with sendmmsg/recvmmsg batching. Timers,
// the crash/recover lifecycle, call(), and the durability barrier (storage
// is flushed before any datagram of the pass leaves the process).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/codec.hpp"
#include "net/udp_env.hpp"
#include "rt/rt_cluster.hpp"
#include "storage/mem_storage.hpp"

using namespace abcast;

namespace {

enum class Transport { kRt, kUdp, kUdpBatched };

using StorageFactory = std::function<std::unique_ptr<StableStorage>()>;

/// n hosts over one transport, nodes not started.
class Hosts {
 public:
  Hosts(Transport t, std::uint32_t n, const StorageFactory& storage = {}) {
    if (t == Transport::kRt) {
      rt::RtConfig cfg{.n = n, .seed = 6};
      if (storage) {
        cfg.storage_factory = [storage](ProcessId) { return storage(); };
      }
      rt_ = std::make_unique<rt::RtCluster>(cfg);
      return;
    }
    net::UdpBatchConfig batch;
    batch.enabled = t == Transport::kUdpBatched;
    udp_ = net::make_local_udp_cluster(n, 6, batch, nullptr, storage);
  }

  host::HostLoop& operator[](ProcessId p) {
    if (rt_) return rt_->host(p);
    return *udp_[p];
  }

 private:
  std::unique_ptr<rt::RtCluster> rt_;
  std::vector<std::unique_ptr<net::UdpHost>> udp_;
};

bool eventually(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

struct IdleNode final : NodeApp {
  void start(bool) override {}
  void on_message(ProcessId, const Wire&) override {}
};

NodeFactory idle() {
  return [](Env&) { return std::make_unique<IdleNode>(); };
}

class HostLoopTest : public ::testing::TestWithParam<Transport> {};

std::string transport_name(const ::testing::TestParamInfo<Transport>& p) {
  switch (p.param) {
    case Transport::kRt: return "Rt";
    case Transport::kUdp: return "Udp";
    case Transport::kUdpBatched: return "UdpBatched";
  }
  return {};
}

/// Log/send/stall steps the barrier test's sender runs.
constexpr std::uint64_t kProbeSteps = 5;

}  // namespace

TEST_P(HostLoopTest, TimersFireAndCancel) {
  Hosts hosts(GetParam(), 1);
  std::atomic<int> fired{0};
  struct TimerNode final : NodeApp {
    TimerNode(Env& env, std::atomic<int>& counter)
        : env_(env), counter_(counter) {}
    void start(bool) override {
      env_.schedule_after(millis(10), [this] { counter_ += 1; });
      const TimerId id =
          env_.schedule_after(millis(10), [this] { counter_ += 100; });
      env_.cancel_timer(id);
    }
    void on_message(ProcessId, const Wire&) override {}
    Env& env_;
    std::atomic<int>& counter_;
  };
  hosts[0].start_node(
      [&fired](Env& env) { return std::make_unique<TimerNode>(env, fired); },
      false);
  ASSERT_TRUE(eventually([&] { return fired.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 1);
}

// A cancel issued after its timer fired (a retry timer cancelled from the
// handler it triggered) must leave no tombstone, or the bookkeeping grows
// without bound and every timer pop scans it.
TEST_P(HostLoopTest, TimerBookkeepingBoundedUnderCancelAfterFireLoop) {
  Hosts hosts(GetParam(), 1);
  host::HostLoop& h = hosts[0];
  h.start_node(idle(), false);

  for (int i = 0; i < 1000; ++i) {
    TimerId fired_id = 0;
    std::atomic<bool> fired{false};
    ASSERT_TRUE(h.call([&] {
      fired_id = h.schedule_after(0, [&fired] { fired.store(true); });
    }));
    while (!fired.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    h.call([&] { h.cancel_timer(fired_id); });  // cancel AFTER it fired

    // The cancel-before-fire side: schedule far out, cancel immediately.
    h.call([&] {
      const TimerId id = h.schedule_after(seconds(3600), [] {});
      h.cancel_timer(id);
    });
  }
  // IdleNode schedules no timers of its own, so nothing may linger.
  EXPECT_EQ(h.pending_timer_entries(), 0u);
}

// start, crash, recover and call(): a crash destroys the stack and makes
// its timers stale; call() refuses to run while down; recovery builds a
// fresh stack told that it is recovering.
TEST_P(HostLoopTest, StartCrashRecoverAndCall) {
  struct Life {
    std::atomic<int> starts{0};
    std::atomic<bool> recovering{false};
    std::atomic<int> first_fires{0};   // timer of the crashed incarnation
    std::atomic<int> second_fires{0};  // timer of the recovered one
  } life;
  struct LifeNode final : NodeApp {
    LifeNode(Env& env, Life& life) : env_(env), life_(life) {}
    void start(bool recovering) override {
      const bool first = ++life_.starts == 1;
      life_.recovering = recovering;
      env_.schedule_after(millis(300), [this, first] {
        (first ? life_.first_fires : life_.second_fires) += 1;
      });
    }
    void on_message(ProcessId, const Wire&) override {}
    Env& env_;
    Life& life_;
  };
  const NodeFactory factory = [&life](Env& env) {
    return std::make_unique<LifeNode>(env, life);
  };
  Hosts hosts(GetParam(), 1);
  host::HostLoop& h = hosts[0];
  EXPECT_FALSE(h.is_up());
  EXPECT_FALSE(h.call([] { ADD_FAILURE() << "ran while down"; }));

  h.start_node(factory, false);
  EXPECT_TRUE(h.is_up());
  EXPECT_FALSE(life.recovering.load());
  bool ran = false;
  EXPECT_TRUE(h.call([&] { ran = h.node_unsafe() != nullptr; }));
  EXPECT_TRUE(ran);

  h.crash_node();
  EXPECT_FALSE(h.is_up());
  EXPECT_EQ(h.pending_timer_entries(), 0u);
  EXPECT_FALSE(h.call([] { ADD_FAILURE() << "ran while down"; }));

  h.start_node(factory, true);
  EXPECT_TRUE(h.is_up());
  EXPECT_TRUE(life.recovering.load());
  EXPECT_EQ(life.starts.load(), 2);
  // The first incarnation's timer came due first; by the time the second
  // one fires it has had every chance to, had the crash not made it stale.
  ASSERT_TRUE(eventually([&] { return life.second_fires.load() == 1; }));
  EXPECT_EQ(life.first_fires.load(), 0);
}

// Paper §3: a logged record must be durable before any message that
// depends on it leaves the process. The sender logs i, sends i, and then
// stalls inside the same callback, so a transport that emits from send()
// delivers i while the record is still unflushed; a slow flush catches a
// loop that releases datagrams before flushing.
TEST_P(HostLoopTest, StorageFlushedBeforeAnyDatagramLeaves) {
  // Counts puts and remembers how many of them the last flush() covered.
  class FlushProbe final : public StableStorage {
   public:
    void put(std::string_view key, const Bytes& value) override {
      inner_.put(key, value);
      puts_ += 1;
    }
    std::optional<Bytes> get(std::string_view key) override {
      return inner_.get(key);
    }
    void erase(std::string_view key) override { inner_.erase(key); }
    void flush() override {
      inner_.flush();
      if (flushed_.load() == puts_) return;
      // A flush with work to do takes a while, as a disk sync does, so a
      // datagram released before it completes arrives first.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      flushed_.store(puts_);
    }
    std::vector<std::string> keys_with_prefix(std::string_view p) override {
      return inner_.keys_with_prefix(p);
    }
    std::uint64_t footprint_bytes() override {
      return inner_.footprint_bytes();
    }
    const StorageStats& stats() const override { return inner_.stats(); }
    std::uint64_t flushed() const { return flushed_.load(); }

   private:
    MemStableStorage inner_;
    std::uint64_t puts_ = 0;  // loop thread only
    std::atomic<std::uint64_t> flushed_{0};
  };

  struct Sender final : NodeApp {
    explicit Sender(Env& env) : env_(env) {}
    void start(bool) override { step(); }
    void step() {
      i_ += 1;
      BufWriter w;
      w.u64(i_);
      env_.storage().put("probe", w.data());
      env_.send(1, Wire{MsgType::kAbGossip, w.data()});
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (i_ < kProbeSteps) env_.schedule_after(0, [this] { step(); });
    }
    void on_message(ProcessId, const Wire&) override {}
    Env& env_;
    std::uint64_t i_ = 0;
  };

  struct Receiver final : NodeApp {
    Receiver(const FlushProbe& sender_storage,
             std::atomic<std::uint64_t>& received, std::atomic<int>& early)
        : sender_storage_(sender_storage), received_(received),
          early_(early) {}
    void start(bool) override {}
    void on_message(ProcessId, const Wire& msg) override {
      BufReader r(msg.payload);
      if (sender_storage_.flushed() < r.u64()) early_ += 1;
      received_ += 1;
    }
    const FlushProbe& sender_storage_;
    std::atomic<std::uint64_t>& received_;
    std::atomic<int>& early_;
  };

  Hosts hosts(GetParam(), 2, [] { return std::make_unique<FlushProbe>(); });
  const auto& probe = dynamic_cast<const FlushProbe&>(hosts[0].storage());
  std::atomic<std::uint64_t> received{0};
  std::atomic<int> early{0};
  hosts[1].start_node(
      [&](Env&) {
        return std::make_unique<Receiver>(probe, received, early);
      },
      false);
  hosts[0].start_node(
      [](Env& env) { return std::make_unique<Sender>(env); }, false);
  ASSERT_TRUE(eventually([&] { return received.load() == kProbeSteps; }));
  EXPECT_EQ(early.load(), 0) << "a datagram left before its record was flushed";
}

INSTANTIATE_TEST_SUITE_P(
    Transports, HostLoopTest,
    ::testing::Values(Transport::kRt, Transport::kUdp, Transport::kUdpBatched),
    transport_name);
