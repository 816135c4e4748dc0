// Decorators that trace the stack from outside, for the traced run.
//
// Each wraps one interface the stack is built from and records a span
// around every call into the layer behind it:
//   TracedEnv      Env          timer callbacks; outbound datagrams counted
//                               by layer (MsgType)
//   TracedNode     NodeApp      inbound datagrams, split by MsgType;
//                               start() (initial start or recovery)
//   TracedStorage  StableStorage put/get/erase/scan/flush, plus the
//                               proposal-to-decision time of each instance
//   TracedMachine  StateMachine apply, snapshot, restore
// The program itself is unchanged: UdpHost sees a TracedNode from the
// node factory and a TracedStorage from the storage factory.
#pragma once

#include <memory>

#include "apps/kv_store.hpp"
#include "apps/rsm.hpp"
#include "env/env.hpp"
#include "spans.hpp"

namespace perfbench {

/// The layer that owns a datagram type.
Layer layer_of(abcast::MsgType type);

/// Bytes UdpHost puts on the wire for `msg`: [u32 sender][u16 type]
/// [u32 length][payload].
inline std::uint64_t frame_bytes(const abcast::Wire& msg) {
  return 10 + msg.payload.size();
}

class TracedStorage final : public abcast::StableStorage {
 public:
  TracedStorage(std::unique_ptr<abcast::StableStorage> inner,
                SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  void put(std::string_view key, const abcast::Bytes& value) override;
  std::optional<abcast::Bytes> get(std::string_view key) override;
  void erase(std::string_view key) override;
  void flush() override;
  std::vector<std::string> keys_with_prefix(std::string_view prefix) override;
  std::uint64_t footprint_bytes() override { return inner_->footprint_bytes(); }
  const abcast::StorageStats& stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<abcast::StableStorage> inner_;
  SpanRecorder& rec_;
};

class TracedMachine final : public abcast::apps::StateMachine {
 public:
  TracedMachine(std::unique_ptr<abcast::apps::KvStore> inner,
                SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  void apply(const abcast::Bytes& command) override {
    SpanScope s(rec_, Layer::kApply);
    inner_->apply(command);
  }
  abcast::Bytes snapshot() const override {
    SpanScope s(rec_, Layer::kCheckpoint);
    return inner_->snapshot();
  }
  void restore(const abcast::Bytes& snapshot) override {
    SpanScope s(rec_, Layer::kCheckpoint);
    inner_->restore(snapshot);
  }

  const abcast::apps::KvStore& inner() const { return *inner_; }

 private:
  std::unique_ptr<abcast::apps::KvStore> inner_;
  SpanRecorder& rec_;
};

class TracedNode;

class TracedEnv final : public abcast::Env {
 public:
  TracedEnv(abcast::Env& host, SpanRecorder& rec, TracedNode& node)
      : host_(host), rec_(rec), node_(node) {}

  abcast::ProcessId self() const override { return host_.self(); }
  std::uint32_t group_size() const override { return host_.group_size(); }
  abcast::TimePoint now() const override { return host_.now(); }
  abcast::TimerId schedule_after(abcast::Duration delay,
                                 std::function<void()> fn) override;
  void cancel_timer(abcast::TimerId id) override { host_.cancel_timer(id); }
  void send(abcast::ProcessId to, const abcast::Wire& msg) override;
  void multisend(const abcast::Wire& msg) override;
  abcast::StableStorage& storage() override { return host_.storage(); }
  abcast::Rng& rng() override { return host_.rng(); }
  abcast::obs::TraceRecorder* tracer() override { return host_.tracer(); }
  abcast::obs::MetricsRegistry* metrics_registry() override {
    return host_.metrics_registry();
  }

 private:
  void count_tx(const abcast::Wire& msg, std::uint64_t copies);

  abcast::Env& host_;
  SpanRecorder& rec_;
  TracedNode& node_;
};

/// The replica as the host sees it in the traced run: an RsmNode built over
/// a TracedEnv and a TracedMachine.
class TracedNode final : public abcast::NodeApp {
 public:
  TracedNode(abcast::Env& host, SpanRecorder& rec,
             abcast::core::StackConfig config,
             abcast::apps::Rsm::ApplyObserver observer);

  void start(bool recovering) override;
  void on_message(abcast::ProcessId from, const abcast::Wire& msg) override;

  abcast::apps::RsmNode& rsm() { return *node_; }
  /// Records a change of the failure detector's leader hint.
  void watch_leader();

 private:
  SpanRecorder& rec_;
  TracedEnv env_;
  std::unique_ptr<abcast::apps::RsmNode> node_;  // built over env_
};

}  // namespace perfbench
