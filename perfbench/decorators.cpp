#include "decorators.hpp"

#include <algorithm>
#include <charconv>

namespace perfbench {

using abcast::MsgType;

Layer layer_of(MsgType type) {
  const auto t = static_cast<std::uint16_t>(type);
  if (type == MsgType::kFdHeartbeat || type == MsgType::kFdAlive) {
    return Layer::kFdRx;
  }
  if ((t >= 16 && t <= 22) || (t >= 32 && t <= 37)) {
    return Layer::kConsensusRx;  // Paxos or rotating-coordinator engine
  }
  if (type == MsgType::kAbGossip || type == MsgType::kAbGossipDigest) {
    return Layer::kGossipRx;
  }
  if (type == MsgType::kAbStateChunk) return Layer::kStateRx;
  return Layer::kOtherRx;
}

namespace {

constexpr std::string_view kPropPrefix = "cons/prop/";
constexpr std::string_view kDecPrefix = "cons/dec/";

/// Instance number of a consensus record key ("cons/dec/000…042").
bool instance_of(std::string_view key, std::string_view prefix,
                 std::uint64_t* k) {
  if (key.substr(0, prefix.size()) != prefix) return false;
  const auto digits = key.substr(prefix.size());
  const auto r = std::from_chars(digits.data(), digits.data() + digits.size(), *k);
  return r.ec == std::errc{} && r.ptr == digits.data() + digits.size();
}

std::uint32_t clamp32(std::size_t n) {
  return n > 0xffffffffu ? 0xffffffffu : static_cast<std::uint32_t>(n);
}

}  // namespace

// ---- TracedStorage ----------------------------------------------------------

void TracedStorage::put(std::string_view key, const abcast::Bytes& value) {
  {
    SpanScope s(rec_, Layer::kStoragePut, clamp32(value.size()));
    inner_->put(key, value);
  }
  rec_.dirty = true;
  std::uint64_t k = 0;
  if (instance_of(key, kPropPrefix, &k)) {
    rec_.counters.prop_puts += 1;
    rec_.pending_props.emplace(k, wall_now_ns());
  } else if (instance_of(key, kDecPrefix, &k)) {
    const std::int64_t now = wall_now_ns();
    rec_.counters.dec_puts += 1;
    rec_.value_bytes.emplace_back(now, clamp32(value.size()));
    auto it = rec_.pending_props.find(k);
    if (it != rec_.pending_props.end()) {
      rec_.decide_ns.emplace_back(now, now - it->second);
      rec_.pending_props.erase(it);
    }
  }
}

std::optional<abcast::Bytes> TracedStorage::get(std::string_view key) {
  if (rec_.recovering) rec_.counters.recovery_reads += 1;
  SpanScope s(rec_, Layer::kStorageGet);
  return inner_->get(key);
}

void TracedStorage::erase(std::string_view key) {
  rec_.dirty = true;
  SpanScope s(rec_, Layer::kStorageErase);
  inner_->erase(key);
}

void TracedStorage::flush() {
  // arg 1 marks a flush with appended records to sync.
  SpanScope s(rec_, Layer::kStorageFlush, rec_.dirty ? 1 : 0);
  rec_.dirty = false;
  inner_->flush();
}

std::vector<std::string> TracedStorage::keys_with_prefix(
    std::string_view prefix) {
  if (rec_.recovering) rec_.counters.recovery_reads += 1;
  SpanScope s(rec_, Layer::kStorageScan);
  return inner_->keys_with_prefix(prefix);
}

// ---- TracedEnv --------------------------------------------------------------

abcast::TimerId TracedEnv::schedule_after(abcast::Duration delay,
                                          std::function<void()> fn) {
  // UdpHost fires a timer only while the incarnation that scheduled it is
  // up, and this Env dies with that incarnation's node, so `this` is alive
  // whenever the callback runs.
  // The span's arg is the timer's delay in µs, which tells the periodic
  // tasks apart (heartbeat, consensus tick, gossip, checkpoint).
  const auto delay_us = static_cast<std::uint32_t>(
      std::min<abcast::Duration>(delay / 1000, 0xffffffff));
  return host_.schedule_after(delay, [this, delay_us, fn = std::move(fn)] {
    rec_.counters.timer_fires += 1;
    {
      SpanScope s(rec_, Layer::kTimer, delay_us);
      fn();
    }
    node_.watch_leader();
  });
}

void TracedEnv::count_tx(const abcast::Wire& msg, std::uint64_t copies) {
  const auto layer = static_cast<int>(layer_of(msg.type));
  const std::uint64_t bytes = frame_bytes(msg);
  rec_.counters.tx_datagrams[layer] += copies;
  rec_.counters.tx_bytes[layer] += bytes * copies;
  if (bytes > rec_.max_frame_bytes) rec_.max_frame_bytes = bytes;
}

void TracedEnv::send(abcast::ProcessId to, const abcast::Wire& msg) {
  count_tx(msg, 1);
  host_.send(to, msg);
}

void TracedEnv::multisend(const abcast::Wire& msg) {
  count_tx(msg, host_.group_size());
  host_.multisend(msg);
}

// ---- TracedNode -------------------------------------------------------------

TracedNode::TracedNode(abcast::Env& host, SpanRecorder& rec,
                       abcast::core::StackConfig config,
                       abcast::apps::Rsm::ApplyObserver observer)
    : rec_(rec), env_(host, rec, *this) {
  node_ = std::make_unique<abcast::apps::RsmNode>(
      env_, std::move(config),
      [&rec] {
        return std::make_unique<TracedMachine>(
            std::make_unique<abcast::apps::KvStore>(), rec);
      },
      std::move(observer));
}

void TracedNode::start(bool recovering) {
  rec_.recovering = recovering;
  {
    SpanScope s(rec_, Layer::kRestart);
    node_->start(recovering);
  }
  rec_.recovering = false;
  watch_leader();
}

void TracedNode::on_message(abcast::ProcessId from, const abcast::Wire& msg) {
  const Layer layer = layer_of(msg.type);
  rec_.counters.rx_datagrams[static_cast<int>(layer)] += 1;
  {
    SpanScope s(rec_, layer, clamp32(msg.payload.size()));
    node_->on_message(from, msg);
  }
  watch_leader();
}

void TracedNode::watch_leader() {
  const abcast::ProcessId leader = node_->stack().fd().leader();
  if (leader != rec_.last_leader) {
    rec_.last_leader = leader;
    rec_.leader_changes.push_back({wall_now_ns(), leader});
  }
}

}  // namespace perfbench
