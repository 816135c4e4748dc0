#include "workload.hpp"

#include <cstdio>

#include "apps/kv_store.hpp"
#include "common/codec.hpp"

namespace perfbench {

using abcast::Bytes;
using abcast::apps::KvCommand;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string key_name(std::uint32_t owner, std::uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "r%u/key%010u", owner, index);
  return buf;
}

std::string value_of(std::uint64_t seed, std::uint32_t sender,
                     std::uint64_t seq) {
  char tag[32];
  const int n = std::snprintf(tag, sizeof tag, "s%u#%010llu#", sender,
                              static_cast<unsigned long long>(seq));
  std::string v(tag, static_cast<std::size_t>(n));
  std::uint64_t st = seed ^ (std::uint64_t{sender} << 56) ^
                     (seq * 0xd1b54a32d192ed03ull);
  while (v.size() < kValueBytes) {
    v.push_back(static_cast<char>('a' + splitmix(st) % 26));
  }
  return v;
}

CommandStream::CommandStream(std::uint64_t seed, std::uint32_t sender)
    : seed_(seed),
      sender_(sender),
      rng_(seed * 0x2545f4914f6cdd1dull + sender + 1) {}

Bytes CommandStream::next() {
  const std::uint64_t seq = issued_.size();
  Cmd cmd;
  KvCommand c;
  c.value = value_of(seed_, sender_, seq);
  if (seq % kAddEvery == kAddEvery - 1) {
    cmd.add = true;
    cmd.delta = static_cast<std::int64_t>(1 + splitmix(rng_) % 100);
    c.op = KvCommand::Op::kAdd;
    c.key = kCounterKey;
    c.value.resize(14);  // the tag alone; kAdd ignores the value
    c.delta = cmd.delta;
  } else {
    cmd.key = static_cast<std::uint32_t>(splitmix(rng_) % kKeysPerReplica);
    c.op = KvCommand::Op::kPut;
    c.key = key_name(sender_, cmd.key);
  }
  issued_.push_back(cmd);
  return abcast::encode_to_bytes(c);
}

namespace {

std::uint32_t le32(const Bytes& b, std::size_t at) {
  return std::uint32_t{b[at]} | (std::uint32_t{b[at + 1]} << 8) |
         (std::uint32_t{b[at + 2]} << 16) | (std::uint32_t{b[at + 3]} << 24);
}

bool is_digit(std::uint8_t c) { return c >= '0' && c <= '9'; }

}  // namespace

std::optional<Tag> parse_tag(const Bytes& command) {
  // KvCommand layout: [u8 op][u32 len][key][u32 len][value]...
  if (command.size() < 5) return std::nullopt;
  const std::size_t key_len = le32(command, 1);
  const std::size_t value_at = 5 + key_len + 4;
  if (key_len > command.size() || value_at + 14 > command.size()) {
    return std::nullopt;
  }
  if (le32(command, 5 + key_len) < 14) return std::nullopt;
  const std::uint8_t* v = command.data() + value_at;
  if (v[0] != 's' || !is_digit(v[1]) || v[2] != '#' || v[13] != '#') {
    return std::nullopt;
  }
  Tag t;
  t.sender = static_cast<std::uint32_t>(v[1] - '0');
  for (int i = 3; i < 13; ++i) {
    if (!is_digit(v[i])) return std::nullopt;
    t.seq = t.seq * 10 + static_cast<std::uint64_t>(v[i] - '0');
  }
  return t;
}

Expected model(std::uint64_t seed, const std::vector<CommandStream>& streams) {
  Expected e;
  bool any_add = false;
  for (const auto& s : streams) {
    const auto& cmds = s.issued();
    for (std::uint64_t j = 0; j < cmds.size(); ++j) {
      if (cmds[j].add) {
        e.counter += cmds[j].delta;
        any_add = true;
      } else {
        e.kv[key_name(s.sender(), cmds[j].key)] = value_of(seed, s.sender(), j);
      }
    }
    e.total += cmds.size();
  }
  if (any_add) e.kv[kCounterKey] = std::to_string(e.counter);
  return e;
}

std::uint64_t fingerprint(const std::vector<Delivery>& log) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& d : log) {
    h = (h ^ d.sender) * 0x100000001b3ull;
    h = (h ^ d.seq) * 0x100000001b3ull;
  }
  return h;
}

namespace {

/// Per-sender order within each incarnation segment of one replica's log.
/// A full log must hold every sender's commands 0..n-1 exactly once, in
/// order; a partial one may skip ahead (a snapshot covered the gap) or
/// start over at a restart, but never repeat or go back within a segment.
void check_log(std::size_t r, const ReplicaState& rep,
               const std::vector<std::uint64_t>& per_sender,
               CheckResult& res) {
  const std::size_t senders = per_sender.size();
  std::vector<std::int64_t> last(senders, -1);
  std::uint16_t inc = rep.log.empty() ? 0 : rep.log.front().incarnation;
  for (const auto& d : rep.log) {
    if (d.incarnation != inc) {
      inc = d.incarnation;
      last.assign(senders, -1);
    }
    if (d.sender >= senders || d.seq >= per_sender[d.sender]) {
      res.fail("replica " + std::to_string(r) +
               " applied a command that was never submitted");
      return;
    }
    const std::int64_t seq = d.seq;
    const std::int64_t want = last[d.sender] + 1;
    if (seq < want) {
      res.fail("replica " + std::to_string(r) + " applied s" +
               std::to_string(d.sender) + "#" + std::to_string(seq) +
               (seq == want - 1 ? " twice" : " out of sender order"));
      return;
    }
    if (seq > want && !rep.partial_callbacks) {
      res.fail("replica " + std::to_string(r) + " never applied s" +
               std::to_string(d.sender) + "#" + std::to_string(want));
      return;
    }
    last[d.sender] = seq;
  }
  if (rep.partial_callbacks) return;
  for (std::size_t s = 0; s < senders; ++s) {
    if (static_cast<std::uint64_t>(last[s] + 1) != per_sender[s]) {
      res.fail("replica " + std::to_string(r) + " applied " +
               std::to_string(last[s] + 1) + " of sender " +
               std::to_string(s) + "'s " + std::to_string(per_sender[s]) +
               " commands");
    }
  }
}

}  // namespace

CheckResult check_replicas(const Expected& expected,
                           const std::vector<std::uint64_t>& per_sender,
                           const std::vector<ReplicaState>& replicas) {
  CheckResult res;
  std::optional<std::uint64_t> full_print;
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    const ReplicaState& rep = replicas[r];
    const std::string who = "replica " + std::to_string(r);
    if (rep.total != expected.total) {
      res.fail(who + " delivered " + std::to_string(rep.total) + " of " +
               std::to_string(expected.total) + " commands");
    }
    if (rep.digest != replicas[0].digest) {
      res.fail(who + " digest differs from replica 0");
    }
    if (rep.size != expected.kv.size()) {
      res.fail(who + " holds " + std::to_string(rep.size) + " keys, model " +
               std::to_string(expected.kv.size()));
    }
    if (rep.counter != expected.counter) {
      res.fail(who + " counter " + std::to_string(rep.counter) + ", model " +
               std::to_string(expected.counter));
    }
    for (const auto& [k, v] : expected.kv) {
      auto it = rep.kv.find(k);
      if (it == rep.kv.end() || it->second != v) {
        res.fail(who + " key " + k + " does not hold its last put");
        break;
      }
    }
    check_log(r, rep, per_sender, res);
    if (!rep.partial_callbacks) {
      const std::uint64_t fp = fingerprint(rep.log);
      if (!full_print) full_print = fp;
      if (fp != *full_print) {
        res.fail(who + " delivery-order fingerprint differs");
      }
    }
  }
  return res;
}

}  // namespace perfbench
