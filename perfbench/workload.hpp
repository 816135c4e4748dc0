// Commands, the model of their effect, and the correctness checks.
//
// Each replica's clients own 4096 keys of 16 bytes; a put writes a 64-byte
// value that starts with its tag "s<sender>#<seq>#". One command in 16 is
// instead a kAdd on the counter all replicas share, carrying the same tag
// in its (otherwise unused) value field. The command stream of a sender is
// a pure function of (seed, sender), and the model computes the expected
// store from the streams alone, without running the program's code.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

constexpr std::uint32_t kReplicas = 3;
constexpr std::uint32_t kKeysPerReplica = 4096;
constexpr std::size_t kKeyBytes = 16;
constexpr std::size_t kValueBytes = 64;
constexpr std::uint64_t kAddEvery = 16;
/// The counter every replica's kAdd commands update (16 bytes).
inline const std::string kCounterKey = "shared/counter00";

std::string key_name(std::uint32_t owner, std::uint32_t index);
std::string value_of(std::uint64_t seed, std::uint32_t sender,
                     std::uint64_t seq);

/// One generated command, as the model keeps it.
struct Cmd {
  bool add = false;
  std::uint32_t key = 0;    // index in the sender's key range (puts)
  std::int64_t delta = 0;   // kAdd only
};

/// The deterministic command stream of one sender.
class CommandStream {
 public:
  CommandStream(std::uint64_t seed, std::uint32_t sender);
  /// Generates command number issued().size() and returns its encoding.
  abcast::Bytes next();
  const std::vector<Cmd>& issued() const { return issued_; }
  std::uint32_t sender() const { return sender_; }

 private:
  std::uint64_t seed_;
  std::uint32_t sender_;
  std::uint64_t rng_;
  std::vector<Cmd> issued_;
};

/// Splitmix64 step: the benchmark's only random source.
std::uint64_t splitmix(std::uint64_t& state);

/// Identity of a command, read back from its encoded KvCommand.
struct Tag {
  std::uint32_t sender = 0;
  std::uint64_t seq = 0;
};
/// Parses the tag at the head of the command's value field; nullopt when the
/// bytes are not a command this benchmark generated.
std::optional<Tag> parse_tag(const abcast::Bytes& command);

/// One apply seen through the RSM apply callback.
struct Delivery {
  std::uint32_t seq = 0;
  std::uint16_t sender = 0;
  std::uint16_t incarnation = 0;  // which start of the replica saw it
  std::int64_t at_ns = 0;
};

/// What a replica holds at the end of a run, read through its public API.
struct ReplicaState {
  std::uint64_t total = 0;                  // agreed().total()
  std::uint64_t digest = 0;                 // KvStore::digest()
  std::size_t size = 0;                     // KvStore::size()
  std::map<std::string, std::string> kv;   // every key the model names
  std::int64_t counter = 0;
  /// The replica restarted or installed a peer snapshot, so the apply
  /// callback did not see every command.
  bool partial_callbacks = false;
  std::vector<Delivery> log;                // apply-callback order
};

struct CheckResult {
  bool ok = true;
  std::vector<std::string> errors;
  void fail(std::string e) {
    ok = false;
    if (errors.size() < 20) errors.push_back(std::move(e));
  }
};

/// The keys the model names, with their expected final values (absent keys
/// are never written), plus the expected counter.
struct Expected {
  std::map<std::string, std::string> kv;
  std::int64_t counter = 0;
  std::uint64_t total = 0;
};
Expected model(std::uint64_t seed, const std::vector<CommandStream>& streams);

/// Checks every replica against the model and against each other:
/// exactly-once delivery (total and, where the callback saw everything, the
/// log), per-sender FIFO, equal digests, the model's store and counter, and
/// equal delivery-order fingerprints.
CheckResult check_replicas(const Expected& expected,
                           const std::vector<std::uint64_t>& per_sender,
                           const std::vector<ReplicaState>& replicas);

/// Order-sensitive fingerprint of a delivery log.
std::uint64_t fingerprint(const std::vector<Delivery>& log);

}  // namespace perfbench
