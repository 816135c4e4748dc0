// Wire-level message envelope shared by all protocol layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/codec.hpp"
#include "common/types.hpp"

namespace abcast {

/// Immutable, reference-counted byte buffer. A multisend encodes its payload
/// ONCE and every per-recipient copy of the Wire (host queues, simulated
/// channel events, duplicate deliveries) shares the same allocation — copying
/// a Wire is a refcount bump, not a buffer copy. Converts implicitly from
/// Bytes (taking ownership) and to `const Bytes&` (for decoding), so payload
/// call sites read exactly as they did when the payload was a plain Bytes.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(Bytes b)  // NOLINT(google-explicit-constructor)
      : data_(std::make_shared<const Bytes>(std::move(b))) {}
  SharedBytes(std::initializer_list<std::uint8_t> il)
      : data_(std::make_shared<const Bytes>(il)) {}

  const Bytes& get() const { return data_ ? *data_ : empty(); }
  operator const Bytes&() const { return get(); }  // NOLINT
  std::size_t size() const { return get().size(); }

  /// Number of Wires sharing this buffer (0 for the empty payload).
  long use_count() const { return data_.use_count(); }

 private:
  static const Bytes& empty() {
    static const Bytes kEmpty;
    return kEmpty;
  }
  std::shared_ptr<const Bytes> data_;
};

/// Discriminates protocol messages on the wire. All layers share one
/// namespace so a host can dispatch a received datagram to the right module
/// without protocol-specific framing.
enum class MsgType : std::uint16_t {
  // Failure detectors (src/fd)
  kFdHeartbeat = 1,  // epoch detector: carries the sender's epoch
  kFdAlive = 2,      // suspect-list detector: bounded output, no epoch

  // Paxos consensus engine (src/consensus)
  kPaxosPrepare = 16,
  kPaxosPromise = 17,
  kPaxosAccept = 18,
  kPaxosAccepted = 19,
  kPaxosNack = 20,
  kPaxosDecided = 21,
  kPaxosDecidedAck = 22,

  // Rotating-coordinator consensus engine (src/consensus)
  kCoordEstimate = 32,
  kCoordNewEstimate = 33,
  kCoordAck = 34,
  kCoordNack = 35,
  kCoordDecide = 36,
  kCoordDecideAck = 37,

  // Atomic broadcast (src/core)
  kAbGossip = 48,       // full-set gossip (Options::digest_gossip == false)
  // 49 (kAbState) retired: the one-shot whole-AgreedLog state datagram could
  // exceed the transport frame limit; replaced by the chunked catch-up
  // session below. Do not reuse the tag.
  kAbGossipDigest = 50, // digest / delta anti-entropy gossip
  kAbStateChunk = 51,   // one bounded chunk of a §5.3 catch-up session

  // Crash-stop Chandra-Toueg-style baseline (src/core)
  kCsRelay = 64,

  // Multi-group total order multicast (src/multicast): the inter-group
  // proposal push / fill datagram. Intra-group control rides inside the
  // group's Atomic Broadcast payloads.
  kMgFill = 80,

  // Quorum-based replication (src/apps/quorum): weighted-voting data path.
  // Configuration (vote reassignment) rides inside Atomic Broadcast.
  kQrRead = 96,
  kQrReadReply = 97,
  kQrWrite = 98,
  kQrWriteAck = 99,
  kQrStaleEpoch = 100,

  // 112 is reserved for the multi-group envelope (kGroupEnvelope); the tag
  // is defined in src/group/group_wire.hpp, its wire-tag home.
};

/// Largest frame a transport carries: the UDP host drops (and counts as a
/// send_failure) any frame above it, and sizes its receive buffers to it.
/// Every encoder whose output grows with backlog must stay below it.
inline constexpr std::size_t kMaxDatagram = 64 * 1024;

/// A datagram: a message-type tag plus an opaque serialized payload. The
/// payload codec is owned by the layer that owns the MsgType. The payload is
/// refcounted (see SharedBytes), so hosts may copy Wires freely.
struct Wire {
  MsgType type{};
  SharedBytes payload;

  void encode(BufWriter& w) const {
    w.u16(static_cast<std::uint16_t>(type));
    w.bytes(payload);
  }

  static Wire decode(BufReader& r) {
    Wire msg;
    msg.type = static_cast<MsgType>(r.u16());
    msg.payload = r.bytes();
    return msg;
  }
};

/// Builds a Wire from a payload struct exposing encode(BufWriter&).
template <typename T>
Wire make_wire(MsgType type, const T& payload) {
  return Wire{type, encode_to_bytes(payload)};
}

}  // namespace abcast
