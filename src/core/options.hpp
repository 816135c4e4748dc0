// Feature flags selecting between the paper's basic protocol (Fig. 2) and
// the alternative protocol (Figs. 3–5). Each §5 mechanism is independently
// toggleable so the ablation benches can isolate one at a time.
#pragma once

#include <cstdint>

#include "common/check.hpp"
#include "common/types.hpp"
#include "env/wire.hpp"

namespace abcast::core {

struct Options {
  /// Gossip task period (paper §4.2 — "repeat forever multisend gossip").
  Duration gossip_period = millis(30);

  /// Additionally multisend each new message the moment it is broadcast
  /// (instead of waiting for the next gossip tick). This approximates the
  /// eager relay of the crash-stop Chandra-Toueg transformation and is used
  /// by the baseline configuration. Under digest_gossip the eager datagram
  /// carries only the sender's own unordered suffix (not the whole set).
  bool eager_dissemination = false;

  // ---- digest-based delta gossip (anti-entropy) --------------------------
  /// Replace full-set gossip with digest anti-entropy: the periodic
  /// datagram carries (k, total, per-sender coverage digest) instead of the
  /// whole Unordered set; a receiver replies (rate-limited, per peer) with
  /// only the per-sender suffixes the digester is missing, shipped in
  /// sender-seq order so the monotone-set invariant AgreedLog depends on is
  /// preserved by construction (see DESIGN.md "Digest gossip").
  bool digest_gossip = false;
  /// Minimum spacing of delta replies to one peer (bounds the bytes a
  /// duplicated / replayed digest can trigger).
  Duration delta_reply_interval = millis(8);
  /// Upper bound on one delta datagram's payload. A plan larger than this
  /// is split into several datagrams — each a self-contained, in-seq-order
  /// suffix the receiver's guard accepts on its own — so a delta to a
  /// deeply lagging peer never exceeds what the transport can carry (the
  /// UDP host drops frames above kMaxDatagram, env/wire.hpp). Must leave
  /// room for the digest header plus at least one message, and may not
  /// exceed kMaxDatagram.
  std::size_t max_delta_bytes = 56 * 1024;

  /// Skip a gossip tick when nothing changed since the last send and no
  /// peer is known to lag. A keepalive still goes out every
  /// kGossipKeepalivePeriods ticks (atomic_broadcast.cpp) so peers we have
  /// never heard from (and the gossip_k_ lag detection) keep working.
  bool suppress_idle_gossip = false;

  // ---- §5.1: avoiding the replay phase ---------------------------------
  /// Periodically log (k, Agreed) so recovery resumes from the checkpoint
  /// instead of replaying every decided Consensus instance.
  bool checkpointing = false;
  Duration checkpoint_period = millis(500);
  /// Also truncate Consensus records made obsolete by the checkpoint
  /// (Fig. 4 line c) — bounds the log but requires state transfer to serve
  /// processes that lag past the truncation horizon.
  bool truncate_logs = false;

  // ---- §5.2: application-level checkpoints ------------------------------
  /// Replace the delivered-message suffix with the application state from
  /// the A-checkpoint upcall at every checkpoint. Requires checkpointing.
  bool app_checkpointing = false;

  // ---- §5.3: state transfer ---------------------------------------------
  /// Send/accept state messages when a peer lags by more than `delta`
  /// rounds (Fig. 3 lines d–f).
  bool state_transfer = false;
  std::uint64_t delta = 4;
  /// §5.3's closing optimization: "the state message can be made to carry
  /// only those messages that are not known by the recipient". Gossip
  /// advertises the local delivered count; a catch-up session then streams
  /// only the missing tail of the sequence. A session whose recipient
  /// predates the sender's application checkpoint streams the checkpoint
  /// itself first (snapshot phase) regardless of this flag.
  bool trimmed_state_transfer = false;
  /// Upper bound on one catch-up chunk's payload (same framing discipline
  /// as max_delta_bytes: the UDP host drops frames above kMaxDatagram, so
  /// a state transfer must never produce one). Must leave room for the
  /// chunk header plus at least one message / one snapshot byte, and may
  /// not exceed kMaxDatagram.
  std::size_t max_state_bytes = 56 * 1024;

  // ---- §5.4: message batches / early return -----------------------------
  /// Log the Unordered set on every A-broadcast so the call durably
  /// completes before ordering (higher throughput; one more log op per
  /// broadcast).
  bool log_unordered = false;

  /// Upper bound on messages per Consensus proposal; 0 means a proposal
  /// carries the whole Unordered backlog (the paper's unbounded batch).
  /// Bounding the batch gives a round pipeline a finite per-group ordering
  /// rate — the regime where multi-group sharding (E14) pays off — and
  /// models real orderers, which cap batch size to bound decision latency
  /// and proposal datagrams. Messages left out stay in Unordered and ride
  /// a later round; per-sender seq order within one proposer is preserved
  /// because the batch takes a prefix of the MsgId-ordered backlog.
  std::size_t max_proposal_msgs = 0;

  // ---- §5.5: incremental logging -----------------------------------------
  /// When logging Unordered, write only the new message instead of the
  /// whole set (one small record per message, erased once ordered).
  bool incremental_unordered_log = false;

  /// Fig. 2 exactly: the only log operation is the Consensus proposal.
  static Options basic() { return Options{}; }

  /// Figs. 3–5 with every extension on (including the §5.3 trimmed-
  /// transfer note; with app checkpoints enabled it only applies to
  /// transfers sent before the first compaction).
  static Options alternative() {
    Options o;
    o.checkpointing = true;
    o.truncate_logs = true;
    o.app_checkpointing = true;
    o.state_transfer = true;
    o.trimmed_state_transfer = true;
    o.log_unordered = true;
    o.incremental_unordered_log = true;
    return o;
  }

  void validate() const {
    ABCAST_CHECK(gossip_period > 0);
    ABCAST_CHECK_MSG(!app_checkpointing || checkpointing,
                     "app_checkpointing requires checkpointing");
    ABCAST_CHECK_MSG(!truncate_logs || checkpointing,
                     "truncate_logs requires checkpointing");
    ABCAST_CHECK_MSG(!truncate_logs || state_transfer,
                     "truncate_logs requires state_transfer (a process that "
                     "lags past the truncation horizon can only catch up "
                     "via a state message)");
    ABCAST_CHECK_MSG(!incremental_unordered_log || log_unordered,
                     "incremental_unordered_log requires log_unordered");
    ABCAST_CHECK_MSG(!trimmed_state_transfer || state_transfer,
                     "trimmed_state_transfer requires state_transfer");
    ABCAST_CHECK_MSG(max_delta_bytes >= 256,
                     "max_delta_bytes must fit the digest header plus at "
                     "least one small message");
    ABCAST_CHECK_MSG(max_state_bytes >= 256,
                     "max_state_bytes must fit the chunk header plus at "
                     "least one small message");
    ABCAST_CHECK_MSG(max_delta_bytes <= kMaxDatagram &&
                         max_state_bytes <= kMaxDatagram,
                     "max_delta_bytes and max_state_bytes must fit one "
                     "datagram (kMaxDatagram)");
    if (checkpointing) ABCAST_CHECK(checkpoint_period > 0);
    if (state_transfer) ABCAST_CHECK(delta >= 1);
  }
};

}  // namespace abcast::core
