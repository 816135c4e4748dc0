// Self-validating stable-storage records.
//
// The segmented log seals its own records, so a torn append is truncated
// away at reopen; but nothing protects a record travelling through a
// backend that lies — bit rot below the filesystem, a torn write on a
// non-atomic store, or the injected faults of FaultyStorage. Sealing adds a
// CRC-32 trailer at the *protocol* layer, so every reader can distinguish
// "this record is what I logged" from "this record is damaged" and fall
// back to the paper's recovery path (replay / re-run the instance) instead
// of decoding garbage.
#pragma once

#include <optional>

#include "common/crc32.hpp"
#include "common/types.hpp"

namespace abcast {

/// Appends a CRC-32 of `payload` so corruption is detectable on read.
inline Bytes seal_record(Bytes payload) {
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) {
    payload.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return payload;
}

/// Strips and verifies the trailer; nullopt means the record is damaged
/// (truncated, bit-flipped, or overwritten with garbage) and must be treated
/// as if the log operation never completed.
inline std::optional<Bytes> unseal_record(const Bytes& raw) {
  if (raw.size() < 4) return std::nullopt;
  const std::size_t body = raw.size() - 4;
  std::uint32_t stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) | raw[body + static_cast<std::size_t>(i)];
  }
  if (crc32(raw.data(), body) != stored) return std::nullopt;
  return Bytes(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(body));
}

}  // namespace abcast
