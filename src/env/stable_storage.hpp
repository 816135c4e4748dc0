// Stable storage abstraction (the paper's log / retrieve primitives).
//
// A process's stable storage survives crashes; everything else (volatile
// memory, in-flight messages, timers) is lost. The paper's efficiency
// argument is counted in *log operations*, so every implementation keeps a
// StorageStats the experiments read.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/trace.hpp"

namespace abcast {

/// Thrown on unrecoverable I/O errors (directory not writable, failed write
/// or fdatasync, injected faults). Corrupted *records* are not errors —
/// they read as absent. In the paper's model a log operation either
/// completes or the process crashes, so hosts translate an escaping
/// StorageIoError into a process crash.
class StorageIoError : public std::runtime_error {
 public:
  explicit StorageIoError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Operation and footprint accounting for a stable storage instance.
/// `put_ops` is the paper's "number of log operations".
struct StorageStats {
  std::uint64_t put_ops = 0;
  std::uint64_t get_ops = 0;
  std::uint64_t erase_ops = 0;
  std::uint64_t bytes_written = 0;

  StorageStats& operator+=(const StorageStats& o) {
    put_ops += o.put_ops;
    get_ops += o.get_ops;
    erase_ops += o.erase_ops;
    bytes_written += o.bytes_written;
    return *this;
  }
};

/// Keyed record store with atomic overwrite semantics.
///
/// `put` is the paper's `log`: after it returns, the record survives any
/// subsequent crash. `get` is the paper's `retrieve`. Keys are structured
/// paths like "ab/proposed/42" so `keys_with_prefix` can enumerate, e.g.,
/// all logged proposals during recovery.
class StableStorage {
 public:
  virtual ~StableStorage() = default;

  StableStorage() = default;
  StableStorage(const StableStorage&) = delete;
  StableStorage& operator=(const StableStorage&) = delete;

  /// Durably writes `value` under `key`, replacing any previous record
  /// atomically (a crash leaves either the old or the new value, never a
  /// mix). Counted as one log operation.
  virtual void put(std::string_view key, const Bytes& value) = 0;

  /// Reads the record under `key`, or nullopt if absent.
  virtual std::optional<Bytes> get(std::string_view key) = 0;

  /// Durably removes the record under `key` (no-op if absent).
  virtual void erase(std::string_view key) = 0;

  /// Durability barrier for backends with a deferred sync point (the
  /// segmented log): after flush() returns, every put/erase issued before
  /// it survives any subsequent crash. Backends with nothing to sync (the
  /// in-memory ones) keep the default no-op. Hosts order flush() BEFORE
  /// releasing any externally visible action (outbound datagrams, a
  /// completed A-broadcast) so a deferred-sync backend is
  /// indistinguishable from a synchronous one to every other process — the
  /// soundness argument of DESIGN.md §16.
  virtual void flush() {}

  /// All stored keys beginning with `prefix`, in lexicographic order.
  virtual std::vector<std::string> keys_with_prefix(
      std::string_view prefix) = 0;

  /// Current footprint in bytes (sum of stored key+value sizes). Drives the
  /// log-size-growth experiment (paper §5.2).
  virtual std::uint64_t footprint_bytes() = 0;

  virtual const StorageStats& stats() const = 0;
};

/// Decorator that records a kLogWrite trace event for every *completed* put.
/// Wraps the host's outermost storage (under the fault injector, so a put
/// that crashes the process records nothing — matching the paper's "log
/// completes or the process crashes"). Keys arrive already layer-prefixed
/// ("ab/...", "cons/...", "fd/..."), which is what lets the offline checker
/// attribute log operations to layers.
class TracingStorage final : public StableStorage {
 public:
  TracingStorage(StableStorage& inner, obs::TraceRecorder& recorder,
                 std::function<TimePoint()> clock)
      : inner_(inner), recorder_(recorder), clock_(std::move(clock)) {}

  void put(std::string_view key, const Bytes& value) override {
    inner_.put(key, value);
    recorder_.record(obs::EventKind::kLogWrite, clock_ ? clock_() : 0, 0,
                     MsgId{}, value.size(), std::string(key));
  }

  std::optional<Bytes> get(std::string_view key) override {
    return inner_.get(key);
  }

  void erase(std::string_view key) override { inner_.erase(key); }

  void flush() override { inner_.flush(); }

  std::vector<std::string> keys_with_prefix(std::string_view prefix) override {
    return inner_.keys_with_prefix(prefix);
  }

  std::uint64_t footprint_bytes() override { return inner_.footprint_bytes(); }

  const StorageStats& stats() const override { return inner_.stats(); }

 private:
  StableStorage& inner_;
  obs::TraceRecorder& recorder_;
  std::function<TimePoint()> clock_;
};

}  // namespace abcast
