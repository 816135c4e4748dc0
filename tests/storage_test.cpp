// Unit tests for the stable-storage implementations: in-memory, scoped
// views, the discard baseline, sealed records, fault injection and the
// durable counter. The on-disk backend has its own suite
// (seglog_storage_test.cpp).
#include <gtest/gtest.h>

#include "storage/discard_storage.hpp"
#include "storage/durable_counter.hpp"
#include "storage/faulty_storage.hpp"
#include "storage/mem_storage.hpp"
#include "storage/scoped_storage.hpp"
#include "storage/sealed_record.hpp"

using namespace abcast;

namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

}  // namespace

// ------------------------------------------------------------- MemStorage

TEST(MemStorage, PutGetEraseRoundTrip) {
  MemStableStorage s;
  EXPECT_FALSE(s.get("k").has_value());
  s.put("k", bytes_of("v1"));
  EXPECT_EQ(s.get("k"), bytes_of("v1"));
  s.put("k", bytes_of("v2"));  // overwrite
  EXPECT_EQ(s.get("k"), bytes_of("v2"));
  s.erase("k");
  EXPECT_FALSE(s.get("k").has_value());
}

TEST(MemStorage, PrefixEnumerationIsSortedAndScoped) {
  MemStableStorage s;
  s.put("cons/prop/2", {});
  s.put("cons/prop/1", {});
  s.put("cons/dec/1", {});
  s.put("ab/ckpt", {});
  const auto keys = s.keys_with_prefix("cons/prop/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "cons/prop/1");
  EXPECT_EQ(keys[1], "cons/prop/2");
  EXPECT_EQ(s.keys_with_prefix("").size(), 4u);
  EXPECT_TRUE(s.keys_with_prefix("zzz").empty());
}

TEST(MemStorage, StatsCountOperations) {
  MemStableStorage s;
  s.put("a", bytes_of("xy"));
  s.put("b", {});
  s.get("a");
  s.get("missing");
  s.erase("a");
  EXPECT_EQ(s.stats().put_ops, 2u);
  EXPECT_EQ(s.stats().get_ops, 2u);
  EXPECT_EQ(s.stats().erase_ops, 1u);
  EXPECT_EQ(s.stats().bytes_written, 1 + 2 + 1u);
}

TEST(MemStorage, FootprintTracksLiveBytes) {
  MemStableStorage s;
  s.put("key1", bytes_of("0123456789"));
  EXPECT_EQ(s.footprint_bytes(), 4 + 10u);
  s.put("key1", bytes_of("01"));  // shrink in place
  EXPECT_EQ(s.footprint_bytes(), 4 + 2u);
  s.erase("key1");
  EXPECT_EQ(s.footprint_bytes(), 0u);
}

TEST(MemStorage, PerScopeAccountingSurvivesManyOps) {
  MemStableStorage s;
  s.put("cons/a", bytes_of("1"));
  s.put("cons/b", bytes_of("22"));
  s.put("ab/x", bytes_of("333"));
  s.put("noscope", {});
  EXPECT_EQ(s.scope_stats("cons").put_ops, 2u);
  // "cons/a"+1 value byte and "cons/b"+2 value bytes.
  EXPECT_EQ(s.scope_stats("cons").bytes_written, 7 + 8u);
  EXPECT_EQ(s.scope_stats("ab").put_ops, 1u);
  EXPECT_EQ(s.scope_stats("fd").put_ops, 0u);
}

TEST(MemStorage, ResetClearsEverything) {
  MemStableStorage s;
  s.put("a", bytes_of("v"));
  s.reset();
  EXPECT_FALSE(s.get("a").has_value());
  EXPECT_EQ(s.stats().put_ops, 0u);
  EXPECT_TRUE(s.by_scope().empty());
}

// ----------------------------------------------------------- ScopedStorage

TEST(ScopedStorage, PrefixesKeysAndStripsOnEnumeration) {
  MemStableStorage inner;
  ScopedStorage cons(inner, "cons");
  ScopedStorage ab(inner, "ab");
  cons.put("prop/1", bytes_of("p"));
  ab.put("ckpt", bytes_of("c"));

  EXPECT_EQ(inner.get("cons/prop/1"), bytes_of("p"));
  EXPECT_EQ(cons.get("prop/1"), bytes_of("p"));
  EXPECT_FALSE(cons.get("ckpt").has_value());

  const auto keys = cons.keys_with_prefix("");
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], "prop/1");
}

TEST(ScopedStorage, TracksItsOwnStats) {
  MemStableStorage inner;
  ScopedStorage cons(inner, "cons");
  ScopedStorage ab(inner, "ab");
  cons.put("a", bytes_of("xx"));
  cons.put("b", {});
  ab.put("c", {});
  EXPECT_EQ(cons.stats().put_ops, 2u);
  EXPECT_EQ(ab.stats().put_ops, 1u);
  EXPECT_EQ(inner.stats().put_ops, 3u);
}

TEST(ScopedStorage, FootprintCoversOwnScopeOnly) {
  MemStableStorage inner;
  ScopedStorage cons(inner, "cons");
  ScopedStorage ab(inner, "ab");
  cons.put("a", Bytes(10, 1));
  ab.put("b", Bytes(100, 2));
  EXPECT_LT(cons.footprint_bytes(), 30u);
  EXPECT_GE(ab.footprint_bytes(), 100u);
}

TEST(ScopedStorage, EraseIsScoped) {
  MemStableStorage inner;
  ScopedStorage cons(inner, "cons");
  inner.put("ab/x", bytes_of("keep"));
  cons.put("x", bytes_of("gone"));
  cons.erase("x");
  EXPECT_FALSE(cons.get("x").has_value());
  EXPECT_TRUE(inner.get("ab/x").has_value());
}

// ---------------------------------------------------------- DiscardStorage

TEST(DiscardStorage, StoresNothingButCounts) {
  DiscardStorage s;
  s.put("k", bytes_of("v"));
  EXPECT_FALSE(s.get("k").has_value());
  EXPECT_TRUE(s.keys_with_prefix("").empty());
  EXPECT_EQ(s.footprint_bytes(), 0u);
  EXPECT_EQ(s.stats().put_ops, 1u);
  EXPECT_EQ(s.stats().bytes_written, 2u);
}

// ------------------------------------------------------------ SealedRecord

TEST(SealedRecord, RoundTripsIncludingEmptyPayload) {
  for (const auto& payload : {bytes_of(""), bytes_of("x"), Bytes(300, 0xAB)}) {
    const Bytes sealed = seal_record(payload);
    EXPECT_EQ(sealed.size(), payload.size() + 4);
    const auto back = unseal_record(sealed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
  }
}

TEST(SealedRecord, RejectsAnySingleBitFlip) {
  const Bytes sealed = seal_record(bytes_of("consensus decision"));
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    Bytes damaged = sealed;
    damaged[byte] ^= 0x04;
    EXPECT_FALSE(unseal_record(damaged).has_value()) << "byte " << byte;
  }
}

TEST(SealedRecord, RejectsTruncation) {
  const Bytes sealed = seal_record(bytes_of("abc"));
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    EXPECT_FALSE(
        unseal_record(Bytes(sealed.begin(),
                            sealed.begin() + static_cast<std::ptrdiff_t>(len)))
            .has_value())
        << "length " << len;
  }
}

// ------------------------------------------------------------ FaultyStorage

namespace {

FaultyStorage make_faulty(std::uint64_t seed = 7) {
  return FaultyStorage(std::make_unique<MemStableStorage>(), Rng(seed));
}

}  // namespace

TEST(FaultyStorage, PassesThroughWithNoFaultsConfigured) {
  auto s = make_faulty();
  s.put("a", bytes_of("one"));
  s.put("b", bytes_of("two"));
  EXPECT_EQ(s.get("a"), bytes_of("one"));
  s.erase("a");
  EXPECT_FALSE(s.get("a").has_value());
  EXPECT_EQ(s.keys_with_prefix(""), std::vector<std::string>{"b"});
  EXPECT_EQ(s.fault_stats().io_errors, 0u);
  EXPECT_EQ(s.fault_stats().total_ops, 5u);
}

TEST(FaultyStorage, PutIoErrorLeavesMediumUntouched) {
  auto s = make_faulty();
  s.put("k", bytes_of("intact"));
  StorageFaultProfile p;
  p.put_io_error_prob = 1.0;
  s.set_profile(p);
  EXPECT_THROW(s.put("k", bytes_of("clobber")), StorageIoError);
  s.set_profile(StorageFaultProfile{});
  EXPECT_EQ(s.get("k"), bytes_of("intact"));
  EXPECT_EQ(s.fault_stats().io_errors, 1u);
}

TEST(FaultyStorage, DiskFullBudgetFailsFurtherPuts) {
  auto s = make_faulty();
  StorageFaultProfile p;
  p.disk_full_after_bytes = 32;
  s.set_profile(p);
  s.put("a", Bytes(16, 'x'));                            // within budget
  EXPECT_THROW(s.put("b", Bytes(64, 'y')), StorageIoError);  // over budget
  EXPECT_EQ(s.fault_stats().disk_full_failures, 1u);
  EXPECT_EQ(s.get("a"), Bytes(16, 'x'));
  EXPECT_FALSE(s.get("b").has_value());
}

TEST(FaultyStorage, SilentTornPutDamagesStoredRecord) {
  auto s = make_faulty(21);
  StorageFaultProfile p;
  p.silent_torn_put_prob = 1.0;
  s.set_profile(p);
  const Bytes value = seal_record(Bytes(64, 0x5A));
  s.put("k", value);  // claims success
  s.set_profile(StorageFaultProfile{});
  const auto stored = s.get("k");
  // Every tear mode (old kept = absent here, empty, prefix, bit flip)
  // yields something != the written record, and the seal catches it.
  EXPECT_NE(stored, std::optional<Bytes>(value));
  if (stored) {
    EXPECT_FALSE(unseal_record(*stored).has_value());
  }
  EXPECT_EQ(s.fault_stats().torn_puts, 1u);
}

TEST(FaultyStorage, ReadBitFlipDamagesCopyNotMedium) {
  auto s = make_faulty();
  const Bytes value = Bytes(32, 0x11);
  s.put("k", value);
  StorageFaultProfile p;
  p.read_bit_flip_prob = 1.0;
  s.set_profile(p);
  const auto rotten = s.get("k");
  ASSERT_TRUE(rotten.has_value());
  EXPECT_NE(*rotten, value);
  EXPECT_EQ(s.fault_stats().bit_flips, 1u);
  s.set_profile(StorageFaultProfile{});
  EXPECT_EQ(s.get("k"), value);  // the stored bytes were never modified
}

TEST(FaultyStorage, CrashPointBeforeOpLeavesMediumUntouched) {
  auto s = make_faulty();
  s.arm_crash_in(1, CrashPhase::kBeforeOp);
  EXPECT_THROW(s.put("k", bytes_of("v")), SimulatedCrash);
  EXPECT_FALSE(s.inner().get("k").has_value());
  EXPECT_EQ(s.fault_stats().crash_points_fired, 1u);
}

TEST(FaultyStorage, CrashPointTornWriteLeavesDamagedRecord) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto s = make_faulty(seed);
    const Bytes value = seal_record(Bytes(48, 0x3C));
    s.arm_crash_in(1, CrashPhase::kTornWrite);
    EXPECT_THROW(s.put("k", value), SimulatedCrash);
    const auto stored = s.inner().get("k");
    EXPECT_NE(stored, std::optional<Bytes>(value)) << "seed " << seed;
    if (stored) {
      EXPECT_FALSE(unseal_record(*stored).has_value());
    }
  }
}

TEST(FaultyStorage, CrashPointAfterOpAppliesTheWrite) {
  auto s = make_faulty();
  s.arm_crash_in(1, CrashPhase::kAfterOp);
  EXPECT_THROW(s.put("k", bytes_of("survived")), SimulatedCrash);
  EXPECT_EQ(s.inner().get("k"), bytes_of("survived"));
}

TEST(FaultyStorage, CrashPointWaitsForTheArmedOpIndex) {
  auto s = make_faulty();
  s.arm_crash_in(3, CrashPhase::kBeforeOp);
  s.put("a", bytes_of("1"));
  s.put("b", bytes_of("2"));
  EXPECT_TRUE(s.crash_point_armed());
  EXPECT_THROW(s.get("a"), SimulatedCrash);
}

TEST(FaultyStorage, CrashPointIsOneShot) {
  auto s = make_faulty();
  s.arm_crash_in(1, CrashPhase::kBeforeOp);
  EXPECT_THROW(s.put("k", bytes_of("v")), SimulatedCrash);
  EXPECT_FALSE(s.crash_point_armed());
  // The "recovered" process retries: the op now succeeds.
  s.put("k", bytes_of("v"));
  EXPECT_EQ(s.get("k"), bytes_of("v"));
  EXPECT_EQ(s.fault_stats().crash_points_fired, 1u);
}

TEST(FaultyStorage, CrashPointOnGetAndErase) {
  auto s = make_faulty();
  s.put("k", bytes_of("v"));
  s.arm_crash_in(1, CrashPhase::kBeforeOp);
  EXPECT_THROW(s.get("k"), SimulatedCrash);
  s.arm_crash_in(1, CrashPhase::kAfterOp);
  EXPECT_THROW(s.erase("k"), SimulatedCrash);
  EXPECT_FALSE(s.inner().get("k").has_value());  // kAfterOp: erase applied
}

// ----------------------------------------------------------- DurableCounter

TEST(DurableCounter, BumpsMonotonicallyAndPersists) {
  MemStableStorage mem;
  {
    DurableCounter c(mem, "epoch");
    EXPECT_EQ(c.load(), 0u);
    EXPECT_EQ(c.bump(), 1u);
    EXPECT_EQ(c.bump(), 2u);
    EXPECT_EQ(c.bump(), 3u);
  }
  DurableCounter reopened(mem, "epoch");
  EXPECT_EQ(reopened.load(), 3u);
  EXPECT_EQ(reopened.corrupt_slots(), 0u);
}

TEST(DurableCounter, SurvivesSingleTornSlot) {
  MemStableStorage mem;
  DurableCounter c(mem, "epoch");
  c.bump();
  c.bump();
  c.bump();  // slots now hold 3 and 2; 3 lives in epoch.a
  mem.put("epoch.a", bytes_of("shredded"));
  DurableCounter after(mem, "epoch");
  EXPECT_EQ(after.load(), 2u);
  EXPECT_EQ(after.corrupt_slots(), 1u);
  // The next bump moves strictly past the surviving value and repairs the
  // damaged slot (it is the non-max slot, so it is the write target).
  EXPECT_EQ(after.bump(), 3u);
  EXPECT_EQ(after.load(), 3u);
  EXPECT_EQ(after.corrupt_slots(), 0u);
}

TEST(DurableCounter, BothSlotsCorruptFallsBackToZero) {
  MemStableStorage mem;
  DurableCounter c(mem, "epoch");
  c.bump();
  c.bump();
  mem.put("epoch.a", bytes_of("x"));
  mem.put("epoch.b", bytes_of("y"));
  DurableCounter after(mem, "epoch");
  EXPECT_EQ(after.load(), 0u);
  EXPECT_EQ(after.corrupt_slots(), 2u);
  EXPECT_EQ(after.bump(), 1u);
}

TEST(DurableCounter, StoreIsOneWritePerCall) {
  MemStableStorage mem;
  DurableCounter c(mem, "epoch");
  const auto before = mem.stats().put_ops;
  c.bump();
  EXPECT_EQ(mem.stats().put_ops, before + 1);
}

// ------------------------------------------------------- slow-disk latency

TEST(FaultyStorageLatency, PerOpDelayAccruesAndDrains) {
  auto s = make_faulty();
  StorageFaultProfile p;
  p.op_delay_min_ns = 100;
  p.op_delay_max_ns = 100;  // degenerate range: deterministic draw
  EXPECT_TRUE(p.any());
  s.set_profile(p);
  EXPECT_EQ(s.pending_delay_ns(), 0);
  s.put("k", bytes_of("v"));
  EXPECT_EQ(s.pending_delay_ns(), 100);
  s.get("k");
  s.erase("k");
  EXPECT_EQ(s.pending_delay_ns(), 300);
  EXPECT_EQ(s.fault_stats().delay_injected_ns, 300u);
  EXPECT_EQ(s.take_pending_delay(), 300);
  EXPECT_EQ(s.pending_delay_ns(), 0);
  // Draining does not reset the lifetime stat.
  EXPECT_EQ(s.fault_stats().delay_injected_ns, 300u);
}

TEST(FaultyStorageLatency, DelayIsDrawnFromTheRange) {
  auto s = make_faulty();
  StorageFaultProfile p;
  p.op_delay_min_ns = 50;
  p.op_delay_max_ns = 150;
  s.set_profile(p);
  for (int i = 0; i < 64; ++i) {
    s.put("k", bytes_of("v"));
    const auto d = s.take_pending_delay();
    EXPECT_GE(d, 50);
    EXPECT_LE(d, 150);
  }
}

TEST(FaultyStorageLatency, StallModeInjectsLongStalls) {
  auto s = make_faulty();
  StorageFaultProfile p;
  p.stall_prob = 1.0;
  p.stall_ns = millis(10);
  EXPECT_TRUE(p.any());
  s.set_profile(p);
  s.put("k", bytes_of("v"));
  EXPECT_EQ(s.pending_delay_ns(), millis(10));
  EXPECT_EQ(s.fault_stats().stalls, 1u);
  s.get("k");
  EXPECT_EQ(s.fault_stats().stalls, 2u);
  EXPECT_EQ(s.pending_delay_ns(), 2 * millis(10));
}

TEST(FaultyStorageLatency, LatencyFreeProfileLeavesRngStreamUntouched) {
  // The latency mode must not perturb seeded runs that do not use it: two
  // decorators with the same RNG seed, one latency-free profile and one
  // untouched, must make identical randomized-fault decisions.
  auto a = make_faulty(99);
  auto b = make_faulty(99);
  StorageFaultProfile p;
  p.silent_torn_put_prob = 0.5;
  a.set_profile(p);
  b.set_profile(p);
  // a: interleave ops through a latency-free profile; b: plain.
  for (int i = 0; i < 200; ++i) {
    a.put("k" + std::to_string(i), bytes_of("v"));
    b.put("k" + std::to_string(i), bytes_of("v"));
  }
  EXPECT_EQ(a.fault_stats().torn_puts, b.fault_stats().torn_puts);
  EXPECT_EQ(a.pending_delay_ns(), 0);
}
