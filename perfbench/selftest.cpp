// Self-test of the benchmark's own code: the correctness check must reject
// injected faults, and the percentile and self-time code must match
// hand-computed values. Run: .bench_build/perfbench_selftest
#include <gtest/gtest.h>

#include "apps/kv_store.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSeed = 7;

/// A run of `n` commands per sender that every replica applied correctly:
/// the replicas' states are produced by the program's KvStore, applying the
/// commands in one total order (round-robin over senders).
struct Fixture {
  std::vector<CommandStream> streams;
  std::vector<std::uint64_t> per_sender;
  Expected expected;
  std::vector<ReplicaState> replicas;

  explicit Fixture(std::uint64_t n) {
    std::vector<std::vector<abcast::Bytes>> cmds(kReplicas);
    for (std::uint32_t s = 0; s < kReplicas; ++s) {
      streams.emplace_back(kSeed, s);
      for (std::uint64_t j = 0; j < n; ++j) cmds[s].push_back(streams[s].next());
      per_sender.push_back(n);
    }
    expected = model(kSeed, streams);
    abcast::apps::KvStore kv;
    std::vector<Delivery> log;
    for (std::uint64_t j = 0; j < n; ++j) {
      for (std::uint32_t s = 0; s < kReplicas; ++s) {
        kv.apply(cmds[s][j]);
        const auto tag = parse_tag(cmds[s][j]);
        Delivery d;
        d.sender = static_cast<std::uint16_t>(tag->sender);
        d.seq = static_cast<std::uint32_t>(tag->seq);
        d.incarnation = 1;
        log.push_back(d);
      }
    }
    ReplicaState st;
    st.total = n * kReplicas;
    st.digest = kv.digest();
    st.size = kv.size();
    st.counter = kv.get_int(kCounterKey);
    for (const auto& [k, v] : expected.kv) {
      if (auto got = kv.get(k)) st.kv.emplace(k, *got);
    }
    st.log = log;
    replicas.assign(kReplicas, st);
  }

  CheckResult check() const {
    return check_replicas(expected, per_sender, replicas);
  }
};

TEST(Check, AcceptsACorrectRun) {
  Fixture f(100);
  const auto res = f.check();
  EXPECT_TRUE(res.ok) << (res.errors.empty() ? "" : res.errors[0]);
  EXPECT_EQ(f.expected.total, 300u);
  EXPECT_NE(f.expected.counter, 0);
}

TEST(Check, RejectsADroppedCommand) {
  Fixture f(100);
  auto& log = f.replicas[1].log;
  log.erase(log.begin() + 40);
  EXPECT_FALSE(f.check().ok);
}

TEST(Check, RejectsADroppedCommandEvenWithTheRightTotal) {
  Fixture f(100);
  // The last command of sender 2 never reaches replica 2's callback.
  auto& log = f.replicas[2].log;
  log.pop_back();
  EXPECT_FALSE(f.check().ok);
}

TEST(Check, RejectsADuplicatedCommand) {
  Fixture f(100);
  auto& log = f.replicas[0].log;
  log.insert(log.begin() + 10, log[9]);
  EXPECT_FALSE(f.check().ok);
}

TEST(Check, RejectsADuplicateOnAPartialReplica) {
  Fixture f(100);
  f.replicas[0].partial_callbacks = true;
  auto& log = f.replicas[0].log;
  log.insert(log.begin() + 10, log[9]);
  EXPECT_FALSE(f.check().ok);
}

TEST(Check, RejectsAPerSenderReorder) {
  Fixture f(100);
  auto& log = f.replicas[1].log;
  // Entries 3 and 6 are sender 0's commands 1 and 2.
  ASSERT_EQ(log[3].sender, 0);
  ASSERT_EQ(log[6].sender, 0);
  std::swap(log[3], log[6]);
  EXPECT_FALSE(f.check().ok);
}

TEST(Check, RejectsADivergingStore) {
  Fixture f(100);
  ReplicaState& r = f.replicas[2];
  auto it = r.kv.begin();
  it->second[20] = it->second[20] == 'a' ? 'b' : 'a';
  r.digest ^= 1;
  EXPECT_FALSE(f.check().ok);
}

TEST(Check, RejectsAStoreThatMissesTheModelEvenWithEqualDigests) {
  Fixture f(100);
  for (auto& r : f.replicas) {
    r.counter += 1;  // every replica agrees, but not with the model
  }
  EXPECT_FALSE(f.check().ok);
}

TEST(Check, RejectsADifferentDeliveryOrder) {
  Fixture f(100);
  auto& log = f.replicas[2].log;
  // Swap two commands of different senders: per-sender order still holds,
  // but the total order differs from the other replicas'.
  ASSERT_NE(log[0].sender, log[1].sender);
  std::swap(log[0], log[1]);
  const auto res = f.check();
  EXPECT_FALSE(res.ok);
}

TEST(Check, APartialReplicaMayMissAPrefixCoveredByASnapshot) {
  Fixture f(100);
  auto& r = f.replicas[1];
  r.partial_callbacks = true;
  r.log.erase(r.log.begin(), r.log.begin() + 90);
  EXPECT_TRUE(f.check().ok);
}

TEST(Tag, RoundTripsThroughTheCommandEncoding) {
  CommandStream s(kSeed, 2);
  for (std::uint64_t j = 0; j < 40; ++j) {
    const auto tag = parse_tag(s.next());
    ASSERT_TRUE(tag.has_value());
    EXPECT_EQ(tag->sender, 2u);
    EXPECT_EQ(tag->seq, j);
  }
  EXPECT_EQ(s.issued()[15].add, true);
  EXPECT_EQ(s.issued()[14].add, false);
  EXPECT_EQ(key_name(1, 42).size(), kKeyBytes);
  EXPECT_EQ(value_of(kSeed, 1, 42).size(), kValueBytes);
  EXPECT_EQ(kCounterKey.size(), kKeyBytes);
  EXPECT_FALSE(parse_tag(abcast::apps::KvCommand::put("k", "v")).has_value());
}

TEST(Stats, PercentileIsNearestRank) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(percentile(v, 30), 20);   // ceil(1.5) = 2nd
  EXPECT_EQ(percentile(v, 40), 20);   // ceil(2.0) = 2nd
  EXPECT_EQ(percentile(v, 50), 35);   // ceil(2.5) = 3rd
  EXPECT_EQ(percentile(v, 100), 50);
  EXPECT_EQ(percentile(v, 0), 15);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(percentile(hundred, 99), 99);
  EXPECT_EQ(percentile(hundred, 50), 50);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Stats, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

Span span(std::uint8_t depth, std::int64_t wall, std::int64_t cpu) {
  Span s;
  s.depth = depth;
  s.wall_ns = wall;
  s.cpu_ns = cpu;
  return s;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // root(100)                      self 100 - 30 - 20 = 50
  //   a(30)                        self 30 - 10 = 20
  //     a1(10)                     self 10
  //   b(20)                        self 20
  // root2(7)                       self 7
  const std::vector<Span> spans = {span(0, 100, 90), span(1, 30, 25),
                                   span(2, 10, 8),   span(1, 20, 15),
                                   span(0, 7, 6)};
  const auto self = self_times(spans, 0, spans.size());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0].wall_ns, 50);
  EXPECT_EQ(self[0].cpu_ns, 50);  // 90 - 25 - 15
  EXPECT_EQ(self[1].wall_ns, 20);
  EXPECT_EQ(self[1].cpu_ns, 17);
  EXPECT_EQ(self[2].wall_ns, 10);
  EXPECT_EQ(self[3].wall_ns, 20);
  EXPECT_EQ(self[4].cpu_ns, 6);
  // Self times telescope to the roots' durations.
  std::int64_t sum = 0;
  for (const auto& s : self) sum += s.cpu_ns;
  EXPECT_EQ(sum, 90 + 6);
}

TEST(SelfTime, ASpanWhoseParentIsOutsideTheRangeIsARoot) {
  const std::vector<Span> spans = {span(0, 100, 100), span(1, 40, 40),
                                   span(1, 30, 30)};
  const auto self = self_times(spans, 1, 3);
  ASSERT_EQ(self.size(), 2u);
  EXPECT_EQ(self[0].wall_ns, 40);
  EXPECT_EQ(self[1].wall_ns, 30);
}

TEST(SelfTime, RecorderNestsScopes) {
  SpanRecorder rec;
  {
    SpanScope outer(rec, Layer::kConsensusRx);
    SpanScope inner(rec, Layer::kStoragePut, 64);
  }
  SpanScope next(rec, Layer::kTimer);
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.spans()[0].depth, 0);
  EXPECT_EQ(rec.spans()[1].depth, 1);
  EXPECT_EQ(rec.spans()[1].arg, 64u);
  EXPECT_EQ(rec.spans()[2].depth, 0);
  EXPECT_GE(rec.spans()[0].wall_ns, rec.spans()[1].wall_ns);
}

}  // namespace
}  // namespace perfbench
