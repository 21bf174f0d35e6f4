// Self-tests of the benchmark's own parts: percentile helpers, the Poisson
// schedule, the tid -> stage mapping, and call forwarding by every timing
// decorator.
#include <gtest/gtest.h>

#include "assembly.h"
#include "decorators.h"
#include "openloop.h"
#include "procstat.h"
#include "stats.h"
#include "storage/mem_store.h"

namespace rtbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({7}, 99), 7);
}

TEST(Percentile, HighestWithTenBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(900, 99), 9u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(500), 98.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(199), 90.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  auto a = poisson_schedule(42, 500, 5);
  auto b = poisson_schedule(42, 500, 5);
  auto c = poisson_schedule(43, 500, 5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // ~2500 arrivals; the count of a Poisson(2500) is within 5 sigma.
  EXPECT_GT(a.size(), 2250u);
  EXPECT_LT(a.size(), 2750u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 5'000'000'000);
}

TEST(StageMapping, OneStartedReplicaYieldsSaturationsPlusTimer) {
  ClusterSpec spec;
  spec.n = 4;
  spec.ycsb.record_count = 100;
  BenchCluster cluster(spec);
  ASSERT_EQ(cluster.start(), "");
  for (std::uint32_t r = 0; r < 4; ++r) {
    const auto& threads = cluster.stage_threads(r);
    auto sats = cluster.replica(r)->thread_saturations();
    ASSERT_EQ(threads.size(), sats.size() + 1);
    for (std::size_t i = 0; i < sats.size(); ++i) {
      EXPECT_EQ(threads[i].name, sats[i].thread);
      EXPECT_TRUE(read_thread_times(threads[i].tid).has_value());
    }
    EXPECT_EQ(threads.back().stage, "timer");
    EXPECT_EQ(threads.front().stage, "input");
  }
}

TEST(StageMapping, CountMismatchIsRejected) {
  EXPECT_TRUE(map_stage_threads({1, 2, 3}, {"input", "worker"}).size() == 3);
  EXPECT_TRUE(map_stage_threads({1, 2}, {"input", "worker"}).empty());
  EXPECT_EQ(stage_of("output-1"), "output");
}

// Counting inner objects: every call a decorator receives must reach them.
class CountingTransport final : public rdb::runtime::Transport {
 public:
  void register_endpoint(rdb::Endpoint, std::shared_ptr<Inbox>) override {
    ++registers;
  }
  void send(rdb::Endpoint, const rdb::protocol::Message&) override { ++sends; }
  void send_raw(rdb::Endpoint, rdb::Bytes) override { ++raws; }
  void send_frame(rdb::Endpoint, rdb::Endpoint, rdb::FrameView) override {
    ++frames;
  }
  int registers = 0, sends = 0, raws = 0, frames = 0;
};

TEST(Decorators, TransportForwardsEveryCall) {
  Trace trace(16, 1);
  CountingTransport inner;
  TimedTransport t(inner, trace, 0);
  rdb::protocol::Message m;
  rdb::protocol::ClientResponse resp;
  resp.client = 1;
  resp.req_id = 3;
  m.payload = resp;
  t.register_endpoint(rdb::Endpoint::client(1), nullptr);
  t.send(rdb::Endpoint::client(1), m);
  t.send(rdb::Endpoint::client(1), m);
  t.send_raw(rdb::Endpoint::client(1), rdb::Bytes{1, 2, 3});
  rdb::OwnedFrame frame = rdb::OwnedFrame::adopt(rdb::Bytes{1, 2, 3, 4});
  t.send_frame(rdb::Endpoint::replica(0), rdb::Endpoint::client(1),
               frame.view());
  EXPECT_EQ(inner.registers, 1);
  EXPECT_EQ(inner.sends, 2);
  EXPECT_EQ(inner.raws, 1);
  EXPECT_EQ(inner.frames, 1);
  EXPECT_EQ(trace.counters()[kTransportMsgs], 4u);
  EXPECT_EQ(trace.counters()[kTransportBytes], 2 * m.wire_size() + 3 + 4);
  EXPECT_EQ(trace.spans().size(), 2u);  // sample_every 1: both sends traced
}

TEST(Decorators, StoreForwardsEveryCall) {
  Trace trace(16, 1);
  auto mem = std::make_unique<rdb::storage::MemStore>();
  auto* inner = mem.get();
  TimedStore s(std::move(mem), trace, 0);
  s.put("a", "1");
  s.put("b", "2");
  EXPECT_EQ(s.get("a"), std::optional<std::string>("1"));
  EXPECT_FALSE(s.get("zz").has_value());
  EXPECT_TRUE(s.contains("b"));
  s.commit_wave();
  EXPECT_EQ(inner->stats().writes, 2u);
  EXPECT_EQ(inner->stats().reads, 2u);
  EXPECT_EQ(trace.counters()[kStorePuts], 2u);
  EXPECT_EQ(trace.counters()[kStoreGets], 2u);
  EXPECT_EQ(trace.counters()[kStoreWaves], 1u);
  EXPECT_EQ(s.size(), 2u);
}

class CountingFile final : public rdb::storage::File {
 public:
  explicit CountingFile(int* writes, int* syncs) : w_(writes), s_(syncs) {}
  std::size_t read(std::uint64_t, void*, std::size_t) override { return 0; }
  void write(std::uint64_t, const void*, std::size_t) override { ++*w_; }
  void sync() override { ++*s_; }
  std::uint64_t size() override { return 0; }
  void truncate(std::uint64_t) override {}

 private:
  int* w_;
  int* s_;
};

class CountingEnv final : public rdb::storage::Env {
 public:
  std::unique_ptr<rdb::storage::File> open(const std::string&) override {
    ++opens;
    return std::make_unique<CountingFile>(&writes, &syncs);
  }
  bool exists(const std::string&) override { return false; }
  void remove(const std::string&) override { ++removes; }
  void rename(const std::string&, const std::string&) override { ++renames; }
  void make_dirs(const std::string&) override {}
  int opens = 0, writes = 0, syncs = 0, removes = 0, renames = 0;
};

TEST(Decorators, EnvAndFileForwardEveryCall) {
  Trace trace(16, 1);
  CountingEnv inner;
  TimedEnv env(inner, trace);
  auto f = env.open("x");
  char buf[5] = "abcd";
  f->write(0, buf, 4);
  f->write(4, buf, 2);
  f->sync();
  env.rename("x", "y");
  env.remove("y");
  EXPECT_EQ(inner.opens, 1);
  EXPECT_EQ(inner.writes, 2);
  EXPECT_EQ(inner.syncs, 1);
  EXPECT_EQ(inner.renames, 1);
  EXPECT_EQ(inner.removes, 1);
  EXPECT_EQ(trace.counters()[kEnvWriteBytes], 6u);
  EXPECT_EQ(trace.counters()[kEnvSyncs], 1u);
  EXPECT_EQ(trace.sync_ms().size(), 1u);
}

TEST(Decorators, ExecuteForwardsAndSubtractsStorageTime) {
  Trace trace(16, 1);
  int calls = 0;
  rdb::runtime::ExecuteFn inner = [&calls](const rdb::protocol::Transaction&,
                                           rdb::storage::KvStore& s) {
    ++calls;
    s.put("k", "v");
    return std::uint64_t{7};
  };
  const rdb::runtime::Replica* self = nullptr;
  auto fn = timed_execute(inner, trace, 0, &self);
  TimedStore store(std::make_unique<rdb::storage::MemStore>(), trace, 0);
  rdb::protocol::Transaction txn;
  txn.client = 1;
  txn.req_id = 1;
  EXPECT_EQ(fn(txn, store), 7u);
  EXPECT_EQ(fn(txn, store), 7u);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(trace.counters()[kExecCalls], 2u);
  EXPECT_EQ(trace.counters()[kStorePuts], 2u);
  // Each execute span has its storage.put child.
  int exec = 0, put = 0;
  for (const auto& sp : trace.spans()) {
    if (std::string(sp.name) == "storage.put") {
      ++put;
      EXPECT_NE(sp.parent, 0u);
    } else {
      ++exec;
    }
  }
  EXPECT_EQ(exec, 2);
  EXPECT_EQ(put, 2);
}

}  // namespace
}  // namespace rtbench
