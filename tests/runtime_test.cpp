// Threaded runtime integration: real threads, real crypto, real execution.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "protocol/validate.h"
#include "runtime/cluster.h"
#include "storage/page_db.h"
#include "workload/ycsb.h"

namespace rdb::runtime {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<workload::YcsbWorkload> small_workload() {
  workload::YcsbConfig cfg;
  cfg.record_count = 1000;
  cfg.ops_per_txn = 2;
  cfg.value_bytes = 8;
  return std::make_shared<workload::YcsbWorkload>(cfg);
}

ClusterConfig base_config(std::shared_ptr<workload::YcsbWorkload> wl) {
  ClusterConfig cfg;
  cfg.replicas = 4;
  cfg.batch_size = 5;
  cfg.execute = [wl](const protocol::Transaction& t, storage::KvStore& s) {
    return wl->execute(t, s);
  };
  return cfg;
}

std::vector<protocol::Transaction> make_burst(Client& client,
                                              workload::YcsbWorkload& wl,
                                              Rng& rng, int count) {
  std::vector<protocol::Transaction> txns;
  for (int i = 0; i < count; ++i) {
    auto t = wl.make_transaction(rng, client.id(), 0);
    txns.push_back(client.make_transaction(t.payload, t.ops));
  }
  return txns;
}

TEST(Runtime, EndToEndCommitAndExecute) {
  auto wl = small_workload();
  LocalCluster cluster(base_config(wl));
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(1);

  auto results = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
  ASSERT_TRUE(results.has_value());
  EXPECT_EQ(results->size(), 5u);
  for (auto r : *results) EXPECT_EQ(r, 2u);  // ops per txn executed

  ASSERT_TRUE(cluster.wait_for_execution(1, std::chrono::seconds(5)));
  cluster.stop();
}

TEST(Runtime, ReplicasConvergeToIdenticalState) {
  auto wl = small_workload();
  LocalCluster cluster(base_config(wl));
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(2);
  for (int round = 0; round < 6; ++round) {
    auto res = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
    ASSERT_TRUE(res.has_value()) << "round " << round;
  }
  ASSERT_TRUE(cluster.wait_for_execution(6, std::chrono::seconds(5)));

  // Same chain commitment and same store contents everywhere.
  auto acc0 = cluster.replica(0).chain().accumulator();
  auto size0 = cluster.replica(0).store().size();
  for (ReplicaId r = 1; r < cluster.size(); ++r) {
    EXPECT_EQ(cluster.replica(r).chain().accumulator(), acc0)
        << "replica " << r;
    EXPECT_EQ(cluster.replica(r).store().size(), size0);
  }
  cluster.stop();
}

TEST(Runtime, ConcurrentClients) {
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.batch_size = 10;
  LocalCluster cluster(cfg);
  cluster.start();

  constexpr int kClients = 4;
  constexpr int kRounds = 4;
  std::atomic<int> completed{0};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = cluster.make_client(static_cast<ClientId>(c + 1));
        Rng rng(100 + c);
        for (int round = 0; round < kRounds; ++round) {
          auto res =
              client->submit_and_wait(make_burst(*client, *wl, rng, 5));
          if (res) completed.fetch_add(static_cast<int>(res->size()));
        }
      });
    }
  }
  EXPECT_EQ(completed.load(), kClients * kRounds * 5);

  // All replicas converge on the same chain commitment.
  SeqNum last = cluster.replica(0).last_executed();
  ASSERT_TRUE(cluster.wait_for_execution(last, std::chrono::seconds(5)));
  auto acc0 = cluster.replica(0).chain().accumulator();
  for (ReplicaId r = 1; r < cluster.size(); ++r)
    EXPECT_EQ(cluster.replica(r).chain().accumulator(), acc0);
  cluster.stop();
}

TEST(Runtime, ToleratesOneBackupPartition) {
  auto wl = small_workload();
  LocalCluster cluster(base_config(wl));
  cluster.start();
  // Partition backup 3 (f = 1): consensus must keep committing.
  cluster.transport().set_partitioned(Endpoint::replica(3), true);

  auto client = cluster.make_client(1);
  Rng rng(3);
  auto res = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
  ASSERT_TRUE(res.has_value());
  ASSERT_TRUE(
      cluster.wait_for_execution(1, std::chrono::seconds(5), /*skip=*/{3}));
  EXPECT_EQ(cluster.replica(3).last_executed(), 0u);
  cluster.stop();
}

TEST(Runtime, PrimaryFailureRecoversViaViewChange) {
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.request_timeout_ns = 200'000'000;  // 200 ms view-change trigger
  LocalCluster cluster(cfg);
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(4);

  // Commit one batch in view 0 so backups have run the full pipeline.
  auto res = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
  ASSERT_TRUE(res.has_value());

  // Kill the primary mid-protocol: deliver client work, then partition it
  // right away so some pre-prepares may be in flight.
  cluster.transport().set_partitioned(Endpoint::replica(0), true);

  // The client retries; its retry targets rotate through replicas, and the
  // new primary (1) eventually sequences the request in view >= 1.
  auto res2 = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
  ASSERT_TRUE(res2.has_value());
  EXPECT_GE(client->believed_view(), 1u);
  for (ReplicaId r = 1; r < cluster.size(); ++r)
    EXPECT_GE(cluster.replica(r).view(), 1u) << "replica " << r;
  cluster.stop();
}

TEST(Runtime, InvalidClientSignatureExcised) {
  auto wl = small_workload();
  LocalCluster cluster(base_config(wl));
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(5);

  // Build a burst and corrupt one signature: the batch thread excises the
  // forged transaction but still proposes the batch (its sequence number is
  // already assigned — dropping it would stall execution forever).
  auto txns = make_burst(*client, *wl, rng, 5);
  txns[2].client_sig[3] ^= 0xFF;

  protocol::ClientRequest req;
  req.txns = txns;
  protocol::Message msg;
  msg.from = Endpoint::client(1);
  msg.payload = req;
  cluster.transport().send(Endpoint::replica(0), msg);

  ASSERT_TRUE(cluster.wait_for_execution(1, std::chrono::seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto stats = cluster.replica(0).stats();
  EXPECT_GE(stats.invalid_signatures, 1u);
  EXPECT_EQ(stats.txns_executed, 4u);  // the forged transaction is gone
  // 4 valid txns x 2 ops each actually hit the store.
  EXPECT_EQ(cluster.replica(0).store().stats().writes, 8u);
  cluster.stop();
}

TEST(Runtime, VerifyPoolAllEd25519) {
  // Full digital-signature configuration with the Prepare/Commit verify
  // pool enabled: consensus must still commit and execute correctly (the
  // pool may reorder votes; PBFT counts them per sequence number), and the
  // pool threads must show up in the saturation report.
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.schemes = crypto::SchemeConfig::all_ed25519();
  cfg.verify_threads = 2;
  LocalCluster cluster(cfg);
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(9);

  auto results = client->submit_and_wait(make_burst(*client, *wl, rng, 10));
  ASSERT_TRUE(results.has_value());
  EXPECT_EQ(results->size(), 10u);
  ASSERT_TRUE(cluster.wait_for_execution(2, std::chrono::seconds(10)));

  auto stats = cluster.replica(1).stats();
  EXPECT_EQ(stats.invalid_signatures, 0u);
  bool has_verify_thread = false;
  for (const auto& ts : cluster.replica(1).thread_saturations())
    if (ts.thread.rfind("verify-", 0) == 0) has_verify_thread = true;
  EXPECT_TRUE(has_verify_thread);
  cluster.stop();
}

TEST(Runtime, VerifyPoolRejectsForgedReplicaMessages) {
  // A forged Prepare/Commit arriving at a pool-enabled replica must be
  // dropped by the verify stage and counted, never reaching the engine.
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.schemes = crypto::SchemeConfig::all_ed25519();
  cfg.verify_threads = 1;
  LocalCluster cluster(cfg);
  cluster.start();

  protocol::Prepare prep;
  prep.view = 0;
  prep.seq = 1;
  protocol::Message forged;
  forged.from = Endpoint::replica(2);
  forged.payload = prep;
  forged.signature = Bytes(65, 0xAB);  // garbage signature
  forged.signature[0] = 2;            // kEd25519 scheme id
  cluster.transport().send(Endpoint::replica(1), forged);

  // Give the pipeline a moment, then check the rejection counter.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GE(cluster.replica(1).stats().invalid_signatures, 1u);
  cluster.stop();
}

TEST(Runtime, VerifyPoolBurstBatchesSignatures) {
  // The verify stage drains bursts of Prepare/Commit votes and settles each
  // burst with one batch-verify call. Under sustained load the batch
  // counters must engage (flushes > 0, mean size >= 1), certificates
  // re-checked through the same path must all hold, and nothing valid may
  // be rejected.
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.schemes = crypto::SchemeConfig::all_ed25519();
  cfg.verify_threads = 2;
  cfg.verify_batch_size = 16;
  cfg.verify_batch_wait_ns = 500'000;  // 500 us flush cutoff
  cfg.verify_certificates = true;
  LocalCluster cluster(cfg);
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(31);

  for (int round = 0; round < 5; ++round) {
    auto res = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
    ASSERT_TRUE(res.has_value()) << "round " << round;
  }
  ASSERT_TRUE(cluster.wait_for_execution(5, std::chrono::seconds(10)));

  for (ReplicaId r = 0; r < cluster.size(); ++r) {
    auto stats = cluster.replica(r).stats();
    EXPECT_EQ(stats.invalid_signatures, 0u) << "replica " << r;
    EXPECT_GT(stats.batched_sigs, 0u) << "replica " << r;
    EXPECT_GT(stats.batch_flushes, 0u) << "replica " << r;
    EXPECT_GE(stats.batch_mean_size, 1.0) << "replica " << r;
    // All votes were honest: no batch ever needed a culprit hunt, and the
    // certificate re-check found every 2f+1 vote set intact.
    EXPECT_EQ(stats.batch_fallback_bisections, 0u) << "replica " << r;
    EXPECT_EQ(stats.cert_vote_failures, 0u) << "replica " << r;
  }
  cluster.stop();
}

TEST(Runtime, VerifyPoolBatchSizeOneStillConverges) {
  // Degenerate burst size: every message flushes alone, which must behave
  // exactly like the pre-batching stage (correct convergence, no rejects).
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.schemes = crypto::SchemeConfig::all_ed25519();
  cfg.verify_threads = 1;
  cfg.verify_batch_size = 1;
  LocalCluster cluster(cfg);
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(32);

  auto res = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
  ASSERT_TRUE(res.has_value());
  ASSERT_TRUE(cluster.wait_for_execution(1, std::chrono::seconds(10)));
  EXPECT_EQ(cluster.replica(1).stats().invalid_signatures, 0u);
  cluster.stop();
}

TEST(Runtime, RetransmittedRequestExecutesOnce) {
  // A client retransmission (e.g. after a presumed timeout) must not apply
  // the writes twice: the reply cache answers duplicates.
  auto wl = small_workload();
  LocalCluster cluster(base_config(wl));
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(21);

  auto burst = make_burst(*client, *wl, rng, 5);
  protocol::ClientRequest req;
  req.txns = burst;
  protocol::Message msg;
  msg.from = Endpoint::client(1);
  msg.payload = req;

  // Deliver the identical request message twice.
  cluster.transport().send(Endpoint::replica(0), msg);
  cluster.transport().send(Endpoint::replica(0), msg);
  ASSERT_TRUE(cluster.wait_for_execution(2, std::chrono::seconds(5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto stats = cluster.replica(0).stats();
  EXPECT_EQ(stats.txns_executed, 5u);
  EXPECT_EQ(stats.duplicate_txns, 5u);
  // Each transaction writes ops_per_txn (=2) records exactly once.
  EXPECT_EQ(cluster.replica(0).store().stats().writes, 10u);
  cluster.stop();
}

TEST(Runtime, CheckpointsBoundChainRetention) {
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.checkpoint_interval = 4;
  LocalCluster cluster(cfg);
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(6);
  for (int round = 0; round < 12; ++round) {
    auto res = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
    ASSERT_TRUE(res.has_value());
  }
  ASSERT_TRUE(cluster.wait_for_execution(12, std::chrono::seconds(5)));
  // Give checkpoint traffic a moment to stabilize, then check pruning.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(cluster.replica(0).chain().retained(), 13u);
  EXPECT_EQ(cluster.replica(0).chain().total_blocks(), 13u);  // + genesis
  cluster.stop();
}

TEST(Runtime, PageDbBackedReplicas) {
  auto wl = small_workload();
  auto cfg = base_config(wl);
  auto dir = fs::temp_directory_path() / "rdb_runtime_pagedb";
  fs::remove_all(dir);
  fs::create_directories(dir);
  cfg.make_store = [dir](ReplicaId r) -> std::unique_ptr<storage::KvStore> {
    storage::PageDbConfig pc;
    pc.path = (dir / ("replica" + std::to_string(r) + ".db")).string();
    return std::make_unique<storage::PageDb>(pc);
  };
  {
    LocalCluster cluster(cfg);
    cluster.start();
    auto client = cluster.make_client(1);
    Rng rng(7);
    auto res = client->submit_and_wait(make_burst(*client, *wl, rng, 5));
    ASSERT_TRUE(res.has_value());
    ASSERT_TRUE(cluster.wait_for_execution(1, std::chrono::seconds(5)));
    EXPECT_GT(cluster.replica(0).store().size(), 0u);
    cluster.stop();
  }
  fs::remove_all(dir);
}

TEST(Runtime, BufferPoolRecirculates) {
  auto wl = small_workload();
  LocalCluster cluster(base_config(wl));
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(8);
  for (int round = 0; round < 5; ++round)
    ASSERT_TRUE(
        client->submit_and_wait(make_burst(*client, *wl, rng, 5)).has_value());
  auto stats = cluster.replica(0).stats();
  EXPECT_GE(stats.pool_hits, 5u);
  EXPECT_EQ(stats.pool_misses, 0u);
  cluster.stop();
}

TEST(Runtime, ThreadSaturationsReported) {
  auto wl = small_workload();
  LocalCluster cluster(base_config(wl));
  cluster.start();
  auto client = cluster.make_client(1);
  Rng rng(31);
  for (int round = 0; round < 3; ++round)
    ASSERT_TRUE(
        client->submit_and_wait(make_burst(*client, *wl, rng, 5)).has_value());

  auto sats = cluster.replica(0).thread_saturations();
  ASSERT_FALSE(sats.empty());
  double worker_pct = -1, input_pct = -1;
  for (const auto& s : sats) {
    EXPECT_GE(s.percent, 0.0);
    EXPECT_LE(s.percent, 100.5);
    if (s.thread == "worker") worker_pct = s.percent;
    if (s.thread == "input") input_pct = s.percent;
  }
  // The primary processed real work: its worker and input threads were busy
  // for a measurable (nonzero) fraction of the run.
  EXPECT_GT(worker_pct, 0.0);
  EXPECT_GT(input_pct, 0.0);
  cluster.stop();
}

// Open-loop client for the batch-deadline test: sends single-txn requests
// to the primary without waiting for replies, and records when each one is
// decided (f+1 responses from distinct replicas).
class TrickleClient {
 public:
  using Clock = std::chrono::steady_clock;

  TrickleClient(LocalCluster& cluster, ClientId id, std::size_t requests)
      : id_(id),
        n_(cluster.size()),
        transport_(cluster.wire()),
        crypto_(Endpoint::client(id), cluster.registry(),
                crypto::SchemeConfig{}),
        inbox_(std::make_shared<Transport::Inbox>()),
        sent_(requests),
        decided_(requests),
        repliers_(requests) {
    transport_.register_endpoint(Endpoint::client(id_), inbox_);
    receiver_ = std::jthread([this](std::stop_token st) { receive(st); });
  }
  ~TrickleClient() {
    inbox_->shutdown();
    receiver_.request_stop();
  }

  /// Sends request `i` (0-based; its request id is i + 1) now.
  void send(std::size_t i, workload::YcsbWorkload& wl, Rng& rng) {
    auto t = wl.make_transaction(rng, id_, 0);
    protocol::Transaction txn;
    txn.client = id_;
    txn.req_id = i + 1;
    txn.ops = t.ops;
    txn.payload = std::move(t.payload);
    Bytes txn_canon = txn.signing_bytes();
    txn.client_sig =
        crypto_.sign(Endpoint::replica(0), BytesView(txn_canon));
    protocol::ClientRequest req;
    req.txns.push_back(std::move(txn));
    protocol::Message msg;
    msg.from = Endpoint::client(id_);
    msg.payload = std::move(req);
    Bytes canon = msg.signing_bytes();
    msg.signature = crypto_.sign(Endpoint::replica(0), BytesView(canon));
    {
      MutexLock lock(mu_);
      sent_[i] = Clock::now();
    }
    transport_.send(Endpoint::replica(0), msg);
  }

  /// Waits until every request is decided; false on timeout.
  bool wait_all(std::chrono::milliseconds timeout) {
    auto deadline = Clock::now() + timeout;
    while (Clock::now() < deadline) {
      {
        MutexLock lock(mu_);
        if (decided_count_ == decided_.size()) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  /// Longest send -> decided time over all requests.
  std::chrono::nanoseconds max_latency() const {
    MutexLock lock(mu_);
    std::chrono::nanoseconds worst{0};
    for (std::size_t i = 0; i < sent_.size(); ++i)
      worst = std::max(worst, decided_[i] - sent_[i]);
    return worst;
  }

 private:
  void receive(std::stop_token st) {
    protocol::ValidationContext vctx;
    vctx.n = n_;
    vctx.accept_mask = protocol::accept_bit(protocol::MsgType::kClientResponse);
    while (!st.stop_requested()) {
      auto wire = inbox_->pop();
      if (!wire) return;
      auto verdict = protocol::validate_wire(BytesView(*wire), vctx);
      if (!verdict.ok()) continue;
      protocol::Message msg = std::move(*verdict.msg).release();
      const auto& resp = std::get<protocol::ClientResponse>(msg.payload);
      if (resp.client != id_ || resp.req_id == 0 ||
          resp.req_id > repliers_.size())
        continue;
      const std::size_t i = resp.req_id - 1;
      MutexLock lock(mu_);
      std::uint32_t& voted = repliers_[i];
      const bool was_decided = std::popcount(voted) >= static_cast<int>(max_faulty(n_)) + 1;
      voted |= 1u << msg.from.id;
      if (!was_decided &&
          std::popcount(voted) >= static_cast<int>(max_faulty(n_)) + 1) {
        decided_[i] = Clock::now();
        ++decided_count_;
      }
    }
  }

  ClientId id_;
  std::uint32_t n_;
  Transport& transport_;
  crypto::CryptoProvider crypto_;
  std::shared_ptr<Transport::Inbox> inbox_;
  mutable Mutex mu_{LockRank::kClient, "TrickleClient"};
  std::vector<Clock::time_point> sent_ RDB_GUARDED_BY(mu_);
  std::vector<Clock::time_point> decided_ RDB_GUARDED_BY(mu_);
  std::vector<std::uint32_t> repliers_ RDB_GUARDED_BY(mu_);  // bit per replica
  std::size_t decided_count_ RDB_GUARDED_BY(mu_) = 0;
  std::jthread receiver_;
};

// A trickle of single-txn requests, one every ~2 ms, never leaves the
// primary's inbox idle for batch_flush_timeout_ns. Partial batches must
// still be cut once their oldest txn is that old: every request is decided
// in about the deadline, not after batch_size arrivals (~200 ms here), and
// batches stay far below batch_size.
TEST(Runtime, BatchDeadlineCutsTrickle) {
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.batch_size = 100;
  LocalCluster cluster(cfg);
  cluster.start();

  constexpr std::size_t kRequests = 150;
  TrickleClient client(cluster, 1, kRequests);
  Rng rng(41);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kRequests; ++i) {
    std::this_thread::sleep_until(start + i * std::chrono::milliseconds(2));
    client.send(i, *wl, rng);
  }
  ASSERT_TRUE(client.wait_all(std::chrono::seconds(10)));

  const std::chrono::nanoseconds deadline{
      ReplicaConfig{}.batch_flush_timeout_ns};
  const auto slack = std::chrono::milliseconds(100);
  EXPECT_LE(client.max_latency(), deadline + slack)
      << "worst request took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(
             client.max_latency())
             .count()
      << " ms";

  // f+1 decisions need not include the primary; let it finish executing.
  const auto exec_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.replica(0).stats().txns_executed < kRequests &&
         std::chrono::steady_clock::now() < exec_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto stats = cluster.replica(0).stats();
  cluster.stop();
  ASSERT_EQ(stats.txns_executed, kRequests);
  ASSERT_GT(stats.batches_executed, 0u);
  // ~5 txns per 10 ms deadline at this rate; a quarter of batch_size leaves
  // room for scheduling stalls and still rules out filling batches.
  EXPECT_LT(stats.txns_executed / stats.batches_executed, cfg.batch_size / 4)
      << stats.batches_executed << " batches";
}

// Idle batch threads sleep on the batch epoch; stop() must wake every one
// of them. Replicas with nothing to do stop promptly, again and again.
TEST(Runtime, BatchWakeIdleStopIsPrompt) {
  auto wl = small_workload();
  LocalCluster cluster(base_config(wl));
  cluster.start();
  for (int i = 0; i < 50; ++i) {
    const auto id = static_cast<ReplicaId>(i % cluster.size());
    // Give the batch threads time to reach their sleep.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // stop() + destroy. A batch thread left asleep would hang the join for
    // good, so a watchdog turns that into a prompt failure.
    auto stopped = std::async(std::launch::async,
                              [&cluster, id] { cluster.kill_replica(id); });
    if (stopped.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "iteration %d: replica %u stop() hung\n", i, id);
      std::abort();
    }
    cluster.restart_replica(id);
  }
  // The restarted cluster still commits.
  auto client = cluster.make_client(1);
  Rng rng(42);
  ASSERT_TRUE(
      client->submit_and_wait(make_burst(*client, *wl, rng, 5)).has_value());
  cluster.stop();
}

// batch_size 1 makes every txn its own batch: ~2K pushes race the batch
// threads in and out of their sleep. A lost wake-up strands a batch, and
// with retries off its txns are never decided.
TEST(Runtime, BatchWakeBatchSizeOneBurstAllDecided) {
  auto wl = small_workload();
  auto cfg = base_config(wl);
  cfg.batch_size = 1;
  cfg.client_timeout = std::chrono::seconds(60);
  cfg.client_max_retries = 0;
  LocalCluster cluster(cfg);
  cluster.start();

  constexpr int kClients = 2, kBursts = 20, kBurst = 50;
  std::atomic<int> decided{0};
  std::vector<std::jthread> callers;
  for (int c = 0; c < kClients; ++c) {
    callers.emplace_back([&, c] {
      auto client = cluster.make_client(static_cast<ClientId>(c + 1));
      Rng rng(50 + c);
      for (int b = 0; b < kBursts; ++b) {
        auto res =
            client->submit_and_wait(make_burst(*client, *wl, rng, kBurst));
        if (!res) return;  // stranded: counted as undecided below
        decided.fetch_add(static_cast<int>(res->size()));
      }
    });
  }
  callers.clear();  // join
  EXPECT_EQ(decided.load(), kClients * kBursts * kBurst);
  EXPECT_TRUE(cluster.wait_for_execution(kClients * kBursts * kBurst,
                                         std::chrono::seconds(30)));
  cluster.stop();
}

TEST(Transport, PartitionDropsBothDirections) {
  InprocTransport t;
  auto inbox = std::make_shared<InprocTransport::Inbox>();
  t.register_endpoint(Endpoint::replica(1), inbox);

  protocol::Message m;
  m.from = Endpoint::replica(0);
  m.payload = protocol::Prepare{};
  t.send(Endpoint::replica(1), m);
  EXPECT_EQ(inbox->size(), 1u);

  t.set_partitioned(Endpoint::replica(1), true);
  t.send(Endpoint::replica(1), m);
  EXPECT_EQ(inbox->size(), 1u);

  t.set_partitioned(Endpoint::replica(1), false);
  t.set_partitioned(Endpoint::replica(0), true);  // sender partitioned
  t.send(Endpoint::replica(1), m);
  EXPECT_EQ(inbox->size(), 1u);
}

TEST(Transport, UnregisteredDestinationIsDropped) {
  InprocTransport t;
  protocol::Message m;
  m.from = Endpoint::replica(0);
  m.payload = protocol::Prepare{};
  t.send(Endpoint::replica(9), m);  // must not crash
  EXPECT_EQ(t.messages_sent(), 0u);
}

}  // namespace
}  // namespace rdb::runtime
