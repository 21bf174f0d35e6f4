// The threaded ResilientDB replica (§4.1–§4.8, Figures 6a/6b) — real
// std::jthread pipeline, real cryptography, real storage, real execution.
//
// Thread layout (primary):
//   input         receives from the transport, assigns sequence numbers to
//                 client requests, feeds the lock-free common batch queue
//   batch x B     verify client signatures, build + hash + sign Pre-prepares
//   verify x V    (optional, verify_threads > 0) authenticate Prepare/Commit
//                 signatures in parallel, then enqueue the verified message
//                 for the worker — signature checking leaves the consensus
//                 critical path without giving up the single-owner invariant
//   worker        all Prepare/Commit processing (single-threaded by design:
//                 one owner for consensus state means no locks on the
//                 quorum-counting hot path)
//   execute       strictly in-order execution via the QC logical-queue
//                 scheme (§4.6), block creation, client responses
//   checkpoint    Checkpoint message processing and garbage collection
//   output x O    signing fan-out and transport sends
//
// Backups run the same layout minus the batch stage. The engine state is
// owned by the worker thread; batch threads construct Pre-prepares through a
// short-lived engine lock (the sequence number was already assigned by the
// input thread, so out-of-order batch completion is fine — §4.5).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/det.h"
#include "common/rtzone.h"
#include "common/stats.h"
#include "common/sync.h"
#include "crypto/provider.h"
#include "ledger/blockchain.h"
#include "protocol/pbft.h"
#include "protocol/validate.h"
#include "queues/blocking_queue.h"
#include "queues/buffer_pool.h"
#include "queues/mpmc_queue.h"
#include "runtime/replica_log.h"
#include "runtime/transport.h"
#include "storage/kv_store.h"

namespace rdb::runtime {

/// Durable crash-recovery mode. When enabled the replica writes every
/// executed batch to a checksummed consensus WAL under `dir`, group-commits
/// it once per execution wave (one fsync no matter how many batches the wave
/// held — client responses and checkpoint votes are withheld until the wave
/// is on disk), and at construction recovers chain/engine/KV state from disk
/// instead of starting empty.
struct ReplicaDurability {
  bool enabled{false};
  std::string dir;  // per-replica data dir; holds consensus.log
  bool sync{true};  // fsync per group commit (off only for unit tests)
  /// Max executed batches per group commit. Under load the wave grows until
  /// the next slot is empty or this cap is hit; an idle replica commits
  /// every batch individually (wave of 1).
  std::uint32_t max_wave{128};
  storage::Env* env{nullptr};  // nullptr = the real POSIX env
};

struct ReplicaConfig {
  std::uint32_t n{4};
  ReplicaId id{0};
  std::uint32_t batch_threads{2};
  std::uint32_t output_threads{2};
  /// Signature-verification pool for Prepare/Commit traffic. 0 keeps the
  /// seed behaviour (the consensus worker verifies inline). With V > 0, V
  /// pool threads verify-then-enqueue: signatures are checked in parallel,
  /// but quorum counting still happens only on the single worker thread
  /// (§4.3/4.4 single-owner invariant). PBFT is insensitive to Prepare/
  /// Commit reordering — votes are counted per sequence number — so the
  /// pool may legally reorder messages.
  std::uint32_t verify_threads{0};
  /// Burst draining for the verify pool: a pool thread blocks for the first
  /// Prepare/Commit, then keeps draining the queue until it holds
  /// verify_batch_size signatures or verify_batch_wait_ns has passed —
  /// whichever comes first — and settles the whole burst with ONE batch
  /// verification (randomized linear combination, single multi-scalar
  /// multiplication). <= 1 verifies per message as before.
  std::uint32_t verify_batch_size{64};
  TimeNs verify_batch_wait_ns{200'000};  // 200 us flush cutoff
  /// Re-check each executed block's 2f+1 commit certificate through the
  /// batch-verify path before it is appended (defense in depth: every vote
  /// was already verified on arrival, so a failure here means certificate
  /// corruption — counted in cert_vote_failures, and the block still
  /// appends). Off by default to keep the execute stage lean.
  bool verify_certificates{false};
  std::uint32_t batch_size{10};
  SeqNum checkpoint_interval{16};
  TimeNs request_timeout_ns{2'000'000'000};
  /// Age of the oldest pending client txn at which the primary cuts a
  /// partial batch. A full batch leaves at once; below capacity, this bounds
  /// how long a txn waits to be sequenced, however busy the inbox is.
  TimeNs batch_flush_timeout_ns{10'000'000};
  TimeNs catchup_poll_ns{500'000'000};  // gap-detection poll (0 disables)
  std::size_t execute_queue_slots{4096};  // QC (§4.6)
  crypto::SchemeConfig schemes{};
  ReplicaDurability durability{};
  /// Snapshot state transfer: capture a compressed KV image at every
  /// checkpoint boundary, serve it to replicas that fell below the batch
  /// retention window, and install f+1-vouched images received while
  /// stalled. Off by default — capture walks the whole store on the execute
  /// thread, which throughput benchmarks must not pay for.
  bool enable_snapshots{false};
  /// TEST-ONLY fault injection: apply each batch's transactions in REVERSED
  /// order. The chain accumulator is unaffected (it commits to the ordered
  /// input, not to execution effects), so consensus proceeds normally while
  /// the execution fingerprint silently forks — exactly the failure shape
  /// the exec-divergence tripwire exists to catch. Never set in production.
  bool test_perturb_exec{false};
};

/// Application hook: executes one transaction against the store, returns a
/// result code placed in the client response.
using ExecuteFn = std::function<std::uint64_t(const protocol::Transaction&,
                                              storage::KvStore&)>;

struct ReplicaStats {
  std::uint64_t batches_executed{0};
  std::uint64_t txns_executed{0};
  std::uint64_t responses_sent{0};
  std::uint64_t invalid_signatures{0};
  std::uint64_t duplicate_txns{0};  // retransmissions suppressed at execute
  std::uint64_t pool_hits{0};
  std::uint64_t pool_misses{0};
  /// Number of push attempts that found the input->batch queue full and had
  /// to back off (one count per saturation episode, not per retry).
  std::uint64_t batch_queue_saturated{0};
  /// Wire frames the input thread rejected, per RejectReason (indexed by the
  /// enum value; names via protocol::reject_reason_name). Rejects are
  /// COUNTED, never silently dropped — chaos drills assert on these.
  std::array<std::uint64_t,
             static_cast<std::size_t>(protocol::RejectReason::kCount)>
      rejected_messages{};
  /// Sum of rejected_messages[*] (convenience for assertions/printing).
  std::uint64_t rejected_total{0};
  /// Batch verification (the burst-draining verify stage + certificate
  /// re-checks): signatures settled through CryptoProvider::verify_batch,
  /// number of flushed waves, bisection hunts after a failed wave, and the
  /// mean wave size (batched_sigs / batch_flushes).
  std::uint64_t batched_sigs{0};
  std::uint64_t batch_flushes{0};
  std::uint64_t batch_fallback_bisections{0};
  double batch_mean_size{0};
  /// Commit-certificate votes that failed the verify_certificates re-check.
  std::uint64_t cert_vote_failures{0};
  /// Durable mode: batches re-executed from the consensus log at startup,
  /// group commits + compactions of that log, and snapshot traffic.
  std::uint64_t recovered_batches{0};
  std::uint64_t log_commits{0};
  std::uint64_t log_compactions{0};
  std::uint64_t snapshots_served{0};
  std::uint64_t snapshots_installed{0};
  /// Exec-divergence tripwires fired: f+1 peers proved our execution of a
  /// checkpoint interval differed from theirs despite identical ordered
  /// input. Firing once fail-stops the execute stage (see diverged()).
  std::uint64_t exec_divergence{0};
  /// Per-pipeline-stage heap allocations observed by the RT-zone tripwire
  /// (operator-new hook; counts only move in RDB_ALLOC_TRIPWIRE builds)
  /// and the number of loop iterations each stage ran. The steady-state
  /// gate divides one by the other: after warmup, annotated stages must
  /// show zero (or an explicitly budgeted number of) allocations per item.
  std::array<std::uint64_t, rtzone::kStageCount> hot_path_allocs{};
  std::array<std::uint64_t, rtzone::kStageCount> hot_path_items{};
  /// Serialize-once broadcast (DS replica links only): wire frames built
  /// once, and the borrowed-view sends fanned out from them. With N peers,
  /// broadcast_frame_sends ≈ (n-1) × broadcasts_serialized.
  std::uint64_t broadcasts_serialized{0};
  std::uint64_t broadcast_frame_sends{0};
};

class Replica {
 public:
  /// Timer id reserved for the relayed-client-request watchdog (all other
  /// timer ids are batch sequence numbers).
  static constexpr std::uint64_t kClientRequestTimer =
      std::numeric_limits<std::uint64_t>::max();
  /// Timer id for the periodic catch-up poll (self re-arming).
  static constexpr std::uint64_t kCatchupTimer =
      std::numeric_limits<std::uint64_t>::max() - 1;

  Replica(ReplicaConfig config, Transport& transport,
          const crypto::KeyRegistry& registry,
          std::unique_ptr<storage::KvStore> store, ExecuteFn execute);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  void start();
  void stop();

  ReplicaId id() const { return config_.id; }
  ViewId view() const { return view_.load(std::memory_order_acquire); }
  bool is_primary() const {
    return view() % config_.n == config_.id;
  }
  SeqNum last_executed() const {
    return last_executed_pub_.load(std::memory_order_acquire);
  }

  /// Test/benchmark accessor: callers read the chain after stop() (or from
  /// the execute thread's own appends having quiesced), so no lock is taken.
  /// NO_TSA because the body returns a chain_mu_-guarded field by reference.
  const ledger::Blockchain& chain() const RDB_NO_THREAD_SAFETY_ANALYSIS {
    return chain_;
  }
  storage::KvStore& store() { return *store_; }
  ReplicaStats stats() const;

  /// True once the exec-divergence tripwire fail-stopped this replica: f+1
  /// peers voted checkpoints whose chain accumulator matched ours but whose
  /// execution fingerprint did not. The execute stage halts (no further
  /// execution, responses, or checkpoint votes); the process stays up for
  /// forensics. There is deliberately no way to un-diverge a live replica.
  bool diverged() const { return diverged_.load(std::memory_order_acquire); }

  /// Test/drill accessor: execution fingerprint recorded at each checkpoint
  /// boundary (the exec_acc fold carried on our Checkpoint votes). Chaos
  /// drills assert these are byte-identical across replicas. Like chain():
  /// read after stop(), so no lock is taken.
  const std::map<SeqNum, Digest>& exec_fingerprints() const {
    return exec_fingerprints_;
  }

  /// Per-pipeline-thread busy fraction since start() — the live-runtime
  /// counterpart of the paper's Figure 9 saturation plot.
  struct ThreadSaturation {
    std::string thread;
    double percent{0};
  };
  std::vector<ThreadSaturation> thread_saturations() const;

  /// Test hook: drop every message of the given type before processing
  /// (models a byzantine-silent replica for specific phases).
  void drop_messages(protocol::MsgType type, bool drop);

 private:
  struct PendingBatch {
    SeqNum seq{0};
    std::uint64_t txn_begin{0};
    std::vector<protocol::Transaction> txns;
  };

  struct ExecuteSlot {
    Mutex mu{LockRank::kExecuteSlot, "Replica.execute_slot"};
    CondVar cv;
    std::optional<protocol::ExecuteAction> item RDB_GUARDED_BY(mu);
  };

  struct OutboundMsg {
    Endpoint to;
    protocol::Message msg;  // unsigned; the output thread signs per link
    /// Serialize-once fan-out: when set, `to` is ignored and the output
    /// thread signs + serializes ONE wire frame, then sends a borrowed
    /// FrameView to every peer. Only legal on addressee-independent replica
    /// links (DS schemes / kNone) — pairwise MACs need a per-peer tag.
    bool broadcast{false};
  };

  /// A message on its way to the consensus worker. `verified` is true when
  /// a verify-pool thread (or the sender being ourselves) already
  /// authenticated it; the worker verifies inline otherwise.
  struct WorkerItem {
    protocol::Message msg;
    bool verified{false};
  };

  // Busy-time accounting per pipeline thread (Figure 9).
  struct BusyCounter {
    std::string name;
    std::atomic<std::uint64_t> busy_ns{0};
  };
  class ScopedBusy {
   public:
    explicit ScopedBusy(BusyCounter& c)
        : counter_(c), start_(std::chrono::steady_clock::now()) {}
    ~ScopedBusy() {
      auto dt = std::chrono::steady_clock::now() - start_;
      counter_.busy_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                  .count()),
          std::memory_order_relaxed);
    }

   private:
    BusyCounter& counter_;
    std::chrono::steady_clock::time_point start_;
  };
  BusyCounter& add_counter(const std::string& name);

  // Per-stage arm of the RT-zone allocation tripwire (common/rtzone.h).
  // Each pipeline loop iteration constructs one StageScope next to its
  // ScopedBusy: the scope routes the operator-new hook's thread-local
  // counter at a local tally and flushes tally + item count into the
  // replica-wide atomics on destruction. Always compiled in; the tally
  // only moves in RDB_ALLOC_TRIPWIRE builds (rtzone::tripwire_enabled()).
  class StageScope {
   public:
    StageScope(Replica& r, rtzone::Stage stage)
        : r_(r), stage_(stage), scope_(local_) {}
    ~StageScope() {
      auto s = static_cast<std::size_t>(stage_);
      if (local_ > 0)
        r_.stage_allocs_[s].fetch_add(local_, std::memory_order_relaxed);
      r_.stage_items_[s].fetch_add(1, std::memory_order_relaxed);
    }
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

   private:
    Replica& r_;
    rtzone::Stage stage_;
    std::uint64_t local_{0};  // must precede scope_: AllocScope targets it
    rtzone::AllocScope scope_;
  };

  // Thread bodies. The loop bodies (everything after the blocking pop) are
  // consensus hot path: scripts/check_hotpath.py transitively rejects heap
  // allocation, naked blocking and copy amplification below these roots.
  RDB_HOT_PATH
  void input_loop(std::stop_token st, BusyCounter& busy);
  RDB_HOT_PATH
  void batch_loop(std::stop_token st, BusyCounter& busy);
  RDB_HOT_PATH
  void verify_loop(std::stop_token st, BusyCounter& busy);
  RDB_HOT_PATH
  void worker_loop(std::stop_token st, BusyCounter& busy);
  RDB_HOT_PATH
  void execute_loop(std::stop_token st, BusyCounter& busy);
  RDB_HOT_PATH
  void checkpoint_loop(std::stop_token st, BusyCounter& busy);
  RDB_HOT_PATH
  void output_loop(std::stop_token st, std::size_t idx, BusyCounter& busy);
  void timer_loop(std::stop_token st);

  void handle_client_request(protocol::Message msg);
  /// Input thread, primary only: the one place a batch is cut. Adopts a
  /// fresh sequencing base after a view change, moves the oldest
  /// min(pending, batch_size) txns into a pooled batch, restarts the
  /// oldest-pending clock for any remainder, pushes the batch and wakes a
  /// batch thread.
  void cut_batch();
  // --- durable crash recovery + snapshot rejoin ---
  /// Constructor-time recovery from the consensus log: rebuilds chain,
  /// reply cache, engine counters and KV state (idempotent re-puts). Runs
  /// before any thread starts, so no locks are taken.
  void recover_from_log() RDB_NO_THREAD_SAFETY_ANALYSIS;
  /// Execute thread, at a checkpoint boundary: capture the compressed KV
  /// image + chain accumulator that snapshot requests will be served from.
  /// Det-zone root: the image (and its digest, vouched to peers) must be
  /// byte-identical on every replica that executed the same prefix.
  /// HOT BARRIER: runs once per CHECKPOINT BOUNDARY (every
  /// checkpoint_interval batches), and only when enable_snapshots is on —
  /// the config comment prices exactly this walk against throughput.
  RDB_DETERMINISTIC RDB_HOT_BARRIER
  void capture_snapshot(SeqNum seq, ViewId view, const Digest& acc);
  /// Worker thread: serve a peer's SnapshotRequest from the captured image.
  void handle_snapshot_request(const protocol::Message& msg);
  /// Worker thread: tally SnapshotResponses; after f+1 distinct peers vouch
  /// for the same (seq, chain digest, kv digest), verify the blob against
  /// the vouched digest and stash it for the execute thread to install.
  /// HOT BARRIER: snapshot state transfer is the REJOIN path — it runs only
  /// while this replica has already fallen off the live protocol, at most
  /// once per offered image, never per consensus message.
  RDB_HOT_BARRIER
  void handle_snapshot_response(protocol::Message msg);
  /// Execute thread, while stalled: install a verified pending snapshot.
  /// HOT BARRIER: runs only in the idle window where execution is STALLED
  /// waiting for state it cannot obtain from the log — the pipeline has no
  /// queued work this could delay.
  RDB_HOT_BARRIER
  void maybe_install_snapshot();
  /// Execute thread, at a wave boundary: checkpoint the KV store and rewrite
  /// the consensus log above the stable anchor requested by perform().
  /// HOT BARRIER: compaction runs once per STABLE CHECKPOINT (every
  /// checkpoint_interval batches, and only after a group-commit boundary or
  /// an idle window), not per message; its I/O is the retention contract.
  RDB_HOT_BARRIER
  void maybe_compact_log();
  /// Bumps the per-reason reject counter (lock-free; input thread hot path).
  void count_reject(protocol::RejectReason reason) {
    reject_counts_[static_cast<std::size_t>(reason)].fetch_add(
        1, std::memory_order_relaxed);
  }
  /// Pushes a pooled batch into the lock-free input->batch queue, backing
  /// off with bounded exponential sleeps when the queue is full (satellite
  /// replacing the seed's unbounded yield spin). Counts one saturation
  /// episode in ReplicaStats when any backoff was needed.
  /// HOT BARRIER: the backoff is bounded (exponential, 1 ms cap) and fires
  /// only when the batch stage is already saturated — the sleep sheds the
  /// CPU the drain needs, it does not add latency to an unloaded pipeline.
  RDB_HOT_BARRIER
  void push_batch(BufferPool<PendingBatch>::Handle& handle);
  RDB_HOT_PATH
  void perform(protocol::Actions actions);
  RDB_HOT_PATH
  void enqueue_output(Endpoint to, protocol::Message msg);
  RDB_HOT_PATH
  void broadcast(protocol::Message msg);
  /// HOT BARRIER: QC backpressure (§4.6) — the cv wait fires only when the
  /// execute stage is more than execute_queue_slots behind, i.e. the system
  /// is already saturated; blocking the worker here is the flow control.
  RDB_HOT_BARRIER
  void deliver_execute(protocol::ExecuteAction ex);

  ReplicaConfig config_;
  Transport& transport_;
  crypto::CryptoProvider crypto_;
  std::unique_ptr<storage::KvStore> store_;
  ExecuteFn execute_fn_;

  // Engine + chain. Engine state is worker-owned; batch threads take
  // engine_mu_ briefly to emit Pre-prepares. engine_mu_ is the OUTERMOST
  // rank: nothing else may be held when acquiring it.
  Mutex engine_mu_{LockRank::kReplicaEngine, "Replica.engine"};
  protocol::PbftEngine engine_ RDB_GUARDED_BY(engine_mu_);
  Mutex chain_mu_{LockRank::kLedgerChain, "Replica.chain"};
  ledger::Blockchain chain_ RDB_GUARDED_BY(chain_mu_);
  std::atomic<ViewId> view_{0};
  std::atomic<SeqNum> last_executed_pub_{0};
  std::atomic<SeqNum> seq_base_{0};  // sequencing base after a view change

  // Queues between stages. Batches travel as pool handles through the
  // lock-free common queue (§4.3 + §4.8).
  std::shared_ptr<Transport::Inbox> inbox_;
  MpmcQueue<BufferPool<PendingBatch>::Handle> batch_queue_{1024};
  /// Wake-up word for idle batch threads: bumped after every push (by
  /// cut_batch) and by stop(). A batch thread sleeps on the value it read before
  /// a try_pop that found the queue empty, so a push it missed has already
  /// changed the word and the sleep returns at once.
  std::atomic<std::uint32_t> batch_epoch_{0};
  BufferPool<PendingBatch> batch_pool_{256};
  BlockingQueue<WorkerItem> worker_queue_;
  BlockingQueue<protocol::Message> verify_queue_;  // verify-pool inbox
  BlockingQueue<protocol::Message> checkpoint_queue_;
  std::vector<std::unique_ptr<BlockingQueue<OutboundMsg>>> output_queues_;
  std::vector<ExecuteSlot> execute_slots_;
  std::atomic<SeqNum> next_exec_seq_{1};
  // PBFT reply cache (execute-thread-owned): last executed request id and
  // its result per client. A retransmitted request that was already
  // executed must NOT re-execute — it gets the cached reply instead.
  // (unordered is fine here: the cache is keyed lookup only, never
  // range-iterated into anything digest-bound.)
  std::unordered_map<ClientId, std::pair<RequestId, std::uint64_t>>
      reply_cache_;

  // --- execution fingerprint (the runtime half of the determinism
  // discipline; execute-thread-owned) ---
  // Rolling fold over the CURRENT checkpoint interval: per executed batch,
  // SHA256(prev acc || seq || batch digest || executed txn result codes ||
  // state-delta digest). Reset to zero at each boundary after the value is
  // recorded and carried on the Checkpoint vote — interval scoping means a
  // replica that recovered from its log or installed a snapshot at a
  // boundary folds forward exactly like a peer that never restarted.
  Digest exec_acc_{};
  /// Fingerprint at each executed checkpoint boundary (bounded; pruned to
  /// the most recent kExecFingerprintKeep boundaries).
  std::map<SeqNum, Digest> exec_fingerprints_;
  static constexpr std::size_t kExecFingerprintKeep = 64;
  std::atomic<bool> diverged_{false};
  std::atomic<std::uint64_t> exec_divergence_count_{0};

  // --- durable mode (config_.durability.enabled) ---
  // The consensus log and its retention bookkeeping are execute-thread-owned
  // after the (single-threaded) constructor recovery.
  std::unique_ptr<ReplicaLog> rlog_;
  /// Logged batches above the last compaction anchor, oldest first: the tail
  /// the next compaction rewrites after the anchor record.
  std::deque<LoggedBatch> log_tail_;
  /// (view, chain accumulator) at each executed checkpoint boundary — the
  /// anchor candidates compaction and snapshot capture draw from.
  std::map<SeqNum, std::pair<ViewId, Digest>> checkpoint_meta_;
  /// Highest stable checkpoint perform() has asked the execute thread to
  /// compact the log to (0 = none pending). Left set until the boundary has
  /// actually been executed here (stability can outpace local execution).
  std::atomic<SeqNum> compact_request_{0};

  // --- snapshot state transfer (config_.enable_snapshots) ---
  struct SnapshotImage {
    SeqNum seq{0};
    ViewId view{0};
    Digest chain_acc{};
    Digest kv_digest{};  // sha256 of the UNCOMPRESSED canonical image
    std::uint64_t raw_bytes{0};
    Bytes blob;  // LZ-compressed canonical KV image
  };
  /// A verified image awaiting installation, decompressed so the execute
  /// thread doesn't redo that work.
  struct PendingInstall {
    SeqNum seq{0};
    Digest chain_acc{};
    Bytes image;
  };
  mutable Mutex snap_mu_{LockRank::kReplicaSnapshot, "Replica.snapshot"};
  std::optional<SnapshotImage> snap_image_ RDB_GUARDED_BY(snap_mu_);
  std::optional<PendingInstall> pending_install_ RDB_GUARDED_BY(snap_mu_);
  /// Latest SnapshotResponse per sender (worker-thread-owned; bounded by n).
  std::map<ReplicaId, protocol::SnapshotResponse> snap_offers_;

  // Primary-side sequencing (input thread only).
  SeqNum next_seq_{0};
  std::uint64_t next_txn_id_{1};
  std::vector<protocol::Transaction> pending_txns_;
  /// Arrival time of the oldest txn in pending_txns_ (meaningless while it
  /// is empty); the partial-batch cut deadline runs from here.
  std::chrono::steady_clock::time_point pending_since_{};

  // Timers (worker-armed, timer-thread fired).
  Mutex timer_mu_{LockRank::kReplicaTimer, "Replica.timer"};
  CondVar timer_cv_;
  std::map<std::uint64_t, std::chrono::steady_clock::time_point> timers_
      RDB_GUARDED_BY(timer_mu_);

  // Message-type drop set (tests).
  std::atomic<std::uint32_t> drop_mask_{0};

  mutable Mutex stats_mu_{LockRank::kReplicaStats, "Replica.stats"};
  ReplicaStats stats_ RDB_GUARDED_BY(stats_mu_);
  std::atomic<std::uint64_t> batch_saturated_{0};
  std::atomic<std::uint64_t> batched_sigs_{0};
  std::atomic<std::uint64_t> batch_flushes_{0};
  std::atomic<std::uint64_t> batch_bisections_{0};
  std::atomic<std::uint64_t> cert_vote_failures_{0};
  std::uint64_t recovered_batches_{0};  // set once during construction
  std::atomic<std::uint64_t> log_commits_{0};
  std::atomic<std::uint64_t> log_compactions_{0};
  std::atomic<std::uint64_t> snapshots_served_{0};
  std::atomic<std::uint64_t> snapshots_installed_{0};
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(protocol::RejectReason::kCount)>
      reject_counts_{};
  // RT-zone tripwire tallies (flushed by StageScope) and serialize-once
  // broadcast accounting.
  std::array<std::atomic<std::uint64_t>, rtzone::kStageCount> stage_allocs_{};
  std::array<std::atomic<std::uint64_t>, rtzone::kStageCount> stage_items_{};
  std::atomic<std::uint64_t> broadcasts_serialized_{0};
  std::atomic<std::uint64_t> broadcast_frame_sends_{0};
  /// True when replica-to-replica links use an addressee-independent scheme
  /// (DS or kNone), making serialize-once broadcast legal. Computed once in
  /// the constructor from config_.schemes.replica_scheme.
  bool ds_replica_links_{false};
  /// Round-robin output-queue pick for broadcast frames. broadcast() runs on
  /// worker AND batch threads, so unlike rr_output_ this must be atomic.
  std::atomic<std::size_t> rr_bcast_{0};

  std::vector<std::unique_ptr<BusyCounter>> busy_counters_;
  std::chrono::steady_clock::time_point started_at_;

  std::vector<std::jthread> threads_;
  std::atomic<bool> running_{false};
  std::size_t rr_output_{0};
};

}  // namespace rdb::runtime
