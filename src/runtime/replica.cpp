#include "runtime/replica.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/compress.h"
#include "common/logging.h"
#include "crypto/sha256.h"
#include "storage/env.h"

namespace rdb::runtime {

using protocol::Actions;
using protocol::Message;
using protocol::MsgType;
using protocol::Transaction;

namespace {

/// The batch digest covers the single string representation of the whole
/// batch (§4.3): serialize every transaction into one buffer, hash once.
Digest digest_batch(const std::vector<Transaction>& txns) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(txns.size()));
  for (const auto& t : txns) t.serialize(w);
  return crypto::sha256(BytesView(w.data()));
}

std::uint32_t type_bit(MsgType t) { return 1u << static_cast<int>(t); }

/// Sleeps until `epoch` no longer holds `seen`.
///
/// HOT BARRIER: the wait is IDLE-ONLY — a batch thread calls it only after
/// try_pop found the lock-free queue EMPTY since it read `seen`, and every
/// push bumps the epoch and notifies, so a queued batch never sits behind
/// the sleep. Unbounded by design, like BlockingQueue::pop: stop() bumps
/// the epoch and wakes all sleepers for teardown.
RDB_HOT_BARRIER
void await_push(const std::atomic<std::uint32_t>& epoch, std::uint32_t seen) {
  epoch.wait(seen, std::memory_order_acquire);
}

/// HOT BARRIER: one verdict-array allocation at stage startup (or on a
/// certificate larger than any seen before — at most log2(n) regrows),
/// reused for every subsequent verification wave. verify_batch wants a raw
/// bool*, which rules out the allocation-free container idioms.
RDB_HOT_BARRIER
std::unique_ptr<bool[]> make_verdict_scratch(std::size_t n) {
  return std::unique_ptr<bool[]>(new bool[n]);
}

/// KvStore decorator that streams every put into a SHA-256 — the
/// state-delta digest of one batch's execution. The execute thread is the
/// store's sole writer, so wrapping it for the duration of a batch observes
/// exactly that batch's effects, in apply order. Identical ordered input +
/// deterministic execution => identical delta stream on every replica;
/// anything else (unordered iteration leaking into apply order, a stray
/// clock/RNG read changing a value) forks the digest and trips the
/// cross-replica fingerprint check at the next checkpoint.
class DeltaRecordingStore final : public storage::KvStore {
 public:
  DeltaRecordingStore(storage::KvStore& inner, crypto::Sha256& hasher)
      : inner_(inner), hasher_(hasher) {}

  void put(std::string_view key, std::string_view value) override {
    std::uint8_t len[8];
    auto put_u32 = [&len](std::size_t off, std::uint64_t v) {
      for (int i = 0; i < 4; ++i)
        len[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    put_u32(0, key.size());
    put_u32(4, value.size());
    hasher_.update(BytesView(len, 8));
    const Bytes key_bytes = to_bytes(key);
    const Bytes value_bytes = to_bytes(value);
    hasher_.update(as_view(key_bytes));
    hasher_.update(as_view(value_bytes));
    inner_.put(key, value);
  }
  std::optional<std::string> get(std::string_view key) override {
    return inner_.get(key);
  }
  bool contains(std::string_view key) override { return inner_.contains(key); }
  std::uint64_t size() const override { return inner_.size(); }
  storage::StoreStats stats() const override { return inner_.stats(); }
  std::string name() const override { return inner_.name(); }
  void for_each(const VisitFn& fn) override { inner_.for_each(fn); }
  void clear() override { inner_.clear(); }
  bool durable() const override { return inner_.durable(); }
  void commit_wave() override { inner_.commit_wave(); }
  void checkpoint() override { inner_.checkpoint(); }

 private:
  storage::KvStore& inner_;
  crypto::Sha256& hasher_;
};

/// One step of the execution-fingerprint fold (see Replica::exec_acc_):
/// acc' = SHA256(acc || seq || batch digest || result codes || delta).
Digest fold_exec_acc(const Digest& acc, SeqNum seq, const Digest& batch_digest,
                     const std::vector<std::uint64_t>& results,
                     const Digest& delta_digest) {
  crypto::Sha256 h;
  h.update(BytesView(acc.data));
  std::uint8_t le[8];
  auto put_u64 = [&le, &h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    h.update(BytesView(le, 8));
  };
  put_u64(seq);
  h.update(BytesView(batch_digest.data));
  put_u64(results.size());
  for (std::uint64_t r : results) put_u64(r);
  h.update(BytesView(delta_digest.data));
  return h.finish();
}

}  // namespace

Replica::Replica(ReplicaConfig config, Transport& transport,
                 const crypto::KeyRegistry& registry,
                 std::unique_ptr<storage::KvStore> store, ExecuteFn execute)
    : config_(config),
      transport_(transport),
      crypto_(Endpoint::replica(config.id), registry, config.schemes),
      store_(std::move(store)),
      execute_fn_(std::move(execute)),
      engine_(protocol::PbftConfig{config.n, config.id,
                                   config.checkpoint_interval,
                                   /*window=*/100'000,
                                   config.request_timeout_ns}),
      inbox_(std::make_shared<Transport::Inbox>()),
      execute_slots_(config.execute_queue_slots) {
  for (std::uint32_t i = 0; i < config_.output_threads; ++i)
    output_queues_.push_back(std::make_unique<BlockingQueue<OutboundMsg>>());
  transport_.register_endpoint(Endpoint::replica(config_.id), inbox_);
  // Serialize-once broadcast is legal exactly when the replica-link scheme
  // is addressee-independent: DS signatures (and the unauthenticated mode)
  // produce the same bytes for every peer, pairwise MACs do not (§4.2).
  ds_replica_links_ =
      config_.schemes.replica_scheme != crypto::SignatureScheme::kCmacAes;
  next_seq_ = 0;
  if (config_.durability.enabled) recover_from_log();
  // Pre-warm the registry's expanded-key cache for every peer replica so
  // the first Prepare/Commit of a run doesn't pay the decompression + table
  // build inline on a consensus thread.
  if (config_.schemes.replica_scheme == crypto::SignatureScheme::kEd25519) {
    for (std::uint32_t peer = 0; peer < config_.n; ++peer) {
      if (peer == config_.id) continue;
      registry.ed25519_expanded(Endpoint::replica(peer));
    }
  }
}

Replica::~Replica() { stop(); }

// ---------------------------------------------------------------------------
// Durable crash recovery (constructor-time, single-threaded).
// ---------------------------------------------------------------------------

void Replica::recover_from_log() {
  storage::Env& env =
      config_.durability.env ? *config_.durability.env : storage::Env::real();
  env.make_dirs(config_.durability.dir);
  ReplicaLogConfig lc;
  lc.path = config_.durability.dir + "/consensus.log";
  lc.env = config_.durability.env;
  lc.sync = config_.durability.sync;
  rlog_ = std::make_unique<ReplicaLog>(lc);
  RecoveredLog rec = rlog_->recover();

  ViewId view = rec.anchor_view;
  SeqNum last = 0;
  if (rec.has_anchor) {
    chain_.reset_to(rec.anchor_seq, rec.anchor_acc);
    last = rec.anchor_seq;
    checkpoint_meta_[rec.anchor_seq] = {rec.anchor_view, rec.anchor_acc};
  }
  for (auto& b : rec.batches) {
    // Re-execute against the recovered KV store. The store's own WAL can run
    // ahead of the consensus log (see page_db.h), so some effects may
    // already be present; put-style re-execution is idempotent and replaying
    // the whole tail converges both. The execution fingerprint is folded
    // exactly as the live execute path folds it: the log's anchor is a
    // checkpoint boundary (where exec_acc_ resets to zero), so replaying the
    // tail reproduces the same interval-scoped fold a never-crashed peer
    // carries. (Caveat: a retransmission whose original landed BELOW the
    // anchor re-executes here — the reply cache starts empty — which a peer
    // skipped; state converges by idempotence but the fingerprint would
    // fork. Monotonic per-client request ids make this a non-issue in
    // practice, and the tripwire firing on it is the conservative outcome.)
    crypto::Sha256 delta_hasher;
    DeltaRecordingStore dstore(*store_, delta_hasher);
    std::vector<std::uint64_t> results;
    for (const auto& txn : b.txns) {
      auto& cache = reply_cache_[txn.client];
      if (cache.first != 0 && txn.req_id <= cache.first) continue;
      std::uint64_t result = execute_fn_ ? execute_fn_(txn, dstore) : 0;
      cache = {txn.req_id, result};
      results.push_back(result);
    }
    exec_acc_ =
        fold_exec_acc(exec_acc_, b.seq, b.digest, results,
                      delta_hasher.finish());
    ledger::Block block;
    block.seq = b.seq;
    block.view = b.view;
    block.batch_digest = b.digest;
    block.txn_begin = b.txn_begin;
    block.txn_end = b.txn_begin + b.txns.size();
    block.certificate = b.certificate;
    chain_.append(std::move(block));
    last = b.seq;
    view = std::max(view, b.view);
    if (config_.checkpoint_interval > 0 &&
        b.seq % config_.checkpoint_interval == 0) {
      checkpoint_meta_[b.seq] = {b.view, chain_.accumulator()};
      // Interval boundary: record and reset, mirroring the live path.
      exec_fingerprints_[b.seq] = exec_acc_;
      exec_acc_ = Digest{};
    }
    log_tail_.push_back(std::move(b));
  }
  recovered_batches_ = rec.batches.size();
  if (last > 0 || view > 0) {
    engine_.restore(view, last, rec.anchor_seq);
    view_.store(view, std::memory_order_release);
    next_exec_seq_.store(last + 1, std::memory_order_relaxed);
    last_executed_pub_.store(last, std::memory_order_release);
    // Primary sequencing resumes after the durable prefix. Batches this
    // replica proposed but never committed before the crash are lost; the
    // view-change/catch-up machinery fills any holes.
    next_seq_ = last;
  }
}

Replica::BusyCounter& Replica::add_counter(const std::string& name) {
  busy_counters_.push_back(std::make_unique<BusyCounter>());
  busy_counters_.back()->name = name;
  return *busy_counters_.back();
}

std::vector<Replica::ThreadSaturation> Replica::thread_saturations() const {
  std::vector<ThreadSaturation> out;
  auto window = std::chrono::steady_clock::now() - started_at_;
  auto window_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(window).count());
  if (window_ns <= 0) window_ns = 1;
  for (const auto& c : busy_counters_) {
    out.push_back(
        {c->name,
         100.0 * static_cast<double>(
                     c->busy_ns.load(std::memory_order_relaxed)) /
             window_ns});
  }
  return out;
}

void Replica::start() {
  if (running_.exchange(true)) return;
  started_at_ = std::chrono::steady_clock::now();
  if (config_.catchup_poll_ns > 0) {
    MutexLock lock(timer_mu_);
    timers_[kCatchupTimer] = std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(config_.catchup_poll_ns);
  }
  threads_.emplace_back([this, &c = add_counter("input")](
                            std::stop_token st) { input_loop(st, c); });
  for (std::uint32_t i = 0; i < config_.batch_threads; ++i)
    threads_.emplace_back(
        [this, &c = add_counter("batch-" + std::to_string(i))](
            std::stop_token st) { batch_loop(st, c); });
  for (std::uint32_t i = 0; i < config_.verify_threads; ++i)
    threads_.emplace_back(
        [this, &c = add_counter("verify-" + std::to_string(i))](
            std::stop_token st) { verify_loop(st, c); });
  threads_.emplace_back([this, &c = add_counter("worker")](
                            std::stop_token st) { worker_loop(st, c); });
  threads_.emplace_back([this, &c = add_counter("execute")](
                            std::stop_token st) { execute_loop(st, c); });
  threads_.emplace_back([this, &c = add_counter("checkpoint")](
                            std::stop_token st) { checkpoint_loop(st, c); });
  for (std::uint32_t i = 0; i < config_.output_threads; ++i)
    threads_.emplace_back(
        [this, i, &c = add_counter("output-" + std::to_string(i))](
            std::stop_token st) { output_loop(st, i, c); });
  threads_.emplace_back([this](std::stop_token st) { timer_loop(st); });
}

void Replica::stop() {
  if (!running_.exchange(false)) return;
  for (auto& t : threads_) t.request_stop();
  // After request_stop: a batch thread that read the epoch before this bump
  // wakes; one that reads it after also sees the stop request.
  batch_epoch_.fetch_add(1);
  batch_epoch_.notify_all();
  inbox_->shutdown();
  worker_queue_.shutdown();
  verify_queue_.shutdown();
  checkpoint_queue_.shutdown();
  for (auto& q : output_queues_) q->shutdown();
  timer_cv_.notify_all();
  for (auto& slot : execute_slots_) slot.cv.notify_all();
  threads_.clear();  // jthread joins on destruction
}

void Replica::drop_messages(protocol::MsgType type, bool drop) {
  std::uint32_t bit = type_bit(type);
  if (drop)
    drop_mask_.fetch_or(bit, std::memory_order_relaxed);
  else
    drop_mask_.fetch_and(~bit, std::memory_order_relaxed);
}

ReplicaStats Replica::stats() const {
  MutexLock lock(stats_mu_);
  ReplicaStats s = stats_;
  s.pool_hits = batch_pool_.hits();
  s.pool_misses = batch_pool_.misses();
  s.batch_queue_saturated = batch_saturated_.load(std::memory_order_relaxed);
  s.batched_sigs = batched_sigs_.load(std::memory_order_relaxed);
  s.batch_flushes = batch_flushes_.load(std::memory_order_relaxed);
  s.batch_fallback_bisections =
      batch_bisections_.load(std::memory_order_relaxed);
  s.batch_mean_size = s.batch_flushes > 0
                          ? static_cast<double>(s.batched_sigs) /
                                static_cast<double>(s.batch_flushes)
                          : 0.0;
  s.cert_vote_failures = cert_vote_failures_.load(std::memory_order_relaxed);
  s.recovered_batches = recovered_batches_;
  s.log_commits = log_commits_.load(std::memory_order_relaxed);
  s.log_compactions = log_compactions_.load(std::memory_order_relaxed);
  s.snapshots_served = snapshots_served_.load(std::memory_order_relaxed);
  s.snapshots_installed = snapshots_installed_.load(std::memory_order_relaxed);
  s.exec_divergence = exec_divergence_count_.load(std::memory_order_relaxed);
  s.rejected_total = 0;
  for (std::size_t i = 0; i < reject_counts_.size(); ++i) {
    s.rejected_messages[i] = reject_counts_[i].load(std::memory_order_relaxed);
    s.rejected_total += s.rejected_messages[i];
  }
  for (std::size_t i = 0; i < rtzone::kStageCount; ++i) {
    s.hot_path_allocs[i] = stage_allocs_[i].load(std::memory_order_relaxed);
    s.hot_path_items[i] = stage_items_[i].load(std::memory_order_relaxed);
  }
  s.broadcasts_serialized =
      broadcasts_serialized_.load(std::memory_order_relaxed);
  s.broadcast_frame_sends =
      broadcast_frame_sends_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Input thread: receive, route, sequence client requests (§4.3).
// ---------------------------------------------------------------------------

void Replica::input_loop(std::stop_token st, BusyCounter& busy) {
  // With nothing pending there is no cut deadline; the wait then only bounds
  // how long the loop goes without re-checking the stop token (stop() also
  // shuts the inbox, which ends the wait at once).
  constexpr std::chrono::milliseconds kIdleWait{10};
  const std::chrono::nanoseconds flush_after{config_.batch_flush_timeout_ns};
  while (!st.stop_requested()) {
    std::chrono::nanoseconds wait = kIdleWait;
    if (is_primary() && !pending_txns_.empty()) {
      // Deadline cut: a partial batch leaves once its oldest txn has waited
      // batch_flush_timeout_ns, however busy the inbox is; until then the
      // inbox wait ends no later than that deadline.
      const auto deadline = pending_since_ + flush_after;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        ScopedBusy sb(busy);
        StageScope alloc_scope(*this, rtzone::Stage::kInput);
        cut_batch();
        continue;
      }
      wait = deadline - now;
    }
    auto wire = inbox_->pop_for(wait);
    if (!wire) continue;
    ScopedBusy sb(busy);
    StageScope alloc_scope(*this, rtzone::Stage::kInput);
    // The taint boundary: every frame off the wire is Byzantine until it
    // passes validate_wire (structure + semantics; signatures are verified
    // downstream by the verify/worker/checkpoint threads). The accept mask
    // lists exactly the types a PBFT replica processes; anything else is a
    // counted reject, not a silent drop.
    protocol::ValidationContext vctx;
    vctx.n = config_.n;
    vctx.current_view = view();
    vctx.committed_seq = last_executed();
    vctx.accept_mask = protocol::accept_bit(MsgType::kClientRequest) |
                       protocol::accept_bit(MsgType::kPrePrepare) |
                       protocol::accept_bit(MsgType::kPrepare) |
                       protocol::accept_bit(MsgType::kCommit) |
                       protocol::accept_bit(MsgType::kCheckpoint) |
                       protocol::accept_bit(MsgType::kViewChange) |
                       protocol::accept_bit(MsgType::kNewView) |
                       protocol::accept_bit(MsgType::kBatchRequest) |
                       protocol::accept_bit(MsgType::kBatchResponse);
    if (config_.enable_snapshots) {
      vctx.accept_mask |= protocol::accept_bit(MsgType::kSnapshotRequest) |
                          protocol::accept_bit(MsgType::kSnapshotResponse);
    }
    auto verdict = protocol::validate_wire(BytesView(*wire), vctx);
    if (!verdict.ok()) {
      count_reject(verdict.reason);
      continue;
    }
    Message msg = std::move(*verdict.msg).release();
    if (drop_mask_.load(std::memory_order_relaxed) & type_bit(msg.type()))
      continue;

    switch (msg.type()) {
      case MsgType::kClientRequest:
        handle_client_request(std::move(msg));
        break;
      case MsgType::kPrepare:
      case MsgType::kCommit:
        // The quorum-vote flood is the bulk of signature work; with a
        // verify pool, those checks run off the consensus worker.
        if (config_.verify_threads > 0 &&
            msg.from != Endpoint::replica(config_.id)) {
          verify_queue_.push(std::move(msg));
        } else {
          worker_queue_.push(WorkerItem{std::move(msg), false});
        }
        break;
      case MsgType::kPrePrepare:
      case MsgType::kViewChange:
      case MsgType::kNewView:
      case MsgType::kBatchRequest:
      case MsgType::kBatchResponse:
      case MsgType::kSnapshotRequest:
      case MsgType::kSnapshotResponse:
        worker_queue_.push(WorkerItem{std::move(msg), false});
        break;
      case MsgType::kCheckpoint:
        checkpoint_queue_.push(std::move(msg));
        break;
      default:
        // Unreachable: the accept mask already rejected other types.
        break;
    }
  }
}

void Replica::handle_client_request(Message msg) {
  if (!is_primary()) {
    // PBFT liveness: a backup relays the request to the primary and starts
    // a timer; if the primary makes no progress, demand a view change.
    ReplicaId primary = static_cast<ReplicaId>(view() % config_.n);
    enqueue_output(Endpoint::replica(primary), msg);
    {
      MutexLock lock(timer_mu_);
      if (!timers_.contains(kClientRequestTimer)) {
        timers_[kClientRequestTimer] =
            std::chrono::steady_clock::now() +
            std::chrono::nanoseconds(config_.request_timeout_ns);
      }
    }
    timer_cv_.notify_all();
    return;
  }
  // Envelope authenticity is checked per transaction by the batch threads;
  // the input thread only sequences (§4.3).
  auto& req = std::get<protocol::ClientRequest>(msg.payload);

  if (pending_txns_.empty()) pending_since_ = std::chrono::steady_clock::now();
  for (auto& txn : req.txns) pending_txns_.push_back(std::move(txn));
  while (pending_txns_.size() >= config_.batch_size) cut_batch();
}

void Replica::cut_batch() {
  // Adopt a fresh sequencing base after this replica becomes primary.
  SeqNum base = seq_base_.exchange(0, std::memory_order_acq_rel);
  if (base != 0) next_seq_ = base - 1;

  const std::size_t take =
      std::min<std::size_t>(pending_txns_.size(), config_.batch_size);
  auto handle = batch_pool_.acquire();
  PendingBatch& batch = *handle.ptr;
  batch.seq = ++next_seq_;
  batch.txn_begin = next_txn_id_;
  next_txn_id_ += take;
  // Hand the whole pending buffer to the batch and move only the overflow
  // back: no txn is copied, and pending_txns_ gets a batch-sized buffer for
  // the next fill (one allocation per cut, as the copy-out used to cost).
  batch.txns.clear();
  batch.txns.swap(pending_txns_);
  pending_txns_.reserve(config_.batch_size);
  if (batch.txns.size() > take) {
    auto rest = batch.txns.begin() + static_cast<std::ptrdiff_t>(take);
    pending_txns_.assign(std::make_move_iterator(rest),
                         std::make_move_iterator(batch.txns.end()));
    batch.txns.erase(rest, batch.txns.end());
    // The overflow came with the request being handled right now.
    pending_since_ = std::chrono::steady_clock::now();
  }
  // Ownership passes through the lock-free queue to a batch thread. Bump
  // the epoch only after the push, so a batch thread whose try_pop missed
  // this batch read the old value and its sleep returns (see batch_loop).
  push_batch(handle);
  batch_epoch_.fetch_add(1);
  batch_epoch_.notify_one();
}

void Replica::push_batch(BufferPool<PendingBatch>::Handle& handle) {
  if (batch_queue_.try_push(handle)) return;
  // Queue full: the batch stage is saturated (it cannot keep up with the
  // arrival rate). Back off with bounded exponential sleeps instead of the
  // seed's unbounded yield spin — a hot yield loop steals the very CPU the
  // batch threads need to drain the queue.
  batch_saturated_.fetch_add(1, std::memory_order_relaxed);
  std::uint32_t spins = 0;
  std::chrono::microseconds delay{1};
  constexpr std::chrono::microseconds kMaxDelay{1000};
  while (!batch_queue_.try_push(handle)) {
    if (++spins <= 4) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(delay);
      delay = std::min(delay * 2, kMaxDelay);
    }
  }
}

// ---------------------------------------------------------------------------
// Batch threads: verify client signatures, build + sign Pre-prepare (§4.3).
// ---------------------------------------------------------------------------

void Replica::batch_loop(std::stop_token st, BusyCounter& busy) {
  while (!st.stop_requested()) {
    // Read the epoch BEFORE try_pop: a push this try_pop misses bumps it
    // afterwards, so the sleep below cannot lose that wake-up. The stop
    // check sits between them for the same reason (stop() bumps it too).
    const std::uint32_t seen = batch_epoch_.load(std::memory_order_acquire);
    BufferPool<PendingBatch>::Handle handle;
    if (!batch_queue_.try_pop(handle)) {
      if (!st.stop_requested()) await_push(batch_epoch_, seen);
      continue;
    }
    ScopedBusy sb(busy);
    StageScope alloc_scope(*this, rtzone::Stage::kBatch);
    PendingBatch& batch = *handle.ptr;

    // Excise transactions whose client signature fails. The batch must
    // still be proposed — its sequence number is already assigned, and an
    // abandoned sequence would stall in-order execution forever. A batch
    // whose every transaction was forged proposes as a no-op.
    std::size_t invalid = 0;
    std::erase_if(batch.txns, [&](const Transaction& txn) {
      Bytes canon = txn.signing_bytes();
      bool ok = crypto_.verify(Endpoint::client(txn.client), BytesView(canon),
                               BytesView(txn.client_sig));
      if (!ok) ++invalid;
      return !ok;
    });
    if (invalid > 0) {
      MutexLock lock(stats_mu_);
      stats_.invalid_signatures += invalid;
    }

    Digest d = digest_batch(batch.txns);
    Actions actions;
    {
      MutexLock lock(engine_mu_);
      actions = engine_.make_preprepare(batch.seq, std::move(batch.txns),
                                        batch.txn_begin, d);
    }
    batch_pool_.release(handle);
    perform(std::move(actions));
  }
}

// ---------------------------------------------------------------------------
// Verify pool: authenticate Prepare/Commit off the consensus worker.
// ---------------------------------------------------------------------------

void Replica::verify_loop(std::stop_token st, BusyCounter& busy) {
  const std::size_t max_batch =
      std::max<std::size_t>(config_.verify_batch_size, 1);
  std::vector<Message> burst;
  burst.reserve(max_batch);
  // Per-wave scratch, sized once to the wave cap and reused every
  // iteration: verify_batch wants contiguous C arrays, and allocating them
  // per wave put a heap round-trip on the signature hot path.
  std::vector<Bytes> canon(max_batch);
  std::vector<crypto::VerifyItem> items(max_batch);
  std::unique_ptr<bool[]> verdicts = make_verdict_scratch(max_batch);
  while (!st.stop_requested()) {
    burst.clear();
    auto first = verify_queue_.pop();
    if (!first) return;  // shutdown
    burst.push_back(std::move(*first));
    if (max_batch > 1) {
      // Burst draining: the whole point of the batch path is amortizing one
      // doubling ladder over every queued Prepare/Commit, so keep pulling
      // until the wave is full or the flush cutoff expires. Under light
      // load the cutoff bounds added latency to verify_batch_wait_ns; under
      // heavy load try_pop_n fills the wave without ever sleeping.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::nanoseconds(config_.verify_batch_wait_ns);
      while (burst.size() < max_batch && !st.stop_requested()) {
        if (verify_queue_.try_pop_n(burst, max_batch - burst.size()) > 0)
          continue;
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        auto next = verify_queue_.pop_for(deadline - now);
        if (!next) break;  // cutoff expired or shutdown: flush what we have
        burst.push_back(std::move(*next));
      }
    }
    ScopedBusy sb(busy);
    StageScope alloc_scope(*this, rtzone::Stage::kVerify);
    // One verify_batch call settles the wave: the canonical byte buffers
    // must outlive the call, so they are materialized side-by-side in the
    // reusable scratch (burst.size() <= max_batch by construction).
    for (std::size_t i = 0; i < burst.size(); ++i) {
      canon[i] = burst[i].signing_bytes();
      items[i] = crypto::VerifyItem{burst[i].from, BytesView(canon[i]),
                                    BytesView(burst[i].signature)};
    }
    crypto::BatchVerifyStats bs;
    crypto_.verify_batch(items.data(), burst.size(), verdicts.get(), &bs);
    batched_sigs_.fetch_add(burst.size(), std::memory_order_relaxed);
    batch_flushes_.fetch_add(1, std::memory_order_relaxed);
    batch_bisections_.fetch_add(bs.bisections, std::memory_order_relaxed);
    std::uint64_t invalid = 0;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      if (!verdicts[i]) {
        ++invalid;
        continue;
      }
      // Verified: hand to the single consensus owner. Reordering across
      // pool threads is harmless (votes are counted per sequence number).
      worker_queue_.push(WorkerItem{std::move(burst[i]), true});
    }
    if (invalid > 0) {
      MutexLock lock(stats_mu_);
      stats_.invalid_signatures += invalid;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker thread: all Prepare/Commit (and view-change) processing (§4.3/4.4).
// ---------------------------------------------------------------------------

void Replica::worker_loop(std::stop_token st, BusyCounter& busy) {
  while (!st.stop_requested()) {
    auto item = worker_queue_.pop();
    if (!item) return;  // shutdown
    ScopedBusy sb(busy);
    StageScope alloc_scope(*this, rtzone::Stage::kWorker);
    auto msg = std::optional<Message>(std::move(item->msg));

    bool self = msg->from == Endpoint::replica(config_.id);
    if (!self && !item->verified) {
      Bytes canon = msg->signing_bytes();
      if (!crypto_.verify(msg->from, BytesView(canon),
                          BytesView(msg->signature))) {
        MutexLock lock(stats_mu_);
        ++stats_.invalid_signatures;
        continue;
      }
    }

    // Snapshot state transfer bypasses the engine: serving reads the
    // captured image, and an incoming image is tallied/verified here and
    // installed by the execute thread (the sole owner of store + chain).
    if (msg->type() == MsgType::kSnapshotRequest) {
      handle_snapshot_request(*msg);
      continue;
    }
    if (msg->type() == MsgType::kSnapshotResponse) {
      handle_snapshot_response(std::move(*msg));
      continue;
    }

    // A backup validates that the primary's digest really covers the batch
    // (defends against a byzantine primary pairing a good digest with a
    // garbage batch).
    if (msg->type() == MsgType::kPrePrepare && !self) {
      const auto& pp = std::get<protocol::PrePrepare>(msg->payload);
      if (digest_batch(pp.txns) != pp.batch_digest) {
        MutexLock lock(stats_mu_);
        ++stats_.invalid_signatures;
        continue;
      }
    }
    // A catch-up response must pair each digest with its real batch; drop
    // any entry where they disagree before the engine counts votes.
    if (msg->type() == MsgType::kBatchResponse) {
      auto& resp = std::get<protocol::BatchResponse>(msg->payload);
      std::erase_if(resp.entries, [](const protocol::BatchResponse::Entry& e) {
        return digest_batch(e.txns) != e.digest;
      });
    }

    Actions actions;
    {
      MutexLock lock(engine_mu_);
      switch (msg->type()) {
        case MsgType::kPrePrepare:
          actions = engine_.on_preprepare(*msg);
          break;
        case MsgType::kPrepare:
          actions = engine_.on_prepare(*msg);
          break;
        case MsgType::kCommit:
          actions = engine_.on_commit(*msg);
          break;
        case MsgType::kViewChange:
          actions = engine_.on_view_change(*msg);
          break;
        case MsgType::kNewView:
          actions = engine_.on_new_view(*msg);
          break;
        case MsgType::kBatchRequest:
          actions = engine_.on_batch_request(*msg);
          break;
        case MsgType::kBatchResponse:
          actions = engine_.on_batch_response(*msg);
          break;
        default:
          break;
      }
    }
    perform(std::move(actions));
  }
}

// ---------------------------------------------------------------------------
// Execute thread: strictly in-order execution via the QC slot scheme (§4.6).
// ---------------------------------------------------------------------------

void Replica::deliver_execute(protocol::ExecuteAction ex) {
  ExecuteSlot& slot = execute_slots_[ex.seq % execute_slots_.size()];
  MutexLock lock(slot.mu);
  // QC is sized so a wrap-around collision means the pipeline is more than
  // `execute_queue_slots` batches ahead of execution; block until the
  // executor drains the slot (or stop() flips running_ and notifies).
  while (slot.item.has_value() &&
         running_.load(std::memory_order_relaxed)) {
    slot.cv.wait(slot.mu);
  }
  if (!running_.load(std::memory_order_relaxed)) return;
  slot.item = std::move(ex);
  slot.cv.notify_all();
}

void Replica::execute_loop(std::stop_token st, BusyCounter& busy) {
  // Group commit (durable mode): executed batches accumulate into a wave;
  // ONE fsync of the consensus log (plus the KV store's wave barrier) makes
  // the whole wave durable, and only then do the wave's client responses and
  // engine actions (checkpoint votes) leave the replica — a response never
  // acknowledges state a crash could lose. Non-durable mode degenerates to
  // waves of one batch with nothing withheld.
  const bool durable = rlog_ != nullptr;
  const std::uint32_t max_wave =
      durable ? std::max<std::uint32_t>(config_.durability.max_wave, 1) : 1;
  std::uint32_t wave = 0;
  std::vector<std::pair<Endpoint, Message>> held_msgs;
  Actions held_actions;
  // Certificate re-check scratch (verify_certificates): verdict array sized
  // to the largest certificate seen, reused across batches so the re-check
  // never heap-allocates per block on the execute hot path.
  std::unique_ptr<bool[]> cert_ok;
  std::size_t cert_ok_cap = 0;

  auto flush_wave = [&]() {
    if (durable && wave > 0) {
      rlog_->commit();  // fail-stop on fsync error (propagates)
      store_->commit_wave();
      log_commits_.fetch_add(1, std::memory_order_relaxed);
    }
    wave = 0;
    for (auto& [to, m] : held_msgs) enqueue_output(to, std::move(m));
    held_msgs.clear();
    if (!held_actions.empty()) {
      perform(std::move(held_actions));
      held_actions.clear();
    }
    maybe_compact_log();
  };

  while (!st.stop_requested()) {
    if (diverged_.load(std::memory_order_acquire)) {
      // Exec-divergence fail-stop: our execution provably forked from the
      // cluster's. Nothing this replica executes, answers, or votes from
      // here on can be trusted, so the execute stage halts outright —
      // withheld wave output included. The process stays up for forensics.
      held_msgs.clear();
      held_actions.clear();
      return;
    }
    SeqNum seq = next_exec_seq_.load(std::memory_order_relaxed);
    ExecuteSlot& slot = execute_slots_[seq % execute_slots_.size()];
    protocol::ExecuteAction ex;
    bool have = false;
    {
      MutexLock lock(slot.mu);
      if (wave > 0) {
        // Mid-wave: never sleep on a slot while committed batches sit
        // unfsynced — take the next batch only if it is already there.
        have = slot.item.has_value() && slot.item->seq == seq;
      } else {
        // Bounded wait so the stop token is re-checked every 50 ms even
        // when no batch ever lands in this slot.
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
        while (!(slot.item.has_value() && slot.item->seq == seq) &&
               std::chrono::steady_clock::now() < deadline) {
          slot.cv.wait_until(slot.mu, deadline);
        }
        have = slot.item.has_value() && slot.item->seq == seq;
      }
      if (have) {
        ex = std::move(*slot.item);
        slot.item.reset();
        slot.cv.notify_all();
      }
    }
    if (!have) {
      if (wave > 0) {
        ScopedBusy sb(busy);
        flush_wave();  // the pipeline went empty: settle the wave now
        continue;
      }
      // Idle with nothing pending: the stalled-replica window where a
      // verified snapshot gets installed, and a safe point to compact.
      maybe_install_snapshot();
      maybe_compact_log();
      continue;  // timeout: re-check stop token
    }
    ScopedBusy sb(busy);
    StageScope alloc_scope(*this, rtzone::Stage::kExecute);

    // Execute every transaction of the batch, in order (§4.6), suppressing
    // retransmitted requests via the reply cache (a request executes exactly
    // once; duplicates get the cached reply). Every put streams through the
    // delta recorder, and each newly-executed result code is folded — batch
    // by batch — into the interval's execution fingerprint (exec_acc_).
    crypto::Sha256 delta_hasher;
    DeltaRecordingStore dstore(*store_, delta_hasher);
    std::vector<std::uint64_t> exec_results;
    std::vector<std::pair<ClientId, protocol::ClientResponse>> responses;
    responses.reserve(ex.txns.size());
    std::uint64_t duplicates = 0;
    for (std::size_t idx = 0; idx < ex.txns.size(); ++idx) {
      // test_perturb_exec models the nondeterminism bug class the
      // fingerprint exists to catch: same ordered input, different apply
      // order. The chain accumulator cannot see it; exec_acc_ does.
      const Transaction& txn =
          config_.test_perturb_exec ? ex.txns[ex.txns.size() - 1 - idx]
                                    : ex.txns[idx];
      auto& cache = reply_cache_[txn.client];
      std::uint64_t result;
      if (txn.req_id == cache.first && cache.first != 0) {
        result = cache.second;  // duplicate of the last executed request
        ++duplicates;
      } else if (txn.req_id < cache.first) {
        ++duplicates;
        continue;  // older than the reply cache: the client moved on
      } else {
        result = execute_fn_ ? execute_fn_(txn, dstore) : 0;
        cache = {txn.req_id, result};
        exec_results.push_back(result);
      }
      protocol::ClientResponse resp;
      resp.client = txn.client;
      resp.req_id = txn.req_id;
      resp.view = ex.view;
      resp.result = result;
      responses.push_back({txn.client, resp});
    }
    exec_acc_ = fold_exec_acc(exec_acc_, ex.seq, ex.batch_digest,
                              exec_results, delta_hasher.finish());

    // Optional defense in depth: re-check the 2f+1 commit certificate
    // through the SAME batch path the verify pool uses — each vote is the
    // signer's signature over its Commit message's canonical bytes. Every
    // vote was already verified on arrival, so a failure here means the
    // certificate was corrupted between quorum and execution; it is counted
    // (and the votes batch through one multi-scalar multiplication, so the
    // re-check costs a fraction of 2f+1 serial verifies). Our own vote may
    // carry an empty placeholder signature — skip those.
    if (config_.verify_certificates && !ex.certificate.empty()) {
      protocol::Commit cm;
      cm.view = ex.view;
      cm.seq = ex.seq;
      cm.batch_digest = ex.batch_digest;
      std::vector<Bytes> vote_canon;
      std::vector<crypto::VerifyItem> vote_items;
      vote_canon.reserve(ex.certificate.size());
      vote_items.reserve(ex.certificate.size());
      for (const auto& vote : ex.certificate) {
        if (vote.signature.empty()) continue;
        Message vm;
        vm.from = Endpoint::replica(vote.replica);
        vm.payload = cm;
        vote_canon.push_back(vm.signing_bytes());
        vote_items.push_back(crypto::VerifyItem{vm.from,
                                                BytesView(vote_canon.back()),
                                                BytesView(vote.signature)});
      }
      if (!vote_items.empty()) {
        if (vote_items.size() > cert_ok_cap) {
          cert_ok_cap = std::max<std::size_t>(vote_items.size(), config_.n);
          cert_ok = make_verdict_scratch(cert_ok_cap);
        }
        crypto::BatchVerifyStats bs;
        const std::size_t valid = crypto_.verify_batch(
            vote_items.data(), vote_items.size(), cert_ok.get(), &bs);
        batched_sigs_.fetch_add(vote_items.size(),
                                std::memory_order_relaxed);
        batch_flushes_.fetch_add(1, std::memory_order_relaxed);
        batch_bisections_.fetch_add(bs.bisections,
                                    std::memory_order_relaxed);
        if (valid < vote_items.size()) {
          cert_vote_failures_.fetch_add(vote_items.size() - valid,
                                        std::memory_order_relaxed);
        }
      }
    }

    // Block generation (§4.6): the 2f+1 commit signatures stand in for the
    // previous-block hash.
    ledger::Block block;
    block.seq = ex.seq;
    block.view = ex.view;
    block.batch_digest = ex.batch_digest;
    block.txn_begin = ex.txn_begin;
    block.txn_end = ex.txn_begin + ex.txns.size();
    block.certificate = ex.certificate;
    Digest acc;
    {
      MutexLock lock(chain_mu_);
      chain_.append(std::move(block));
      acc = chain_.accumulator();
    }

    // Durable mode: log the executed batch (buffered; durable at the wave's
    // group commit) and remember it for the next compaction's tail.
    const bool boundary = config_.checkpoint_interval > 0 &&
                          ex.seq % config_.checkpoint_interval == 0;
    if (durable) {
      LoggedBatch lb;
      lb.seq = ex.seq;
      lb.view = ex.view;
      lb.digest = ex.batch_digest;
      lb.txn_begin = ex.txn_begin;
      lb.txns = ex.txns;
      lb.certificate = ex.certificate;
      rlog_->append_batch(lb);
      log_tail_.push_back(std::move(lb));
      if (boundary) checkpoint_meta_[ex.seq] = {ex.view, acc};
    }
    if (boundary && config_.enable_snapshots)
      capture_snapshot(ex.seq, ex.view, acc);

    // Checkpoint boundary: seal the interval's execution fingerprint. It
    // rides on our Checkpoint vote (engine_.on_executed below) so peers can
    // cross-check execution, not just ordering; the fold restarts at zero
    // for the next interval.
    Digest exec_digest{};
    if (boundary) {
      exec_digest = exec_acc_;
      exec_fingerprints_[ex.seq] = exec_acc_;
      exec_acc_ = Digest{};
      while (exec_fingerprints_.size() > kExecFingerprintKeep)
        exec_fingerprints_.erase(exec_fingerprints_.begin());
    }

    Actions actions;
    {
      MutexLock lock(engine_mu_);
      actions = engine_.on_executed(ex.seq, acc, exec_digest);
    }

    for (auto& [client, resp] : responses) {
      Message m;
      m.from = Endpoint::replica(config_.id);
      m.payload = resp;
      if (durable)
        held_msgs.emplace_back(Endpoint::client(client), std::move(m));
      else
        enqueue_output(Endpoint::client(client), std::move(m));
    }

    {
      MutexLock lock(stats_mu_);
      ++stats_.batches_executed;
      stats_.txns_executed += ex.txns.size() - duplicates;
      stats_.duplicate_txns += duplicates;
      stats_.responses_sent += responses.size();
    }

    next_exec_seq_.store(seq + 1, std::memory_order_relaxed);
    last_executed_pub_.store(seq, std::memory_order_release);
    // Execution progress proves the primary is alive: disarm the relayed-
    // request watchdog.
    {
      MutexLock lock(timer_mu_);
      timers_.erase(kClientRequestTimer);
    }
    if (durable) {
      // Checkpoint votes and other engine follow-ups are withheld with the
      // responses: a vote must not claim execution a crash could lose.
      for (auto& a : actions) held_actions.push_back(std::move(a));
    } else {
      perform(std::move(actions));
    }
    ++wave;
    if (wave >= max_wave) flush_wave();
  }
  // Graceful stop: settle whatever the last wave executed. A real crash
  // (the drill's kill path) never reaches this line — that is the point.
  try {
    flush_wave();
  } catch (...) {
  }
}

// ---------------------------------------------------------------------------
// Snapshot state transfer + log compaction (execute/worker threads).
// ---------------------------------------------------------------------------

void Replica::capture_snapshot(SeqNum seq, ViewId view, const Digest& acc) {
  // Canonical KV image: key-sorted [count][key][value]... — every replica
  // that executed the same prefix serializes byte-identical images, so the
  // image digest can be vouched for by f+1 peers. for_each_sorted is the
  // determinism barrier over the store's unordered iteration.
  std::vector<std::pair<std::string, std::string>> kvs;
  store_->for_each_sorted([&kvs](std::string_view k, std::string_view v) {
    kvs.emplace_back(std::string(k), std::string(v));
  });
  Writer w;
  w.u64(kvs.size());
  for (const auto& [k, v] : kvs) {
    w.str(k);
    w.str(v);
  }
  Bytes image = w.take();
  SnapshotImage img;
  img.seq = seq;
  img.view = view;
  img.chain_acc = acc;
  img.kv_digest = crypto::sha256(BytesView(image));
  img.raw_bytes = image.size();
  img.blob = lz_compress(BytesView(image));
  MutexLock lock(snap_mu_);
  snap_image_ = std::move(img);
}

void Replica::handle_snapshot_request(const Message& msg) {
  const auto& req = std::get<protocol::SnapshotRequest>(msg.payload);
  std::optional<SnapshotImage> img;
  {
    MutexLock lock(snap_mu_);
    if (snap_image_ && snap_image_->seq > req.have) img = *snap_image_;
  }
  if (!img) return;  // nothing captured yet, or the requester is ahead
  protocol::SnapshotResponse resp;
  resp.seq = img->seq;
  resp.chain_acc = img->chain_acc;
  resp.kv_digest = img->kv_digest;
  resp.raw_bytes = img->raw_bytes;
  resp.blob = std::move(img->blob);
  Message m;
  m.from = Endpoint::replica(config_.id);
  m.payload = std::move(resp);
  enqueue_output(msg.from, std::move(m));
  snapshots_served_.fetch_add(1, std::memory_order_relaxed);
}

void Replica::handle_snapshot_response(Message msg) {
  auto& resp = std::get<protocol::SnapshotResponse>(msg.payload);
  if (resp.seq <= last_executed()) return;  // the gap closed naturally
  snap_offers_[msg.from.id] = std::move(resp);

  // f+1 distinct peers vouching for the same (seq, chain digest, kv digest)
  // means at least one honest replica executed exactly that state. The blob
  // itself still has to be proven against the vouched digest — a byzantine
  // voucher can pair honest digests with a garbage blob, so try every
  // matching offer until one decompresses to the right bytes.
  const std::uint32_t need = max_faulty(config_.n) + 1;
  for (const auto& [id, cand] : snap_offers_) {
    auto matches = [&cand](const protocol::SnapshotResponse& o) {
      return o.seq == cand.seq && o.chain_acc == cand.chain_acc &&
             o.kv_digest == cand.kv_digest;
    };
    std::uint32_t votes = 0;
    for (const auto& [id2, o] : snap_offers_)
      if (matches(o)) ++votes;
    if (votes < need) continue;
    for (auto& [id2, o] : snap_offers_) {
      if (!matches(o)) continue;
      auto raw = lz_decompress(BytesView(o.blob), o.raw_bytes);
      if (!raw || raw->size() != o.raw_bytes) continue;
      if (!(crypto::sha256(BytesView(*raw)) == o.kv_digest)) continue;
      {
        MutexLock lock(snap_mu_);
        pending_install_ =
            PendingInstall{o.seq, o.chain_acc, std::move(*raw)};
      }
      snap_offers_.clear();
      return;
    }
  }
}

void Replica::maybe_install_snapshot() {
  std::optional<PendingInstall> p;
  {
    MutexLock lock(snap_mu_);
    if (pending_install_) {
      if (pending_install_->seq >
          last_executed_pub_.load(std::memory_order_relaxed)) {
        p.emplace(std::move(*pending_install_));
      }
      pending_install_.reset();  // taken, or stale because the gap closed
    }
  }
  if (!p) return;
  const SeqNum seq = p->seq;

  // Replace the KV image wholesale and persist it BEFORE the consensus log
  // stops covering the gap (the compact below anchors the log at `seq`).
  store_->clear();
  Reader r(BytesView(p->image));
  std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string k = r.str();
    std::string v = r.str();
    if (!r.ok()) break;  // cannot happen: the image digest was verified
    store_->put(k, v);
  }
  store_->checkpoint();

  {
    MutexLock lock(chain_mu_);
    chain_.reset_to(seq, p->chain_acc);
  }
  if (rlog_) {
    log_tail_.clear();
    checkpoint_meta_.clear();
    ViewId v = view();
    checkpoint_meta_[seq] = {v, p->chain_acc};
    rlog_->compact(seq, v, p->chain_acc, {});
    log_compactions_.fetch_add(1, std::memory_order_relaxed);
  }
  Actions actions;
  {
    MutexLock lock(engine_mu_);
    actions = engine_.install_snapshot(seq);
  }
  next_exec_seq_.store(seq + 1, std::memory_order_relaxed);
  last_executed_pub_.store(seq, std::memory_order_release);
  // Snapshots are captured at checkpoint boundaries, where the fingerprint
  // fold restarts — start the next interval from zero like every peer.
  exec_acc_ = Digest{};
  snapshots_installed_.fetch_add(1, std::memory_order_relaxed);
  // Any committed tail the engine had buffered above the image executes
  // through the normal slot path.
  perform(std::move(actions));
}

void Replica::maybe_compact_log() {
  if (!rlog_) return;
  // Only a durable store may absorb history: compacting the log against an
  // in-memory store would discard the only persistent copy.
  if (!store_->durable()) return;
  SeqNum want = compact_request_.load(std::memory_order_acquire);
  if (want == 0) return;
  auto it = checkpoint_meta_.find(want);
  if (it == checkpoint_meta_.end()) return;  // boundary not executed yet
  compact_request_.compare_exchange_strong(want, 0,
                                           std::memory_order_acq_rel);
  // KV durability up to (at least) the anchor FIRST, then rewrite the log
  // without the records the anchor replaces.
  store_->checkpoint();
  while (!log_tail_.empty() && log_tail_.front().seq <= want)
    log_tail_.pop_front();
  std::vector<LoggedBatch> tail(log_tail_.begin(), log_tail_.end());
  rlog_->compact(want, it->second.first, it->second.second, tail);
  log_compactions_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_meta_.erase(checkpoint_meta_.begin(),
                         checkpoint_meta_.upper_bound(want));
}

// ---------------------------------------------------------------------------
// Checkpoint thread (§4.7).
// ---------------------------------------------------------------------------

void Replica::checkpoint_loop(std::stop_token st, BusyCounter& busy) {
  while (!st.stop_requested()) {
    auto msg = checkpoint_queue_.pop();
    if (!msg) return;
    ScopedBusy sb(busy);
    StageScope alloc_scope(*this, rtzone::Stage::kCheckpoint);
    bool self = msg->from == Endpoint::replica(config_.id);
    if (!self) {
      Bytes canon = msg->signing_bytes();
      if (!crypto_.verify(msg->from, BytesView(canon),
                          BytesView(msg->signature))) {
        MutexLock lock(stats_mu_);
        ++stats_.invalid_signatures;
        continue;
      }
    }
    Actions actions;
    {
      MutexLock lock(engine_mu_);
      actions = engine_.on_checkpoint(*msg);
    }
    perform(std::move(actions));
  }
}

// ---------------------------------------------------------------------------
// Output threads: sign per link and hand to the transport.
// ---------------------------------------------------------------------------

void Replica::enqueue_output(Endpoint to, Message msg) {
  std::size_t idx = to.id % output_queues_.size();
  output_queues_[idx]->push(OutboundMsg{to, std::move(msg)});
}

void Replica::broadcast(Message msg) {
  if (ds_replica_links_ && config_.n > 1) {
    // Serialize-once fan-out: one output thread signs and serializes a
    // single wire frame, then sends a borrowed FrameView to every peer
    // (n-1 sends, ONE serialization, ONE signature). Round-robin so the
    // broadcast load spreads across output threads; atomic because
    // broadcast() runs on worker, batch and checkpoint threads alike.
    std::size_t idx = rr_bcast_.fetch_add(1, std::memory_order_relaxed) %
                      output_queues_.size();
    output_queues_[idx]->push(OutboundMsg{Endpoint::replica(config_.id),
                                          std::move(msg), /*broadcast=*/true});
    return;
  }
  // Pairwise-MAC links (CMAC): each peer needs its own tag, so the frame
  // legitimately differs per destination — sign + serialize per link.
  for (ReplicaId peer = 0; peer < config_.n; ++peer) {
    if (peer == config_.id) continue;
    enqueue_output(Endpoint::replica(peer), msg);
  }
}

void Replica::output_loop(std::stop_token st, std::size_t idx,
                          BusyCounter& busy) {
  while (!st.stop_requested()) {
    auto out = output_queues_[idx]->pop();
    if (!out) return;
    ScopedBusy sb(busy);
    StageScope alloc_scope(*this, rtzone::Stage::kOutput);
    if (out->broadcast) {
      // Addressee-independent signature: any replica endpoint selects the
      // same scheme and the same signing key, so sign against the first
      // non-self peer and reuse the frame for all of them.
      Bytes canon = out->msg.signing_bytes();
      out->msg.signature = crypto_.sign(
          Endpoint::replica((config_.id + 1) % config_.n), BytesView(canon));
      OwnedFrame frame = OwnedFrame::adopt(out->msg.serialize());
      broadcasts_serialized_.fetch_add(1, std::memory_order_relaxed);
      for (ReplicaId peer = 0; peer < config_.n; ++peer) {
        if (peer == config_.id) continue;
        transport_.send_frame(Endpoint::replica(config_.id),
                              Endpoint::replica(peer), frame.view());
        broadcast_frame_sends_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    Bytes canon = out->msg.signing_bytes();
    out->msg.signature = crypto_.sign(out->to, BytesView(canon));
    transport_.send(out->to, out->msg);
  }
}

// ---------------------------------------------------------------------------
// Timers (view-change triggers).
// ---------------------------------------------------------------------------

void Replica::timer_loop(std::stop_token st) {
  MutexLock lock(timer_mu_);
  while (!st.stop_requested()) {
    if (timers_.empty()) {
      // Wakes on arm/cancel, stop, or the 50 ms poll tick; loop re-tests.
      timer_cv_.wait_for(timer_mu_, st, std::chrono::milliseconds(50));
      continue;
    }
    auto next = std::min_element(
        timers_.begin(), timers_.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    auto deadline = next->second;
    if (std::chrono::steady_clock::now() < deadline) {
      // Sleep toward the earliest deadline; an arm/cancel notify wakes us
      // early so a NEWLY armed earlier timer is honoured on the next pass.
      timer_cv_.wait_until(timer_mu_, st, deadline);
      continue;
    }
    std::uint64_t id = next->first;
    timers_.erase(next);
    if (id == kCatchupTimer) {
      // Self re-arming periodic poll.
      timers_[kCatchupTimer] =
          std::chrono::steady_clock::now() +
          std::chrono::nanoseconds(config_.catchup_poll_ns);
    }
    lock.unlock();
    Actions actions;
    {
      MutexLock elock(engine_mu_);
      actions = id == kClientRequestTimer ? engine_.on_client_request_timeout()
                : id == kCatchupTimer     ? engine_.maybe_request_catchup()
                                          : engine_.on_timeout(id);
    }
    perform(std::move(actions));
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Action dispatch.
// ---------------------------------------------------------------------------

void Replica::perform(Actions actions) {
  // visit_action: one handler per alternative, checked at compile time.
  // Adding an Action without extending this dispatcher is a build error,
  // not a silent fall-through (protocol/actions.h).
  for (auto& action : actions) {
    protocol::visit_action(
        action,
        [&](protocol::BroadcastAction& bc) {
          if (bc.msg.type() == MsgType::kCommit) {
            // Record this replica's own vote for the block certificate: the
            // self-link MAC/signature over the commit's canonical bytes.
            auto seq = std::get<protocol::Commit>(bc.msg.payload).seq;
            Bytes canon = bc.msg.signing_bytes();
            Bytes sig =
                crypto_.sign(Endpoint::replica(config_.id), BytesView(canon));
            MutexLock lock(engine_mu_);
            engine_.note_own_commit_signature(seq, std::move(sig));
          }
          bool include_self = bc.include_self;
          Message msg = std::move(bc.msg);
          // Own messages need no signature check (verified = true).
          if (include_self) worker_queue_.push(WorkerItem{msg, true});
          broadcast(std::move(msg));
        },
        [&](protocol::SendAction& send) {
          enqueue_output(send.to, std::move(send.msg));
        },
        [&](protocol::ExecuteAction& ex) { deliver_execute(std::move(ex)); },
        [&](protocol::SetTimerAction& t) {
          MutexLock lock(timer_mu_);
          timers_[t.id] = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(t.delay_ns);
          timer_cv_.notify_all();
        },
        [&](protocol::CancelTimerAction& c) {
          MutexLock lock(timer_mu_);
          timers_.erase(c.id);
          timer_cv_.notify_all();
        },
        [&](protocol::StableCheckpointAction& sc) {
          {
            MutexLock lock(chain_mu_);
            chain_.prune_before(sc.seq);
          }
          if (rlog_) {
            // Ask the execute thread (the log's owner) to compact to the new
            // stable anchor at its next wave boundary; keep only the max.
            SeqNum cur = compact_request_.load(std::memory_order_relaxed);
            while (cur < sc.seq &&
                   !compact_request_.compare_exchange_weak(
                       cur, sc.seq, std::memory_order_acq_rel)) {
            }
          }
        },
        [&](protocol::RequestSnapshotAction& rs) {
          if (config_.enable_snapshots) {
            protocol::SnapshotRequest req;
            req.have = rs.have;
            Message m;
            m.from = Endpoint::replica(config_.id);
            m.payload = req;
            broadcast(std::move(m));
          }
        },
        [&](protocol::ExecDivergenceAction& dv) {
          // Named fail-stop: f+1 peers executed the same ordered input and
          // got a different execution fingerprint — at least one of them is
          // honest, so OUR execution is the nondeterministic (or corrupted)
          // one. Dump forensics, count it, and flip the diverged flag; the
          // execute thread halts at its next iteration and never un-halts.
          Digest chain_acc;
          {
            MutexLock lock(chain_mu_);
            chain_acc = chain_.accumulator();
          }
          log_error(
              "EXEC DIVERGENCE (fail-stop): replica=" +
              std::to_string(config_.id) + " seq=" + std::to_string(dv.seq) +
              " local_exec=" + to_hex(dv.local_exec) +
              " quorum_exec=" + to_hex(dv.quorum_exec) +
              " voters=" + std::to_string(dv.voters) +
              " last_executed=" + std::to_string(last_executed()) +
              " chain_acc=" + to_hex(chain_acc) +
              " — chain accumulators MATCH, so ordering agreed and execution " +
              "itself forked; halting the execute stage");
          exec_divergence_count_.fetch_add(1, std::memory_order_relaxed);
          diverged_.store(true, std::memory_order_release);
        },
        [&](protocol::ViewChangedAction& vc) {
          view_.store(vc.view, std::memory_order_release);
          if (vc.view % config_.n == config_.id) {
            SeqNum base;
            {
              MutexLock lock(engine_mu_);
              base = engine_.suggest_next_seq();
            }
            seq_base_.store(base, std::memory_order_release);
          }
        });
  }
}

}  // namespace rdb::runtime
