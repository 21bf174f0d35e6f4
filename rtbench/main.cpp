// rtbench: end-to-end and per-layer benchmark of the threaded runtime
// (src/runtime over src/protocol, src/crypto, src/storage, src/workload).
//
//   rtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>]
//
// --trace 0 sets the cluster up kSetupsUntraced times (setup_s is the
// median), then measures one window of --seconds with no instrumentation and
// prints the end-to-end metrics as medians over the window's slices.
// --trace 1 measures two windows of
// --seconds/2 on fresh clusters with the same seed — untraced, then with a
// timing decorator on every seam — and prints the per-layer metrics plus the
// tracing overhead between the two. Every window ends with the correctness
// gate (gate.h); a violation exits 1 without a result line. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "assembly.h"
#include "gate.h"
#include "openloop.h"
#include "procstat.h"
#include "runtime/client.h"
#include "stats.h"
#include "trace.h"

namespace rtbench {
namespace {

using rdb::runtime::Client;
using rdb::runtime::ReplicaStats;

// ---------------------------------------------------------------------------
// Workloads. All: n = 4, batch_size 100, default schemes (clients Ed25519,
// replicas CMAC), YCSB over 10K records at Zipf 0.9, one op per txn.
// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  bool tcp;
  bool durable;
  bool open_loop;
  bool crash;
  double read_fraction;
};

constexpr WorkloadDef kWorkloads[] = {
    {"closed-inproc", false, false, false, false, 0.0},
    {"open-tcp", true, false, true, false, 0.0},
    {"durable-mixed", false, true, false, false, 0.5},
    {"primary-crash", false, false, false, true, 0.0},
};

constexpr std::uint32_t kReplicas = 4;
constexpr std::uint32_t kClosedClients = 2;
constexpr std::uint32_t kBurst = 100;
constexpr double kOpenRate = 500.0;  // txn/s
constexpr double kWarmupS = 1.0;
constexpr double kKillOffsetS = 2.0;  // after the window starts
// The window is cut into slices, and the end-to-end figures are medians over
// the slices, so a host hiccup confined to two of the five does not move
// them. At --seconds 45 a slice is 9 s: about 250 closed-loop bursts, enough
// for ten samples beyond p95.
constexpr int kSlices = 5;
// The first set-ups of a process run slower (cold allocator, first thread
// stacks); seven make the median a warm one.
constexpr std::uint32_t kSetupsUntraced = 7;
constexpr std::uint32_t kSampleEvery = 16;
constexpr std::size_t kSpanCapacity = 1 << 18;
// The tail percentile reported as latency_p95_ms. A closed-loop sample is a
// burst of 100 txns, so p99 would need 1000 bursts: over 35 s a run at the
// ~3K txn/s the closed loops reach, more than the benchmark's time budget
// allows. p95 keeps ten samples beyond it down to ~700 txn/s; the run also
// prints the highest percentile that has ten, and says when p95 has not.
constexpr double kTailPercentile = 95.0;

const char* const kStages[] = {"input",  "batch",      "verify", "worker",
                               "execute", "checkpoint", "output", "timer"};
// rtzone::Stage index of each stage name (timer has none).
int stage_index(const std::string& stage) {
  for (int i = 0; i < 7; ++i)
    if (stage == kStages[i]) return i;
  return -1;
}

// ---------------------------------------------------------------------------
// Metric catalogue (names and units as BENCHMARK.json lists them).
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> end_to_end_metrics() {
  return {{"throughput_txn_s", "txn/s"}, {"latency_p50_ms", "ms"},
          {"latency_p95_ms", "ms"},      {"cpu_us_per_txn", "us"},
          {"setup_s", "s"},              {"peak_rss_mb", "MiB"}};
}

// Stages whose per-stage metrics are reported. verify has no threads with
// the default verify_threads = 0, and the timer thread has no busy gauge or
// item counter, so those report only what exists (the run says so).
std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m;
  for (const char* role : {"primary", "backup"}) {
    for (const char* stage :
         {"input", "batch", "worker", "execute", "checkpoint", "output"}) {
      std::string p = std::string("replica.") + role + "." + stage + ".";
      m.push_back({p + "cpu_us_per_txn", "us"});
      m.push_back({p + "runq_us_per_txn", "us"});
      m.push_back({p + "wall_busy_pct", "%"});
      m.push_back({p + "busy_gap_pct", "%"});
      m.push_back({p + "iters_per_txn", "count"});
    }
    std::string p = std::string("replica.") + role + ".timer.";
    m.push_back({p + "cpu_us_per_txn", "us"});
    m.push_back({p + "runq_us_per_txn", "us"});
  }
  for (MetricDef d : std::vector<MetricDef>{
           {"protocol.txns_per_batch", "count"},
           {"protocol.final_view", "count"},
           {"protocol.outage_s", "s"},
           {"transport.msgs_per_txn", "count"},
           {"transport.bytes_per_txn", "B"},
           {"transport.send_us", "us"},
           {"transport.tcp_send_failures", "count"},
           {"transport.tcp_queue_overflows", "count"},
           {"client.cpu_us_per_txn", "us"},
           {"crypto.client_sign_us", "us"},
           {"client.retries_per_ktxn", "count"},
           {"client.broadcasts", "count"},
           {"workload.execute_us", "us"},
           {"storage.put_us", "us"},
           {"storage.get_us", "us"},
           {"storage.commit_wave_ms", "ms"},
           {"storage.cache_miss_ratio", "ratio"},
           {"storage.fsyncs_per_txn", "count"},
           {"storage.fsync_ms_p50", "ms"},
           {"storage.write_bytes_per_txn", "B"},
           {"storage.txns_per_group_commit", "count"},
           {"span.order_ms_p50", "ms"},
           {"span.reply_ms_p50", "ms"},
           {"loadgen.lateness_p99_ms", "ms"},
           {"process.unattributed_cpu_pct", "%"},
           {"trace.overhead_pct", "%"},
       })
    m.push_back(d);
  return m;
}

// ---------------------------------------------------------------------------
// Per-replica samples taken at the window edges (traced run).
// ---------------------------------------------------------------------------

struct ReplicaSample {
  std::int64_t at_ns{0};
  std::vector<ThreadTimes> times;  // parallel to stage_threads(r)
  std::vector<double> busy_ns;     // parallel to stage_threads(r)
  ReplicaStats stats;
  rdb::storage::PageDbStats page;
};

ReplicaSample sample_replica(BenchCluster& c, std::uint32_t r) {
  ReplicaSample s;
  auto* rep = c.replica(r);
  auto sats = rep->thread_saturations();
  s.at_ns = now_ns();
  const double elapsed = static_cast<double>(s.at_ns - c.started_ns(r));
  const auto& threads = c.stage_threads(r);
  for (std::size_t i = 0; i < threads.size(); ++i) {
    s.times.push_back(read_thread_times(threads[i].tid).value_or(ThreadTimes{}));
    s.busy_ns.push_back(threads[i].has_busy && i < sats.size()
                            ? sats[i].percent / 100.0 * elapsed
                            : 0.0);
  }
  s.stats = rep->stats();
  if (const auto* db = c.pagedb(r)) s.page = db->page_stats();
  return s;
}

std::uint64_t sum_cpu(const std::vector<int>& tids,
                      std::map<int, ThreadTimes>& base, bool set_base) {
  std::uint64_t total = 0;
  for (int tid : tids) {
    auto t = read_thread_times(tid).value_or(ThreadTimes{});
    if (set_base)
      base[tid] = t;
    else
      total += t.cpu_ns - base[tid].cpu_ns;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Closed-loop caller: one thread per runtime::Client, bursts of kBurst.
// ---------------------------------------------------------------------------

struct BurstRecord {
  std::int64_t submit_ns{0};
  std::int64_t done_ns{0};
  std::uint32_t txns{0};
  bool ok{false};
  rdb::ViewId view{0};  // client's believed view when the burst completed
};

class Caller {
 public:
  Caller(Client& client, const rdb::workload::YcsbConfig& ycsb,
         std::uint64_t seed, Trace* trace)
      : client_(client), workload_(ycsb), rng_(seed), trace_(trace) {
    // Reserved, not touched, so the records grow resident memory only as
    // they fill and never by a doubling copy (see ResultLog).
    decided_.reserve(ResultLog::kReservePerClient);
    bursts_.reserve(ResultLog::kReservePerClient / kBurst);
  }

  /// Submits one burst and records its outcome.
  bool submit(std::uint32_t size) {
    auto burst = make_burst(size);
    std::vector<rdb::RequestId> ids;
    for (const auto& t : burst) ids.push_back(t.req_id);
    BurstRecord rec;
    rec.txns = size;
    rec.submit_ns = now_ns();
    auto res = client_.submit_and_wait(std::move(burst));
    rec.done_ns = now_ns();
    rec.view = client_.believed_view();
    rec.ok = res.has_value();
    if (rec.ok) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        decided_.push_back({client_.id(), ids[i], (*res)[i]});
        std::uint64_t key = req_key(client_.id(), ids[i]);
        if (trace_ && trace_->sampled(key))
          trace_->record({"client.request", rec.submit_ns, rec.done_ns,
                          trace_->next_id(), 0, -1, key});
      }
    }
    bursts_.push_back(rec);
    return rec.ok;
  }

  void start() {
    thread_ = std::jthread([this](std::stop_token st) {
      tid_.store(current_tid());
      while (!st.stop_requested()) {
        if (pause_.load()) {
          idle_.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        idle_.store(false);
        submit(kBurst);
      }
    });
    while (tid_.load() == 0) std::this_thread::yield();
  }
  /// Holds the caller between bursts; true once it is idle there.
  void pause() { pause_.store(true); }
  bool idle() const { return idle_.load(); }
  void resume() {
    pause_.store(false);
    idle_.store(false);
  }
  void stop() {
    if (thread_.joinable()) {
      thread_.request_stop();
      thread_.join();
    }
  }

  int tid() const { return tid_.load(); }
  const std::vector<BurstRecord>& bursts() const { return bursts_; }
  const std::vector<Decided>& decided() const { return decided_; }

 private:
  std::vector<rdb::protocol::Transaction> make_burst(std::uint32_t size) {
    std::vector<rdb::protocol::Transaction> burst;
    burst.reserve(size);
    for (std::uint32_t i = 0; i < size; ++i) {
      auto t = workload_.make_transaction(rng_, client_.id(), 0);
      std::int64_t t0 = trace_ ? now_ns() : 0;
      burst.push_back(client_.make_transaction(std::move(t.payload), t.ops));
      if (trace_) {
        trace_->add(kClientSigns, 1);
        trace_->add(kClientSignNs, static_cast<std::uint64_t>(now_ns() - t0));
      }
    }
    return burst;
  }

  Client& client_;
  rdb::workload::YcsbWorkload workload_;
  rdb::Rng rng_;
  Trace* trace_;
  std::vector<BurstRecord> bursts_;
  std::vector<Decided> decided_;
  std::atomic<int> tid_{0};
  std::atomic<bool> pause_{false};
  std::atomic<bool> idle_{false};
  std::jthread thread_;
};

// ---------------------------------------------------------------------------
// One measured phase: set up (several times), warm up, measure, gate.
// ---------------------------------------------------------------------------

struct SliceResult {
  double throughput{0};
  double p50_ms{0};
  double tail_ms{0};
  double cpu_us_per_txn{0};
  std::size_t samples{0};
};

struct PhaseResult {
  std::vector<std::string> violations;
  std::vector<std::string> notes;  // "no source" and other remarks
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t committed{0};  // in the whole window
  double window_s{0};
  double throughput{0};  // whole window
  std::vector<SliceResult> slices;
  std::vector<double> setup_s;
  double outage_s{-1};  // < 0: no kill in this workload
  double peak_rss_mb{0};  // at the window's end, before the gate's copies
  std::map<std::string, double> layer;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void sleep_until_ns(std::int64_t t) {
  std::int64_t wait = t - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

class Phase {
 public:
  Phase(const WorkloadDef& def, std::uint64_t seed, double seconds,
        bool traced, std::uint32_t setups, std::string out_dir)
      : def_(def),
        seed_(seed),
        seconds_(seconds),
        setups_(setups),
        out_dir_(std::move(out_dir)) {
    if (traced) trace_ = std::make_unique<Trace>(kSpanCapacity, kSampleEvery);
    ycsb_.record_count = 10'000;
    ycsb_.zipf_theta = 0.9;
    ycsb_.ops_per_txn = 1;
    ycsb_.read_fraction = def_.read_fraction;
  }
  ~Phase() { teardown(); }

  PhaseResult run();

 private:
  std::string setup_once(std::uint32_t k);
  void teardown();
  void begin_window();
  void end_window();
  void per_layer(PhaseResult& res);

  const WorkloadDef& def_;
  std::uint64_t seed_;
  double seconds_;
  std::uint32_t setups_;
  std::string out_dir_;
  std::unique_ptr<Trace> trace_;
  rdb::workload::YcsbConfig ycsb_;
  std::vector<std::int64_t> schedule_;

  std::string data_dir_;
  std::unique_ptr<BenchCluster> cluster_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<Caller>> callers_;
  std::unique_ptr<OpenLoopClient> open_;
  std::vector<int> client_tids_;  // pumps + callers, or sender + receiver

  // Window edges.
  std::int64_t t0_{0}, t1_{0}, kill_ns_{0};
  double cpu0_{0}, cpu1_{0};
  std::vector<std::int64_t> edges_;  // slice boundaries, t0_ .. t1_
  std::vector<double> edge_cpu_s_;
  std::vector<ReplicaSample> start_, end_;
  std::vector<std::pair<std::uint32_t, ReplicaStats>> killed_;
  CounterSnapshot counters0_{}, counters1_{};
  rdb::runtime::ClientStats cstats0_{}, cstats1_{};
  rdb::runtime::TcpTransportStats tcp0_{}, tcp1_{};
  std::map<int, ThreadTimes> client_base_;
  std::uint64_t client_cpu_ns_{0};
  rdb::ViewId final_view_{0};
};

std::string Phase::setup_once(std::uint32_t k) {
  ClusterSpec spec;
  spec.n = kReplicas;
  spec.batch_size = 100;
  spec.tcp = def_.tcp;
  spec.durable = def_.durable;
  spec.ycsb = ycsb_;
  spec.trace = trace_.get();
  if (def_.open_loop) {
    spec.clients = {1};
  } else {
    for (rdb::ClientId c = 1; c <= kClosedClients; ++c)
      spec.clients.push_back(c);
  }
  if (def_.durable) {
    data_dir_ = out_dir_ + "/data-" + std::to_string(::getpid()) + "-" +
                std::to_string(k);
    std::filesystem::remove_all(data_dir_);
    spec.data_dir = data_dir_;
  }
  cluster_ = std::make_unique<BenchCluster>(spec);
  if (auto err = cluster_->start(); !err.empty()) return err;

  if (def_.open_loop) {
    open_ = std::make_unique<OpenLoopClient>(
        1, kReplicas, cluster_->client_transport(1), cluster_->registry(),
        ycsb_, mix_seed(seed_, 1), schedule_.size() + 1, trace_.get());
    if (!open_->probe(std::chrono::seconds(10)))
      return "set-up probe request was not decided";
    return {};
  }
  for (rdb::ClientId c = 1; c <= kClosedClients; ++c) {
    rdb::runtime::ClientConfig cc;
    cc.id = c;
    cc.n = kReplicas;
    auto before = list_tids();
    clients_.push_back(std::make_unique<Client>(
        cc, cluster_->client_transport(c), cluster_->registry()));
    auto pump = new_tids(before, list_tids());
    if (pump.size() != 1)
      return "client " + std::to_string(c) + ": expected one pump thread, saw " +
             std::to_string(pump.size());
    client_tids_.push_back(pump[0]);
    callers_.push_back(std::make_unique<Caller>(*clients_.back(), ycsb_,
                                                mix_seed(seed_, c),
                                                trace_.get()));
  }
  if (!callers_[0]->submit(1)) return "set-up probe request timed out";
  return {};
}

void Phase::teardown() {
  for (auto& c : callers_) c->stop();
  if (open_) open_->stop();
  callers_.clear();
  clients_.clear();
  open_.reset();
  cluster_.reset();
  client_tids_.clear();
  if (!data_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    data_dir_.clear();
  }
}

void Phase::begin_window() {
  t0_ = now_ns();
  cpu0_ = process_cpu_s();
  if (!trace_) return;
  start_.clear();
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    start_.push_back(sample_replica(*cluster_, r));
  counters0_ = trace_->counters();
  trace_->clear_sync_samples();
  for (auto& c : clients_) {
    auto s = c->stats();
    cstats0_.retries += s.retries;
    cstats0_.broadcasts += s.broadcasts;
  }
  tcp0_ = cluster_->tcp_stats();
  sum_cpu(client_tids_, client_base_, true);
}

void Phase::end_window() {
  t1_ = now_ns();
  cpu1_ = process_cpu_s();
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    if (auto* rep = cluster_->replica(r))
      final_view_ = std::max(final_view_, rep->view());
  if (!trace_) return;
  end_.resize(kReplicas);
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    if (cluster_->replica(r)) end_[r] = sample_replica(*cluster_, r);
  counters1_ = trace_->counters();
  for (auto& c : clients_) {
    auto s = c->stats();
    cstats1_.retries += s.retries;
    cstats1_.broadcasts += s.broadcasts;
  }
  tcp1_ = cluster_->tcp_stats();
  client_cpu_ns_ = sum_cpu(client_tids_, client_base_, false);
}

PhaseResult Phase::run() {
  PhaseResult res;
  if (def_.open_loop)
    schedule_ = poisson_schedule(seed_, kOpenRate, kWarmupS + seconds_);

  // Set up several times and keep the last cluster; each set-up is timed
  // from the start of assembly until its first request has committed.
  for (std::uint32_t k = 0; k < setups_; ++k) {
    teardown();
    std::int64_t t = now_ns();
    if (auto err = setup_once(k); !err.empty()) {
      res.violations.push_back("set-up: " + err);
      return res;
    }
    res.setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
  }

  // Load, warm-up, window.
  const std::int64_t load_start = now_ns();
  if (def_.open_loop) {
    open_->run(load_start, schedule_);
    while (open_->sender_tid() == 0) std::this_thread::yield();
    client_tids_ = {open_->sender_tid(), open_->receiver_tid()};
  } else {
    for (auto& c : callers_) {
      c->start();
      client_tids_.push_back(c->tid());
    }
  }
  sleep_until_ns(load_start + static_cast<std::int64_t>(kWarmupS * 1e9));
  begin_window();
  const std::int64_t window_end =
      t0_ + static_cast<std::int64_t>(seconds_ * 1e9);
  edges_ = {t0_};
  edge_cpu_s_ = {cpu0_};
  // primary-crash measures one slice: its outage must stay in the figures.
  const int slices = def_.crash ? 1 : kSlices;
  for (int k = 1; k < slices; ++k) {
    sleep_until_ns(t0_ + static_cast<std::int64_t>(seconds_ * 1e9 * k / slices));
    edges_.push_back(now_ns());
    edge_cpu_s_.push_back(process_cpu_s());
  }
  if (def_.crash) {
    double offset = std::min(kKillOffsetS, seconds_ * 0.25);
    sleep_until_ns(t0_ + static_cast<std::int64_t>(offset * 1e9));
    // Kill between bursts: with no batch in flight the outage always takes
    // the client path (timeout, relay, view change), never a batch timer.
    for (auto& c : callers_) c->pause();
    for (auto& c : callers_)
      while (!c->idle()) std::this_thread::sleep_for(std::chrono::microseconds(100));
    // The killed primary's window ends at its kill.
    if (trace_) {
      end_.assign(kReplicas, {});
      end_[0] = sample_replica(*cluster_, 0);
    }
    killed_.push_back({0, cluster_->replica(0)->stats()});
    kill_ns_ = now_ns();
    cluster_->kill(0);
    for (auto& c : callers_) c->resume();
  }
  sleep_until_ns(window_end);
  end_window();
  res.peak_rss_mb = peak_rss_mb();
  edges_.push_back(t1_);
  edge_cpu_s_.push_back(cpu1_);

  // Stop the load and let in-flight requests finish.
  GateInput gate;
  gate.write_only = def_.read_fraction == 0.0;
  gate.ops_per_txn = ycsb_.ops_per_txn;
  gate.expect_view_change = def_.crash;
  gate.killed = killed_;
  // Completions in the window: (time, txns, latency).
  struct Completion {
    std::int64_t at_ns;
    std::uint32_t txns;
    double latency_ms;
  };
  std::vector<Completion> done;
  if (def_.open_loop) {
    open_->join_sender();
    open_->drain(now_ns() + 5'000'000'000);
    open_->stop();
    // Request ids follow schedule order after the probe (id 1).
    rdb::RequestId id = 1;
    for (const auto& r : open_->records()) {
      ++id;
      if (r.decided_ns != 0) {
        gate.decided.push_back({1, id, r.result});
        done.push_back({r.decided_ns, 1,
                        static_cast<double>(r.decided_ns - r.due_ns) / 1e6});
      }
      if (r.conflict)
        res.violations.push_back("open loop: a reply disagreed with f+1");
      if (r.due_ns >= t0_ && r.due_ns < t1_) {
        ++res.attempted;
        if (r.decided_ns == 0) ++res.failed;
      }
    }
    if (open_->rejected() != 0)
      res.violations.push_back("open loop: " +
                               std::to_string(open_->rejected()) +
                               " responses rejected");
  } else {
    for (auto& c : callers_) c->stop();
    for (auto& c : callers_) {
      for (const auto& d : c->decided()) gate.decided.push_back(d);
      for (const auto& b : c->bursts()) {
        if (b.ok)
          done.push_back({b.done_ns, b.txns,
                          static_cast<double>(b.done_ns - b.submit_ns) / 1e6});
        if (b.submit_ns >= t0_ && b.submit_ns < t1_) {
          res.attempted += b.txns;
          if (!b.ok) res.failed += b.txns;
        }
        if (def_.crash && b.ok && b.done_ns > kill_ns_ && b.view >= 1) {
          double o = static_cast<double>(b.done_ns - kill_ns_) / 1e9;
          if (res.outage_s < 0 || o < res.outage_s) res.outage_s = o;
        }
      }
    }
    if (def_.crash && res.outage_s < 0)
      res.violations.push_back("no request committed in a new view after "
                               "the primary was killed");
  }
  for (std::size_t k = 0; k + 1 < edges_.size(); ++k) {
    std::vector<double> lat;
    std::uint64_t txns = 0;
    const bool last = k + 2 == edges_.size();
    for (const auto& c : done) {
      if (c.at_ns < edges_[k] || c.at_ns > edges_[k + 1] ||
          (!last && c.at_ns == edges_[k + 1]))
        continue;
      lat.push_back(c.latency_ms);
      txns += c.txns;
    }
    const double secs = static_cast<double>(edges_[k + 1] - edges_[k]) / 1e9;
    SliceResult sl;
    sl.throughput = static_cast<double>(txns) / secs;
    sl.p50_ms = percentile(lat, 50);
    sl.tail_ms = percentile(lat, kTailPercentile);
    sl.cpu_us_per_txn =
        txns ? (edge_cpu_s_[k + 1] - edge_cpu_s_[k]) * 1e6 /
                   static_cast<double>(txns)
             : 0.0;
    sl.samples = lat.size();
    res.slices.push_back(sl);
    res.committed += txns;
  }
  res.window_s = static_cast<double>(t1_ - t0_) / 1e9;
  res.throughput = static_cast<double>(res.committed) / res.window_s;
  if (res.committed == 0) res.violations.push_back("nothing committed");

  for (auto& v : run_gate(*cluster_, gate)) res.violations.push_back(v);
  if (trace_ && res.violations.empty()) per_layer(res);
  teardown();
  return res;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the traced window.
// ---------------------------------------------------------------------------

void Phase::per_layer(PhaseResult& res) {
  auto& L = res.layer;
  const double txns = static_cast<double>(std::max<std::uint64_t>(res.committed, 1));
  auto per_txn = [&](double v) { return v / txns; };

  // Pipeline stages: replica 0 is the primary (the initial one, in
  // primary-crash, sampled just before its kill); backups are averaged.
  // Busy and CPU percentages are shares of the stage's thread-time.
  struct StageAgg {
    double cpu_ns{0}, runq_ns{0}, items{0}, busy_pct{0}, cpu_pct{0};
  };
  std::uint64_t attributed_ns = 0;
  std::map<std::string, StageAgg> role_stage[2];
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    const auto& threads = cluster_->stage_threads(r);
    const ReplicaSample& a = start_[r];
    const ReplicaSample& b = end_[r];
    const double dur_ns = static_cast<double>(b.at_ns - a.at_ns);
    struct Sum {
      double cpu_ns{0}, runq_ns{0}, busy_ns{0}, threads{0};
    };
    std::map<std::string, Sum> per;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      Sum& g = per[threads[i].stage];
      g.cpu_ns += static_cast<double>(b.times[i].cpu_ns - a.times[i].cpu_ns);
      g.runq_ns += static_cast<double>(b.times[i].runq_ns - a.times[i].runq_ns);
      g.busy_ns += b.busy_ns[i] - a.busy_ns[i];
      g.threads += 1;
      attributed_ns += b.times[i].cpu_ns - a.times[i].cpu_ns;
    }
    const double w = r == 0 ? 1.0 : 1.0 / (kReplicas - 1);
    for (const auto& [stage, g] : per) {
      StageAgg& dst = role_stage[r == 0 ? 0 : 1][stage];
      int si = stage_index(stage);
      if (si >= 0)
        dst.items += w * static_cast<double>(b.stats.hot_path_items[si] -
                                             a.stats.hot_path_items[si]);
      dst.cpu_ns += w * g.cpu_ns;
      dst.runq_ns += w * g.runq_ns;
      dst.busy_pct += w * g.busy_ns / (dur_ns * g.threads) * 100.0;
      dst.cpu_pct += w * g.cpu_ns / (dur_ns * g.threads) * 100.0;
    }
  }
  const char* roles[] = {"primary", "backup"};
  for (int role = 0; role < 2; ++role) {
    for (const char* stage : kStages) {
      std::string p = std::string("replica.") + roles[role] + "." + stage + ".";
      auto it = role_stage[role].find(stage);
      if (it == role_stage[role].end()) {
        if (role == 0)
          res.notes.push_back(std::string("replica.*.") + stage +
                              ".*: no source (no " + stage +
                              " threads; verify_threads = 0)");
        continue;
      }
      const StageAgg& g = it->second;
      L[p + "cpu_us_per_txn"] = per_txn(g.cpu_ns / 1e3);
      L[p + "runq_us_per_txn"] = per_txn(g.runq_ns / 1e3);
      if (std::string(stage) == "timer") continue;
      L[p + "wall_busy_pct"] = g.busy_pct;
      L[p + "busy_gap_pct"] = g.busy_pct - g.cpu_pct;
      L[p + "iters_per_txn"] = per_txn(g.items);
    }
  }
  res.notes.push_back(
      "replica.*.timer: wall_busy_pct, busy_gap_pct, iters_per_txn: no source "
      "(the timer thread has no busy gauge or item counter)");

  // Protocol.
  double txn_exec = 0, batches = 0, log_commits = 0;
  rdb::storage::PageDbStats page{};
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    const auto& a = start_[r].stats;
    const auto& b = end_[r].stats;
    txn_exec += static_cast<double>(b.txns_executed - a.txns_executed);
    batches += static_cast<double>(b.batches_executed - a.batches_executed);
    log_commits += static_cast<double>(b.log_commits - a.log_commits);
    page.cache_hits += end_[r].page.cache_hits - start_[r].page.cache_hits;
    page.cache_misses += end_[r].page.cache_misses - start_[r].page.cache_misses;
  }
  L["protocol.txns_per_batch"] = batches > 0 ? txn_exec / batches : 0;
  L["protocol.final_view"] = static_cast<double>(final_view_);
  L["protocol.outage_s"] = res.outage_s > 0 ? res.outage_s : 0;
  if (res.outage_s < 0)
    res.notes.push_back("protocol.outage_s: no source (no replica is killed)");

  // Transport.
  CounterSnapshot d{};
  for (std::size_t i = 0; i < kCounterCount; ++i)
    d[i] = counters1_[i] - counters0_[i];
  auto dv = [&d](Counter c) { return static_cast<double>(d[c]); };
  auto mean_us = [](double ns, double calls) {
    return calls > 0 ? ns / 1e3 / calls : 0.0;
  };
  L["transport.msgs_per_txn"] = per_txn(dv(kTransportMsgs));
  L["transport.bytes_per_txn"] = per_txn(dv(kTransportBytes));
  L["transport.send_us"] = mean_us(dv(kTransportSendNs), dv(kTransportMsgs));
  L["transport.tcp_send_failures"] =
      static_cast<double>(tcp1_.send_failures - tcp0_.send_failures);
  L["transport.tcp_queue_overflows"] =
      static_cast<double>(tcp1_.queue_overflows - tcp0_.queue_overflows);
  if (!def_.tcp)
    res.notes.push_back("transport.tcp_*: no source (in-process transport)");

  // Client.
  L["client.cpu_us_per_txn"] = per_txn(static_cast<double>(client_cpu_ns_) / 1e3);
  L["crypto.client_sign_us"] = mean_us(dv(kClientSignNs), dv(kClientSigns));
  L["client.retries_per_ktxn"] =
      per_txn(static_cast<double>(cstats1_.retries - cstats0_.retries) * 1e3);
  L["client.broadcasts"] =
      static_cast<double>(cstats1_.broadcasts - cstats0_.broadcasts);
  if (def_.open_loop)
    res.notes.push_back(
        "client.retries_per_ktxn, client.broadcasts: no source (the open-loop "
        "sender never retries)");

  // Workload and storage.
  L["workload.execute_us"] = mean_us(dv(kExecSelfNs), dv(kExecCalls));
  L["storage.put_us"] = mean_us(dv(kStorePutNs), dv(kStorePuts));
  L["storage.get_us"] = mean_us(dv(kStoreGetNs), dv(kStoreGets));
  L["storage.commit_wave_ms"] = mean_us(dv(kStoreWaveNs), dv(kStoreWaves)) / 1e3;
  const double lookups = static_cast<double>(page.cache_hits + page.cache_misses);
  L["storage.cache_miss_ratio"] =
      lookups > 0 ? static_cast<double>(page.cache_misses) / lookups : 0;
  L["storage.fsyncs_per_txn"] = per_txn(dv(kEnvSyncs));
  L["storage.fsync_ms_p50"] = percentile(trace_->sync_ms(), 50);
  L["storage.write_bytes_per_txn"] =
      per_txn(dv(kEnvWriteBytes));
  L["storage.txns_per_group_commit"] =
      log_commits > 0 ? txn_exec / log_commits : 0;
  if (!def_.durable)
    res.notes.push_back(
        "storage.cache_miss_ratio, storage.fsync*, storage.write_bytes_per_txn,"
        " storage.txns_per_group_commit: no source (MemStore, no WAL)");
  if (dv(kStoreGets) == 0)
    res.notes.push_back("storage.get_us: no source (write-only workload)");

  // Spans: order = request sent -> the primary starts executing it;
  // reply = that execute -> the client holds f+1 replies.
  if (def_.open_loop) {
    rdb::RequestId id = 2;
    for (const auto& r : open_->records()) {
      std::uint64_t key = req_key(1, id++);
      if (r.decided_ns != 0 && trace_->sampled(key))
        trace_->record({"client.request", r.sent_ns, r.decided_ns,
                        trace_->next_id(), 0, -1, key});
    }
  }
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> client_span;
  std::map<std::uint64_t, std::int64_t> exec_start;
  for (const Span& s : trace_->spans()) {
    if (std::strcmp(s.name, "client.request") == 0 && s.start_ns >= t0_ &&
        s.start_ns < t1_)
      client_span[s.req] = {s.start_ns, s.end_ns};
    else if (std::strcmp(s.name, "workload.execute.primary") == 0)
      exec_start[s.req] = s.start_ns;
  }
  std::vector<double> order, reply;
  for (const auto& [req, se] : client_span) {
    auto it = exec_start.find(req);
    if (it == exec_start.end()) continue;
    order.push_back(static_cast<double>(it->second - se.first) / 1e6);
    reply.push_back(static_cast<double>(se.second - it->second) / 1e6);
  }
  L["span.order_ms_p50"] = percentile(order, 50);
  L["span.reply_ms_p50"] = percentile(reply, 50);
  res.notes.push_back("spans: " + std::to_string(order.size()) +
                      " sampled requests joined (1 in " +
                      std::to_string(kSampleEvery) + "), " +
                      std::to_string(trace_->spans().size()) + " spans, " +
                      std::to_string(trace_->dropped()) + " dropped");

  L["loadgen.lateness_p99_ms"] =
      def_.open_loop ? percentile(open_->lateness_ms(), 99) : 0;
  if (!def_.open_loop)
    res.notes.push_back("loadgen.lateness_p99_ms: no source (closed loop)");

  const double proc_ns = (cpu1_ - cpu0_) * 1e9;
  attributed_ns += client_cpu_ns_;
  L["process.unattributed_cpu_pct"] =
      proc_ns > 0 ? (proc_ns - static_cast<double>(attributed_ns)) / proc_ns * 100
                  : 0;

  const std::string path = out_dir_ + "/spans-" + def_.name + "-seed" +
                           std::to_string(seed_) + ".tsv";
  res.notes.push_back(trace_->write_tsv(path) ? "spans written to " + path
                                              : "could not write " + path);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].first.name + "\": {\"value\": " +
         json_number(metrics[i].second) + ", \"unit\": \"" +
         metrics[i].first.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

bool report_violations(const std::string& phase, const PhaseResult& r) {
  if (r.violations.empty()) return false;
  std::fprintf(stderr, "rtbench: correctness gate failed (%s):\n",
               phase.c_str());
  for (const auto& v : r.violations) std::fprintf(stderr, "  %s\n", v.c_str());
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: rtbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run_main(int argc, char** argv) {
  std::string workload, out_dir = ".bench_build/rtbench-run";
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      seed = std::stoull(v);
    } else if (a == "--seconds") {
      seconds = std::stod(v);
    } else if (a == "--trace") {
      trace = std::stoi(v);
    } else if (a == "--out-dir") {
      out_dir = v;
    } else {
      return usage();
    }
  }
  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads)
    if (have_workload && workload == w.name) def = &w;
  if (!def || seconds <= 0 || (trace != 0 && trace != 1)) return usage();
  std::filesystem::create_directories(out_dir);

  std::printf("rtbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              def->name, seed, seconds, trace);
  if (trace == 0) {
    Phase phase(*def, seed, seconds, false, kSetupsUntraced, out_dir);
    PhaseResult r = phase.run();
    if (report_violations("untraced", r)) return 1;
    auto median_of = [&r](double SliceResult::*field) {
      std::vector<double> v;
      for (const auto& sl : r.slices) v.push_back(sl.*field);
      return percentile(v, 50);
    };
    std::vector<std::pair<MetricDef, double>> m;
    auto defs = end_to_end_metrics();
    m.push_back({defs[0], median_of(&SliceResult::throughput)});
    m.push_back({defs[1], median_of(&SliceResult::p50_ms)});
    m.push_back({defs[2], median_of(&SliceResult::tail_ms)});
    m.push_back({defs[3], median_of(&SliceResult::cpu_us_per_txn)});
    m.push_back({defs[4], percentile(r.setup_s, 50)});
    m.push_back({defs[5], r.peak_rss_mb});
    for (const auto& [d, v] : m)
      std::printf("  %-22s %14.4f %s\n", d.name.c_str(), v, d.unit.c_str());
    std::printf("  %-22s %14.6f ratio (%" PRIu64 " of %" PRIu64 ")\n",
                "failed_ratio",
                r.attempted ? static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                            : 0.0,
                r.failed, r.attempted);
    if (r.outage_s >= 0)
      std::printf("  %-22s %14.4f s\n", "outage_s", r.outage_s);
    std::printf("  set-ups (s):");
    for (double v : r.setup_s) std::printf(" %.4f", v);
    std::printf("\n");
    std::printf("  medians over %zu slices of %.3f s (window %.3f s, %" PRIu64
                " txns committed)\n",
                r.slices.size(), r.window_s / static_cast<double>(r.slices.size()),
                r.window_s, r.committed);
    for (const auto& sl : r.slices) {
      const double top = highest_supported_percentile(sl.samples);
      std::printf("    slice: %.1f txn/s, p50 %.3f ms, p%g %.3f ms, %.1f us/txn, "
                  "%zu latency samples (%zu beyond p%g; highest percentile "
                  "with >= 10 beyond: p%g)\n",
                  sl.throughput, sl.p50_ms, kTailPercentile, sl.tail_ms,
                  sl.cpu_us_per_txn, sl.samples,
                  samples_beyond(sl.samples, kTailPercentile), kTailPercentile,
                  top);
      if (samples_beyond(sl.samples, kTailPercentile) < 10)
        std::printf("    note: fewer than 10 samples beyond p%g in a slice; "
                    "run longer\n", kTailPercentile);
    }
    print_result(true, std::max<std::uint64_t>(r.attempted, 1), r.failed, m);
    return 0;
  }

  // Traced: untraced and traced windows of half the time each, same seed.
  PhaseResult base, traced;
  {
    Phase phase(*def, seed, seconds / 2, false, 1, out_dir);
    base = phase.run();
  }
  if (report_violations("untraced half", base)) return 1;
  {
    Phase phase(*def, seed, seconds / 2, true, 1, out_dir);
    traced = phase.run();
  }
  if (report_violations("traced half", traced)) return 1;
  traced.layer["trace.overhead_pct"] =
      base.throughput > 0
          ? (base.throughput - traced.throughput) / base.throughput * 100
          : 0;
  std::vector<std::pair<MetricDef, double>> m;
  for (const auto& d : per_layer_metrics()) {
    auto it = traced.layer.find(d.name);
    if (it == traced.layer.end()) {
      std::fprintf(stderr, "rtbench: metric %s was not computed\n",
                   d.name.c_str());
      return 1;
    }
    m.push_back({d, it->second});
  }
  for (const auto& [d, v] : m)
    std::printf("  %-44s %14.4f %s\n", d.name.c_str(), v, d.unit.c_str());
  for (const auto& note : traced.notes) std::printf("  note: %s\n", note.c_str());
  std::printf("  traced window: %" PRIu64 " txns at %.1f txn/s (untraced "
              "%.1f txn/s)\n",
              traced.committed, traced.throughput, base.throughput);
  print_result(true, std::max<std::uint64_t>(traced.attempted, 1),
               traced.failed, m);
  return 0;
}

}  // namespace
}  // namespace rtbench

int main(int argc, char** argv) {
  try {
    return rtbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtbench: %s\n", e.what());
    return 2;
  }
}
