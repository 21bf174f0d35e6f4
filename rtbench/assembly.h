// Cluster assembly for the runtime benchmark. One path builds every
// workload's cluster from the public seams — Replica, Transport
// (InprocTransport or one TcpTransport per endpoint on loopback), KvStore
// (MemStore or PageDb), storage::Env and ExecuteFn — and, in the traced run,
// puts a pass-through timing decorator on each seam.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/key_registry.h"
#include "decorators.h"
#include "procstat.h"
#include "runtime/replica.h"
#include "runtime/tcp_transport.h"
#include "runtime/transport.h"
#include "storage/page_db.h"
#include "workload/ycsb.h"

namespace rtbench {

struct ClusterSpec {
  std::uint32_t n{4};
  std::uint32_t batch_size{100};
  bool tcp{false};
  bool durable{false};  // PageDb + consensus WAL, fsync per group commit
  rdb::workload::YcsbConfig ycsb{};
  std::vector<rdb::ClientId> clients;  // client endpoints, declared up front
  std::string data_dir;                // durable: replica i uses data_dir/r<i>
  Trace* trace{nullptr};  // non-null: every seam gets a timing decorator
};

/// What one replica's ExecuteFn returned, by (client, req_id). Written only
/// by that replica's execute thread; read after the replica has stopped.
class ResultLog {
 public:
  static constexpr rdb::ClientId kMaxClients = 64;
  /// Requests per client reserved (not touched) on first use. The log then
  /// fills in place instead of doubling: a doubling copy of eight logs would
  /// lift peak_rss_mb by tens of MiB in the runs that cross a power of two.
  static constexpr std::size_t kReservePerClient = std::size_t{1} << 20;
  void record(rdb::ClientId client, rdb::RequestId req, std::uint64_t result);
  std::optional<std::uint64_t> get(rdb::ClientId client,
                                   rdb::RequestId req) const;

 private:
  struct Entry {
    std::uint64_t result{0};
    bool set{false};
  };
  std::vector<std::vector<Entry>> by_client_ =
      std::vector<std::vector<Entry>>(kMaxClients);
};

class BenchCluster {
 public:
  explicit BenchCluster(ClusterSpec spec);
  ~BenchCluster();
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  /// Starts every replica, snapshotting /proc/self/task around each start()
  /// to map the new threads to pipeline stages. Returns an error message
  /// (empty on success) when a replica's thread count does not match.
  std::string start();

  std::uint32_t n() const { return spec_.n; }
  const rdb::crypto::KeyRegistry& registry() const { return registry_; }
  rdb::runtime::Transport& client_transport(rdb::ClientId client);

  /// nullptr once killed.
  rdb::runtime::Replica* replica(std::uint32_t i) { return replicas_[i].get(); }
  const std::vector<StageThread>& stage_threads(std::uint32_t i) const {
    return stage_threads_[i];
  }
  /// steady-clock ns just before replica i's start() (busy-gauge origin).
  std::int64_t started_ns(std::uint32_t i) const { return started_ns_[i]; }
  const ResultLog& results(std::uint32_t i) const { return *results_[i]; }
  /// The replica's PageDb (durable mode), nullptr otherwise or once killed.
  const rdb::storage::PageDb* pagedb(std::uint32_t i) const {
    return replicas_[i] ? pagedbs_[i] : nullptr;
  }

  /// Hard kill: stop and destroy the replica, as LocalCluster::kill_replica.
  void kill(std::uint32_t i);
  /// Stops every live replica (threads joined; chains readable).
  void stop_replicas();
  /// Sum over this cluster's TCP transports (zeros for in-process).
  rdb::runtime::TcpTransportStats tcp_stats() const;

 private:
  rdb::runtime::Transport& wire(rdb::runtime::Transport& raw, std::int32_t node);
  std::string replica_dir(std::uint32_t r) const;
  /// Creates and loads replica r's store (runs on a loader thread).
  std::unique_ptr<rdb::storage::KvStore> make_store(std::uint32_t r,
                                                    rdb::storage::Env* env);

  ClusterSpec spec_;
  rdb::crypto::KeyRegistry registry_;
  rdb::workload::YcsbWorkload workload_;
  rdb::runtime::InprocTransport inproc_;
  std::vector<std::unique_ptr<rdb::runtime::TcpTransport>> tcp_;
  std::vector<std::pair<rdb::ClientId, rdb::runtime::Transport*>> client_wire_;
  std::vector<std::unique_ptr<TimedTransport>> timed_transports_;
  std::unique_ptr<TimedEnv> env_;
  std::vector<std::unique_ptr<ResultLog>> results_;
  std::vector<const rdb::runtime::Replica*> self_;  // sized n, never resized
  std::vector<const rdb::storage::PageDb*> pagedbs_;
  std::vector<std::vector<StageThread>> stage_threads_;
  std::vector<std::int64_t> started_ns_;
  std::vector<std::unique_ptr<rdb::runtime::Replica>> replicas_;
};

}  // namespace rtbench
