#include "assembly.h"

#include <thread>

#include "storage/mem_store.h"

namespace rtbench {

using rdb::Endpoint;
using rdb::runtime::Replica;
using rdb::runtime::TcpTransport;
using rdb::runtime::Transport;

void ResultLog::record(rdb::ClientId client, rdb::RequestId req,
                       std::uint64_t result) {
  if (client >= kMaxClients) return;
  auto& v = by_client_[client];
  if (v.capacity() == 0) v.reserve(kReservePerClient);
  if (req >= v.size()) v.resize(req + 1);
  v[req] = {result, true};
}

std::optional<std::uint64_t> ResultLog::get(rdb::ClientId client,
                                            rdb::RequestId req) const {
  if (client >= kMaxClients) return std::nullopt;
  const auto& v = by_client_[client];
  if (req >= v.size() || !v[req].set) return std::nullopt;
  return v[req].result;
}

Transport& BenchCluster::wire(Transport& raw, std::int32_t node) {
  if (!spec_.trace) return raw;
  timed_transports_.push_back(
      std::make_unique<TimedTransport>(raw, *spec_.trace, node));
  return *timed_transports_.back();
}

BenchCluster::BenchCluster(ClusterSpec spec)
    : spec_(std::move(spec)), registry_(7), workload_(spec_.ycsb) {
  const std::uint32_t n = spec_.n;
  std::vector<Transport*> replica_wire(n);
  if (spec_.tcp) {
    // One TcpTransport per endpoint, ephemeral loopback ports, full mesh.
    rdb::runtime::TcpTransportConfig tc;
    tc.drain_timeout = std::chrono::milliseconds(100);
    for (std::uint32_t r = 0; r < n; ++r)
      tcp_.push_back(std::make_unique<TcpTransport>(Endpoint::replica(r), 0, tc));
    for (rdb::ClientId c : spec_.clients)
      tcp_.push_back(std::make_unique<TcpTransport>(Endpoint::client(c), 0, tc));
    for (auto& a : tcp_) {
      for (auto& b : tcp_) {
        if (a == b) continue;
        bool both_clients = a->self().kind == Endpoint::Kind::kClient &&
                            b->self().kind == Endpoint::Kind::kClient;
        if (!both_clients) a->add_peer(b->self(), {"127.0.0.1", b->port()});
      }
    }
    for (std::uint32_t r = 0; r < n; ++r)
      replica_wire[r] = &wire(*tcp_[r], static_cast<std::int32_t>(r));
    for (std::size_t i = 0; i < spec_.clients.size(); ++i)
      client_wire_.push_back({spec_.clients[i], &wire(*tcp_[n + i], -1)});
  } else {
    for (std::uint32_t r = 0; r < n; ++r)
      replica_wire[r] = &wire(inproc_, static_cast<std::int32_t>(r));
    for (rdb::ClientId c : spec_.clients)
      client_wire_.push_back({c, &wire(inproc_, -1)});
  }

  rdb::storage::Env* env = nullptr;
  if (spec_.durable && spec_.trace) {
    env_ = std::make_unique<TimedEnv>(rdb::storage::Env::real(), *spec_.trace);
    env = env_.get();
  }

  self_.assign(n, nullptr);
  pagedbs_.assign(n, nullptr);
  stage_threads_.resize(n);
  started_ns_.assign(n, 0);

  // Build and load the n stores in parallel: loading 10K records into a
  // PageDb is most of a durable cluster's set-up.
  std::vector<std::unique_ptr<rdb::storage::KvStore>> stores(n);
  std::vector<std::string> load_errors(n);
  {
    std::vector<std::jthread> loaders;
    for (std::uint32_t r = 0; r < n; ++r) {
      loaders.emplace_back([this, r, env, &stores, &load_errors] {
        try {
          stores[r] = make_store(r, env);
        } catch (const std::exception& e) {
          load_errors[r] = e.what();
        }
      });
    }
  }
  for (const auto& e : load_errors)
    if (!e.empty()) throw std::runtime_error("store set-up: " + e);

  for (std::uint32_t r = 0; r < n; ++r) {
    rdb::runtime::ReplicaConfig rc;
    rc.n = n;
    rc.id = r;
    rc.batch_size = spec_.batch_size;
    if (spec_.durable) {
      rc.durability.enabled = true;
      rc.durability.dir = replica_dir(r);
      rc.durability.sync = true;
      rc.durability.env = env;
    }
    auto store = std::move(stores[r]);
    if (spec_.trace)
      store = std::make_unique<TimedStore>(std::move(store), *spec_.trace,
                                           static_cast<std::int32_t>(r));

    results_.push_back(std::make_unique<ResultLog>());
    rdb::runtime::ExecuteFn exec =
        [wl = &workload_, log = results_.back().get()](
            const rdb::protocol::Transaction& t, rdb::storage::KvStore& s) {
          std::uint64_t result = wl->execute(t, s);
          log->record(t.client, t.req_id, result);
          return result;
        };
    if (spec_.trace)
      exec = timed_execute(std::move(exec), *spec_.trace,
                           static_cast<std::int32_t>(r), &self_[r]);
    replicas_.push_back(std::make_unique<Replica>(
        rc, *replica_wire[r], registry_, std::move(store), std::move(exec)));
    self_[r] = replicas_.back().get();
  }
}

std::string BenchCluster::replica_dir(std::uint32_t r) const {
  return spec_.data_dir + "/r" + std::to_string(r);
}

std::unique_ptr<rdb::storage::KvStore> BenchCluster::make_store(
    std::uint32_t r, rdb::storage::Env* env) {
  std::unique_ptr<rdb::storage::KvStore> store;
  if (spec_.durable) {
    rdb::storage::Env::real().make_dirs(replica_dir(r));
    rdb::storage::PageDbConfig pc;
    pc.path = replica_dir(r) + "/kv.pagedb";
    pc.env = env;
    pc.sync_wal = false;  // the replica's group commit calls commit_wave()
    auto db = std::make_unique<rdb::storage::PageDb>(pc);
    pagedbs_[r] = db.get();
    store = std::move(db);
  } else {
    store = std::make_unique<rdb::storage::MemStore>();
  }
  // Load the table before the timing decorator goes on, so the traced
  // counters see only the run's traffic.
  workload_.populate(*store);
  store->checkpoint();
  return store;
}

BenchCluster::~BenchCluster() {
  stop_replicas();
  replicas_.clear();
  for (auto& t : tcp_) t->stop();
}

std::string BenchCluster::start() {
  for (std::uint32_t r = 0; r < spec_.n; ++r) {
    auto before = list_tids();
    started_ns_[r] = now_ns();
    replicas_[r]->start();
    auto created = new_tids(before, list_tids());
    std::vector<std::string> names;
    for (const auto& s : replicas_[r]->thread_saturations())
      names.push_back(s.thread);
    stage_threads_[r] = map_stage_threads(created, names);
    if (stage_threads_[r].empty())
      return "replica " + std::to_string(r) + ": start() created " +
             std::to_string(created.size()) + " threads, expected " +
             std::to_string(names.size() + 1);
  }
  return {};
}

Transport& BenchCluster::client_transport(rdb::ClientId client) {
  for (auto& [c, t] : client_wire_)
    if (c == client) return *t;
  throw std::logic_error("client endpoint was not declared");
}

void BenchCluster::kill(std::uint32_t i) {
  if (!replicas_[i]) return;
  replicas_[i]->stop();
  self_[i] = nullptr;
  replicas_[i].reset();
}

void BenchCluster::stop_replicas() {
  for (auto& r : replicas_)
    if (r) r->stop();
}

rdb::runtime::TcpTransportStats BenchCluster::tcp_stats() const {
  rdb::runtime::TcpTransportStats sum;
  for (const auto& t : tcp_) {
    auto s = t->stats();
    sum.send_failures += s.send_failures;
    sum.queue_overflows += s.queue_overflows;
  }
  return sum;
}

}  // namespace rtbench
