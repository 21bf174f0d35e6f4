// Open-loop load generator: Poisson arrivals at a fixed rate from a seeded
// schedule, one client endpoint, single-transaction requests. One sender
// thread sends each request at its due time and never waits for replies; one
// receiver thread validates responses (ClientResponse accept mask, MAC
// check) and decides each request at f+1 matching results. Built only on the
// public CryptoProvider, protocol and Transport APIs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "crypto/provider.h"
#include "runtime/transport_iface.h"
#include "trace.h"
#include "workload/ycsb.h"

namespace rtbench {

/// Due times (ns offsets from the schedule start) of a Poisson process at
/// `rate_per_s` over `duration_s`. The same seed gives the same schedule.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           double duration_s);

struct OpenLoopRecord {
  std::int64_t due_ns{0};      // absolute steady-clock ns
  std::int64_t sent_ns{0};     // 0 = never sent
  std::int64_t decided_ns{0};  // 0 = never decided (f+1 matching results)
  std::uint64_t result{0};
  bool conflict{false};  // a reply disagreed with the decided result
};

class OpenLoopClient {
 public:
  OpenLoopClient(rdb::ClientId id, std::uint32_t n,
                 rdb::runtime::Transport& transport,
                 const rdb::crypto::KeyRegistry& registry,
                 const rdb::workload::YcsbConfig& ycsb, std::uint64_t seed,
                 std::size_t max_requests, Trace* trace);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Sends one request now and waits for its decision (set-up probe).
  bool probe(std::chrono::milliseconds timeout);
  /// Starts the sender on `schedule` (offsets from `start_ns`); at most
  /// max_requests - 1 entries (the probe takes one).
  void run(std::int64_t start_ns, const std::vector<std::int64_t>& schedule);
  /// Waits for the sender to finish its schedule.
  void join_sender();
  /// Waits until every sent request is decided or the deadline passes.
  void drain(std::int64_t deadline_ns);
  /// Stops the receiver. Records are stable afterwards.
  void stop();

  /// Records of the scheduled requests, in schedule order (after stop()).
  std::vector<OpenLoopRecord> records() const;
  std::vector<double> lateness_ms() const;  // sent - due, per request
  int sender_tid() const { return sender_tid_.load(); }
  int receiver_tid() const { return receiver_tid_.load(); }
  std::uint64_t rejected() const { return rejected_.load(); }

 private:
  struct Slot {
    OpenLoopRecord rec;
    std::uint64_t votes[16]{};
    std::uint32_t voted{0};  // bitmask of replicas that replied
  };
  void send_request(rdb::RequestId req);
  void receive_loop(std::stop_token st);

  rdb::ClientId id_;
  std::uint32_t n_;
  rdb::runtime::Transport& transport_;
  rdb::crypto::CryptoProvider crypto_;
  rdb::workload::YcsbWorkload workload_;
  rdb::Rng rng_;
  Trace* trace_;
  std::shared_ptr<rdb::runtime::Transport::Inbox> inbox_;
  // Slot i holds request id i + 1 (id 1 is the probe). Sized once in the
  // constructor: the receiver may touch any sent slot at any time.
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> decided_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<int> sender_tid_{0};
  std::atomic<int> receiver_tid_{0};
  std::jthread receiver_;
  std::jthread sender_;
};

}  // namespace rtbench
