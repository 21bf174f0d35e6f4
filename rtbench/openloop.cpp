#include "openloop.h"

#include <cmath>
#include <stdexcept>

#include "procstat.h"
#include "protocol/validate.h"

namespace rtbench {

using rdb::Endpoint;
using rdb::protocol::Message;

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           double duration_s) {
  rdb::Rng rng(seed ^ 0x0F0F'5EED'0000'0001ull);
  std::vector<std::int64_t> due;
  double t = 0;
  for (;;) {
    // Exponential inter-arrival gap; 1 - u is in (0, 1], so log is finite.
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return due;
}

OpenLoopClient::OpenLoopClient(rdb::ClientId id, std::uint32_t n,
                               rdb::runtime::Transport& transport,
                               const rdb::crypto::KeyRegistry& registry,
                               const rdb::workload::YcsbConfig& ycsb,
                               std::uint64_t seed, std::size_t max_requests,
                               Trace* trace)
    : id_(id),
      n_(n),
      transport_(transport),
      crypto_(Endpoint::client(id), registry, rdb::crypto::SchemeConfig{}),
      workload_(ycsb),
      rng_(seed),
      trace_(trace),
      inbox_(std::make_shared<rdb::runtime::Transport::Inbox>()),
      slots_(std::max<std::size_t>(max_requests, 1)) {
  transport_.register_endpoint(Endpoint::client(id_), inbox_);
  for (std::uint32_t r = 0; r < n_; ++r)
    registry.ed25519_expanded(Endpoint::replica(r));
  receiver_ = std::jthread([this](std::stop_token st) { receive_loop(st); });
}

OpenLoopClient::~OpenLoopClient() { stop(); }

void OpenLoopClient::send_request(rdb::RequestId req) {
  auto txn = workload_.make_transaction(rng_, id_, req);
  {
    std::int64_t t0 = trace_ ? now_ns() : 0;
    rdb::Bytes canon = txn.signing_bytes();
    txn.client_sig = crypto_.sign(Endpoint::replica(0), rdb::BytesView(canon));
    if (trace_) {
      trace_->add(kClientSigns, 1);
      trace_->add(kClientSignNs, static_cast<std::uint64_t>(now_ns() - t0));
    }
  }
  rdb::protocol::ClientRequest cr;
  cr.txns.push_back(std::move(txn));
  Message msg;
  msg.from = Endpoint::client(id_);
  msg.payload = std::move(cr);
  // Requests are MAC'd per client->replica link; always to the view-0
  // primary (the open-loop workload has no view change).
  rdb::Bytes canon = msg.signing_bytes();
  msg.signature = crypto_.sign(Endpoint::replica(0), rdb::BytesView(canon));
  slots_[req - 1].rec.sent_ns = now_ns();
  sent_.fetch_add(1, std::memory_order_release);
  transport_.send(Endpoint::replica(0), msg);
}

bool OpenLoopClient::probe(std::chrono::milliseconds timeout) {
  std::int64_t deadline = now_ns() + timeout.count() * 1'000'000;
  slots_[0].rec.due_ns = now_ns();
  send_request(1);
  while (decided_.load(std::memory_order_acquire) < 1 && now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  return decided_.load(std::memory_order_acquire) >= 1;
}

void OpenLoopClient::run(std::int64_t start_ns,
                         const std::vector<std::int64_t>& schedule) {
  if (schedule.size() + 1 > slots_.size())
    throw std::length_error("open-loop schedule exceeds max_requests");
  for (std::size_t i = 0; i < schedule.size(); ++i)
    slots_[1 + i].rec.due_ns = start_ns + schedule[i];
  sender_ = std::jthread([this, n = schedule.size()](std::stop_token st) {
    sender_tid_.store(current_tid());
    for (std::size_t i = 0; i < n && !st.stop_requested(); ++i) {
      std::int64_t due = slots_[1 + i].rec.due_ns;
      std::int64_t wait = due - now_ns();
      if (wait > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      send_request(static_cast<rdb::RequestId>(2 + i));
    }
  });
}

void OpenLoopClient::join_sender() {
  if (sender_.joinable()) sender_.join();
}

void OpenLoopClient::drain(std::int64_t deadline_ns) {
  while (decided_.load(std::memory_order_acquire) <
             sent_.load(std::memory_order_acquire) &&
         now_ns() < deadline_ns)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void OpenLoopClient::stop() {
  if (sender_.joinable()) {
    sender_.request_stop();
    sender_.join();
  }
  inbox_->shutdown();
  if (receiver_.joinable()) {
    receiver_.request_stop();
    receiver_.join();
  }
}

void OpenLoopClient::receive_loop(std::stop_token st) {
  receiver_tid_.store(current_tid());
  rdb::protocol::ValidationContext vctx;
  vctx.n = n_;
  vctx.accept_mask =
      rdb::protocol::accept_bit(rdb::protocol::MsgType::kClientResponse);
  const std::uint32_t quorum = rdb::max_faulty(n_) + 1;
  while (!st.stop_requested()) {
    auto wire = inbox_->pop();
    if (!wire) return;
    auto verdict = rdb::protocol::validate_wire(rdb::BytesView(*wire), vctx);
    if (!verdict.ok()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Message msg = std::move(*verdict.msg).release();
    rdb::Bytes canon = msg.signing_bytes();
    if (!crypto_.verify(msg.from, rdb::BytesView(canon),
                        rdb::BytesView(msg.signature))) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const auto& resp = std::get<rdb::protocol::ClientResponse>(msg.payload);
    // Slots are published before their request is sent; a response for an
    // id that was never sent is foreign.
    if (resp.client != id_ || resp.req_id == 0 ||
        resp.req_id > sent_.load(std::memory_order_acquire) ||
        msg.from.id >= n_ || msg.from.id >= 16) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Slot& s = slots_[resp.req_id - 1];
    const std::uint32_t bit = 1u << msg.from.id;
    if (s.voted & bit) continue;  // duplicate reply
    s.voted |= bit;
    s.votes[msg.from.id] = resp.result;
    if (s.rec.decided_ns != 0) {
      if (resp.result != s.rec.result) s.rec.conflict = true;
      continue;
    }
    std::uint32_t matching = 0;
    for (std::uint32_t r = 0; r < n_; ++r)
      if ((s.voted >> r & 1u) && s.votes[r] == resp.result) ++matching;
    if (matching >= quorum) {
      s.rec.decided_ns = now_ns();
      s.rec.result = resp.result;
      for (std::uint32_t r = 0; r < n_; ++r)
        if ((s.voted >> r & 1u) && s.votes[r] != resp.result)
          s.rec.conflict = true;
      decided_.fetch_add(1, std::memory_order_release);
    }
  }
}

std::vector<OpenLoopRecord> OpenLoopClient::records() const {
  std::vector<OpenLoopRecord> out;
  for (std::size_t i = 1; i < slots_.size(); ++i) out.push_back(slots_[i].rec);
  return out;
}

std::vector<double> OpenLoopClient::lateness_ms() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < slots_.size(); ++i)
    if (slots_[i].rec.sent_ns != 0)
      out.push_back(static_cast<double>(slots_[i].rec.sent_ns -
                                        slots_[i].rec.due_ns) / 1e6);
  return out;
}

}  // namespace rtbench
