#include "decorators.h"

namespace rtbench {

using rdb::protocol::ClientRequest;
using rdb::protocol::ClientResponse;

void TimedTransport::count(std::size_t bytes, std::int64_t start) {
  trace_.add(kTransportMsgs, 1);
  trace_.add(kTransportBytes, bytes);
  trace_.add(kTransportSendNs, static_cast<std::uint64_t>(now_ns() - start));
}

void TimedTransport::send(rdb::Endpoint to, const rdb::protocol::Message& msg) {
  // Client traffic carries the request id every layer shares: trace the
  // send of a sampled response, and of the first sampled txn of a request.
  std::uint64_t req = 0;
  if (const auto* resp = std::get_if<ClientResponse>(&msg.payload)) {
    req = req_key(resp->client, resp->req_id);
  } else if (const auto* creq = std::get_if<ClientRequest>(&msg.payload)) {
    for (const auto& t : creq->txns) {
      if (trace_.sampled(req_key(t.client, t.req_id))) {
        req = req_key(t.client, t.req_id);
        break;
      }
    }
  }
  std::int64_t start = now_ns();
  {
    ScopedSpan span(req ? &trace_ : nullptr, "transport.send", node_, req);
    inner_.send(to, msg);
  }
  count(msg.wire_size(), start);
}

void TimedTransport::send_raw(rdb::Endpoint to, rdb::Bytes wire) {
  std::size_t bytes = wire.size();
  std::int64_t start = now_ns();
  inner_.send_raw(to, std::move(wire));
  count(bytes, start);
}

void TimedTransport::send_frame(rdb::Endpoint from, rdb::Endpoint to,
                                rdb::FrameView frame) {
  std::size_t bytes = frame.size();
  std::int64_t start = now_ns();
  inner_.send_frame(from, to, std::move(frame));
  count(bytes, start);
}

void TimedStore::put(std::string_view key, std::string_view value) {
  std::int64_t start = now_ns();
  {
    ScopedSpan span(&trace_, "storage.put", node_);
    inner_->put(key, value);
  }
  auto ns = static_cast<std::uint64_t>(now_ns() - start);
  thread_child_ns() += ns;
  trace_.add(kStorePuts, 1);
  trace_.add(kStorePutNs, ns);
}

std::optional<std::string> TimedStore::get(std::string_view key) {
  std::int64_t start = now_ns();
  std::optional<std::string> out;
  {
    ScopedSpan span(&trace_, "storage.get", node_);
    out = inner_->get(key);
  }
  auto ns = static_cast<std::uint64_t>(now_ns() - start);
  thread_child_ns() += ns;
  trace_.add(kStoreGets, 1);
  trace_.add(kStoreGetNs, ns);
  return out;
}

void TimedStore::commit_wave() {
  std::int64_t start = now_ns();
  inner_->commit_wave();
  trace_.add(kStoreWaves, 1);
  trace_.add(kStoreWaveNs, static_cast<std::uint64_t>(now_ns() - start));
}

void TimedFile::write(std::uint64_t offset, const void* data, std::size_t n) {
  inner_->write(offset, data, n);
  trace_.add(kEnvWriteBytes, n);
}

void TimedFile::sync() {
  std::int64_t start = now_ns();
  inner_->sync();
  trace_.add(kEnvSyncs, 1);
  trace_.add_sync_ns(static_cast<std::uint64_t>(now_ns() - start));
}

rdb::runtime::ExecuteFn timed_execute(
    rdb::runtime::ExecuteFn inner, Trace& trace, std::int32_t node,
    const rdb::runtime::Replica* const* self) {
  return [inner = std::move(inner), &trace, node, self](
             const rdb::protocol::Transaction& txn,
             rdb::storage::KvStore& store) {
    const bool primary = *self != nullptr && (*self)->is_primary();
    std::uint64_t child_before = thread_child_ns();
    std::int64_t start = now_ns();
    std::uint64_t result;
    {
      ScopedSpan span(&trace,
                      primary ? "workload.execute.primary"
                              : "workload.execute.backup",
                      node, req_key(txn.client, txn.req_id));
      result = inner(txn, store);
    }
    auto total = static_cast<std::uint64_t>(now_ns() - start);
    std::uint64_t child = thread_child_ns() - child_before;
    trace.add(kExecCalls, 1);
    trace.add(kExecSelfNs, total > child ? total - child : 0);
    return result;
  };
}

}  // namespace rtbench
