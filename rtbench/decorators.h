// Pass-through timing decorators for the runtime's public seams: Transport,
// KvStore, storage::Env/File and ExecuteFn. Each forwards every call to the
// wrapped object unchanged and adds its duration and size to the Trace's
// layer counters; calls made for a sampled request also record a span.
#pragma once

#include <memory>

#include "runtime/replica.h"
#include "runtime/transport_iface.h"
#include "storage/env.h"
#include "storage/kv_store.h"
#include "trace.h"

namespace rtbench {

class TimedTransport final : public rdb::runtime::Transport {
 public:
  TimedTransport(rdb::runtime::Transport& inner, Trace& trace,
                 std::int32_t node)
      : inner_(inner), trace_(trace), node_(node) {}

  void register_endpoint(rdb::Endpoint ep,
                         std::shared_ptr<Inbox> inbox) override {
    inner_.register_endpoint(ep, std::move(inbox));
  }
  void send(rdb::Endpoint to, const rdb::protocol::Message& msg) override;
  void send_raw(rdb::Endpoint to, rdb::Bytes wire) override;
  void send_frame(rdb::Endpoint from, rdb::Endpoint to,
                  rdb::FrameView frame) override;

 private:
  void count(std::size_t bytes, std::int64_t start);

  rdb::runtime::Transport& inner_;
  Trace& trace_;
  std::int32_t node_;
};

class TimedStore final : public rdb::storage::KvStore {
 public:
  TimedStore(std::unique_ptr<rdb::storage::KvStore> inner, Trace& trace,
             std::int32_t node)
      : inner_(std::move(inner)), trace_(trace), node_(node) {}

  void put(std::string_view key, std::string_view value) override;
  std::optional<std::string> get(std::string_view key) override;
  bool contains(std::string_view key) override {
    return inner_->contains(key);
  }
  std::uint64_t size() const override { return inner_->size(); }
  rdb::storage::StoreStats stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }
  void for_each(const VisitFn& fn) override { inner_->for_each(fn); }
  void clear() override { inner_->clear(); }
  bool durable() const override { return inner_->durable(); }
  void commit_wave() override;
  void checkpoint() override { inner_->checkpoint(); }

 private:
  std::unique_ptr<rdb::storage::KvStore> inner_;
  Trace& trace_;
  std::int32_t node_;
};

class TimedFile final : public rdb::storage::File {
 public:
  TimedFile(std::unique_ptr<rdb::storage::File> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::size_t read(std::uint64_t offset, void* out, std::size_t n) override {
    return inner_->read(offset, out, n);
  }
  void write(std::uint64_t offset, const void* data, std::size_t n) override;
  void sync() override;
  std::uint64_t size() override { return inner_->size(); }
  void truncate(std::uint64_t len) override { inner_->truncate(len); }

 private:
  std::unique_ptr<rdb::storage::File> inner_;
  Trace& trace_;
};

class TimedEnv final : public rdb::storage::Env {
 public:
  TimedEnv(rdb::storage::Env& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  std::unique_ptr<rdb::storage::File> open(const std::string& path) override {
    return std::make_unique<TimedFile>(inner_.open(path), trace_);
  }
  bool exists(const std::string& path) override {
    return inner_.exists(path);
  }
  void remove(const std::string& path) override { inner_.remove(path); }
  void rename(const std::string& from, const std::string& to) override {
    inner_.rename(from, to);
  }
  void make_dirs(const std::string& path) override { inner_.make_dirs(path); }

 private:
  rdb::storage::Env& inner_;
  Trace& trace_;
};

/// Wraps an ExecuteFn: counts calls and self time (duration minus the timed
/// storage calls made inside it) and records a span for sampled requests.
/// `*self` (the replica, set before start()) is read at call time so the
/// span names whether the primary or a backup executed.
rdb::runtime::ExecuteFn timed_execute(rdb::runtime::ExecuteFn inner,
                                      Trace& trace, std::int32_t node,
                                      const rdb::runtime::Replica* const* self);

}  // namespace rtbench
