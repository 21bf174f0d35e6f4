// Tracing for the runtime benchmark's traced run: a preallocated span buffer
// (1-in-N request sampling, thread-local parent links, written out when the
// run ends) and unsampled per-layer counters that the timing decorators
// bump on every call. Nothing here is compiled into src/; spans wrap calls
// into each layer's public functions from the benchmark's own files.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace rtbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The (client, req_id) pair that identifies one transaction in every layer.
inline std::uint64_t req_key(rdb::ClientId client, rdb::RequestId req) {
  return (static_cast<std::uint64_t>(client) << 40) | (req & ((1ull << 40) - 1));
}

struct Span {
  const char* name{nullptr};  // static string
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t id{0};
  std::uint32_t parent{0};  // 0 = root
  std::int32_t node{-1};    // replica id, or -1 for client-side spans
  std::uint64_t req{0};
};

/// Cumulative layer counters, bumped only by the timing decorators (so they
/// move only in the traced run).
enum Counter : std::size_t {
  kTransportMsgs,
  kTransportBytes,
  kTransportSendNs,
  kStorePuts,
  kStorePutNs,
  kStoreGets,
  kStoreGetNs,
  kStoreWaves,
  kStoreWaveNs,
  kEnvWriteBytes,
  kEnvSyncs,
  kExecCalls,
  kExecSelfNs,
  kClientSigns,
  kClientSignNs,
  kCounterCount,
};
using CounterSnapshot = std::array<std::uint64_t, kCounterCount>;

class Trace {
 public:
  Trace(std::size_t span_capacity, std::uint32_t sample_every);

  bool sampled(std::uint64_t req) const;
  /// Appends a finished span; dropped (and counted) once the buffer is full.
  void record(const Span& s);
  std::uint32_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Spans recorded so far (call after the traced threads have stopped).
  std::vector<Span> spans() const;
  std::uint64_t dropped() const { return dropped_.load(); }
  bool write_tsv(const std::string& path) const;

  void add(Counter c, std::uint64_t v) {
    counters_[c].fetch_add(v, std::memory_order_relaxed);
  }
  CounterSnapshot counters() const;

  /// fsync durations of the window, in ns (few per second: a mutex is fine).
  void add_sync_ns(std::uint64_t ns);
  std::vector<double> sync_ms() const;
  void clear_sync_samples();

 private:
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
  std::vector<Span> buf_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint32_t> next_id_{0};
  std::uint32_t sample_every_;
  mutable std::mutex sync_mu_;
  std::vector<double> sync_ms_;
};

/// RAII span for a sampled request. The thread-local current span becomes
/// the parent of spans opened inside it; the request id is inherited by
/// nested spans, so storage calls made under a sampled execute are traced.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, std::int32_t node,
             std::uint64_t req);
  /// Child span that inherits the enclosing sampled request, if any.
  ScopedSpan(Trace* trace, const char* name, std::int32_t node);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  Span span_;
  std::uint32_t saved_parent_{0};
  std::uint64_t saved_req_{0};
};

/// Nanoseconds spent in timed storage calls on this thread; the execute
/// decorator subtracts the part inside its own interval to get self time.
std::uint64_t& thread_child_ns();

}  // namespace rtbench
