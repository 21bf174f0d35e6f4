#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace rtbench {
namespace {

thread_local std::uint32_t t_parent = 0;
thread_local std::uint64_t t_req = 0;  // 0 = no sampled request open
thread_local std::uint64_t t_child_ns = 0;

}  // namespace

std::uint64_t& thread_child_ns() { return t_child_ns; }

CounterSnapshot Trace::counters() const {
  CounterSnapshot out{};
  for (std::size_t i = 0; i < kCounterCount; ++i)
    out[i] = counters_[i].load(std::memory_order_relaxed);
  return out;
}

Trace::Trace(std::size_t span_capacity, std::uint32_t sample_every)
    : buf_(span_capacity), sample_every_(sample_every ? sample_every : 1) {
  sync_ms_.reserve(1 << 16);
}

bool Trace::sampled(std::uint64_t req) const {
  // Fibonacci hashing spreads consecutive request ids over the buckets.
  return ((req * 0x9E3779B97F4A7C15ull) >> 40) % sample_every_ == 0;
}

void Trace::record(const Span& s) {
  std::size_t i = used_.fetch_add(1, std::memory_order_relaxed);
  if (i >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf_[i] = s;
}

std::vector<Span> Trace::spans() const {
  std::size_t n = std::min(used_.load(), buf_.size());
  return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n)};
}

bool Trace::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "id\tparent\tname\tnode\treq\tstart_ns\tend_ns\n");
  for (const Span& s : spans())
    std::fprintf(f, "%u\t%u\t%s\t%d\t%" PRIu64 "\t%" PRId64 "\t%" PRId64 "\n",
                 s.id, s.parent, s.name, s.node, s.req, s.start_ns, s.end_ns);
  return std::fclose(f) == 0;
}

void Trace::add_sync_ns(std::uint64_t ns) {
  std::lock_guard lock(sync_mu_);
  sync_ms_.push_back(static_cast<double>(ns) / 1e6);
}

std::vector<double> Trace::sync_ms() const {
  std::lock_guard lock(sync_mu_);
  return sync_ms_;
}

void Trace::clear_sync_samples() {
  std::lock_guard lock(sync_mu_);
  sync_ms_.clear();
}

ScopedSpan::ScopedSpan(Trace* trace, const char* name, std::int32_t node,
                       std::uint64_t req)
    : trace_(trace && trace->sampled(req) ? trace : nullptr) {
  if (!trace_) return;
  span_.name = name;
  span_.node = node;
  span_.req = req;
  span_.id = trace_->next_id();
  span_.parent = t_parent;
  saved_parent_ = t_parent;
  saved_req_ = t_req;
  t_parent = span_.id;
  t_req = req;
  span_.start_ns = now_ns();
}

ScopedSpan::ScopedSpan(Trace* trace, const char* name, std::int32_t node)
    : trace_(trace && t_req != 0 ? trace : nullptr) {
  if (!trace_) return;
  span_.name = name;
  span_.node = node;
  span_.req = t_req;
  span_.id = trace_->next_id();
  span_.parent = t_parent;
  saved_parent_ = t_parent;
  saved_req_ = t_req;
  t_parent = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!trace_) return;
  span_.end_ns = now_ns();
  t_parent = saved_parent_;
  t_req = saved_req_;
  trace_->record(span_);
}

}  // namespace rtbench
