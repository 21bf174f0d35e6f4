#include "gate.h"

#include <thread>

namespace rtbench {

namespace {

std::string hex8(const rdb::Digest& d) {
  static const char* k = "0123456789abcdef";
  std::string s;
  for (int i = 0; i < 4; ++i) {
    s += k[d.data[i] >> 4];
    s += k[d.data[i] & 15];
  }
  return s;
}

void check_stats(std::uint32_t id, const rdb::runtime::ReplicaStats& s,
                 std::vector<std::string>& out) {
  if (s.invalid_signatures != 0)
    out.push_back("replica " + std::to_string(id) + ": " +
                  std::to_string(s.invalid_signatures) + " invalid signatures");
  if (s.rejected_total != 0)
    out.push_back("replica " + std::to_string(id) + ": " +
                  std::to_string(s.rejected_total) + " rejected frames");
  if (s.exec_divergence != 0)
    out.push_back("replica " + std::to_string(id) + ": execution diverged");
}

}  // namespace

std::vector<std::string> run_gate(BenchCluster& cluster, const GateInput& in) {
  std::vector<std::string> out;
  const std::uint32_t n = cluster.n();
  std::vector<std::uint32_t> live;
  for (std::uint32_t r = 0; r < n; ++r)
    if (cluster.replica(r)) live.push_back(r);

  // Quiesce: every live replica at the same executed height, unchanged
  // across two polls 100 ms apart.
  auto heights = [&] {
    std::vector<rdb::SeqNum> h;
    for (auto r : live) h.push_back(cluster.replica(r)->last_executed());
    return h;
  };
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  std::vector<rdb::SeqNum> prev = heights();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto cur = heights();
    bool equal = std::adjacent_find(cur.begin(), cur.end(),
                                    std::not_equal_to<>()) == cur.end();
    if (equal && cur == prev) break;
    if (std::chrono::steady_clock::now() > deadline) {
      out.push_back("live replicas did not converge on one executed height");
      break;
    }
    prev = cur;
  }
  cluster.stop_replicas();

  // Chains and execution fingerprints.
  const auto& c0 = cluster.replica(live[0])->chain();
  for (auto r : live) {
    const auto& c = cluster.replica(r)->chain();
    if (c.last_seq() != c0.last_seq()) continue;  // reported above
    if (c.accumulator() != c0.accumulator())
      out.push_back("replica " + std::to_string(r) + ": chain accumulator " +
                    hex8(c.accumulator()) + " != " + hex8(c0.accumulator()) +
                    " at height " + std::to_string(c.last_seq()));
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      const auto& a = cluster.replica(live[i])->exec_fingerprints();
      const auto& b = cluster.replica(live[j])->exec_fingerprints();
      for (const auto& [seq, fp] : a) {
        auto it = b.find(seq);
        if (it != b.end() && it->second != fp)
          out.push_back("replicas " + std::to_string(live[i]) + "/" +
                        std::to_string(live[j]) +
                        ": execution fingerprints differ at checkpoint " +
                        std::to_string(seq));
      }
    }
  }

  // Replica health and views.
  for (auto r : live) {
    auto* rep = cluster.replica(r);
    check_stats(r, rep->stats(), out);
    if (rep->diverged())
      out.push_back("replica " + std::to_string(r) + ": diverged()");
    if (!in.expect_view_change && rep->view() != 0)
      out.push_back("replica " + std::to_string(r) + ": unexpected view " +
                    std::to_string(rep->view()));
    if (in.expect_view_change && rep->view() == 0)
      out.push_back("replica " + std::to_string(r) +
                    ": still in view 0 after the primary was killed");
  }
  for (const auto& [id, stats] : in.killed) check_stats(id, stats, out);

  // Decided results against what the replicas executed.
  const std::uint32_t quorum = rdb::max_faulty(n) + 1;
  std::size_t bad = 0;
  for (const auto& d : in.decided) {
    std::uint32_t agree = 0;
    bool conflict = false;
    for (std::uint32_t r = 0; r < n; ++r) {
      auto v = cluster.results(r).get(d.client, d.req);
      if (!v) continue;
      if (*v == d.result)
        ++agree;
      else
        conflict = true;
    }
    bool wrong_value = in.write_only && d.result != in.ops_per_txn;
    if (agree < quorum || conflict || wrong_value) {
      if (++bad <= 5)
        out.push_back("txn (" + std::to_string(d.client) + "," +
                      std::to_string(d.req) + "): decided " +
                      std::to_string(d.result) + ", executed by " +
                      std::to_string(agree) + " replicas with that value" +
                      (conflict ? ", another value elsewhere" : "") +
                      (wrong_value ? ", expected the op count" : ""));
    }
  }
  if (bad > 5)
    out.push_back(std::to_string(bad - 5) + " more decided-result violations");
  return out;
}

}  // namespace rtbench
