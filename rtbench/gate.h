// Correctness gate run after every measured phase. Any violation makes the
// run exit non-zero without reporting metrics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "assembly.h"

namespace rtbench {

struct Decided {
  rdb::ClientId client{0};
  rdb::RequestId req{0};
  std::uint64_t result{0};
};

struct GateInput {
  std::vector<Decided> decided;  // every result a client accepted
  bool write_only{true};         // results must equal the txn's op count
  std::uint32_t ops_per_txn{1};
  bool expect_view_change{false};
  /// Stats of a killed replica, taken just before the kill.
  std::vector<std::pair<std::uint32_t, rdb::runtime::ReplicaStats>> killed;
};

/// Waits for the live replicas to agree on their executed height, stops
/// them, then checks:
///  - chain accumulators agree at the common height;
///  - execution fingerprints agree at shared checkpoint boundaries;
///  - every decided result was executed with that value by at least f+1
///    replicas and with no other value by any, and equals the op count for
///    write-only workloads;
///  - invalid_signatures, rejected_total and diverged() are zero;
///  - no view change happened, unless one was expected (then every live
///    replica is past view 0).
std::vector<std::string> run_gate(BenchCluster& cluster, const GateInput& in);

}  // namespace rtbench
