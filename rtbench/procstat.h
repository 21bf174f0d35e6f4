// Process and per-thread accounting from /proc and getrusage: thread CPU and
// run-queue wait (schedstat), process CPU, peak RSS, and the tid -> pipeline
// stage mapping built by snapshotting /proc/self/task around Replica::start().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rtbench {

struct ThreadTimes {
  std::uint64_t cpu_ns{0};   // time on CPU
  std::uint64_t runq_ns{0};  // time runnable but waiting for a CPU
};

/// Live thread ids of this process, ascending (creation order).
std::vector<int> list_tids();
/// Thread ids in `after` that are not in `before`, ascending.
std::vector<int> new_tids(const std::vector<int>& before,
                          const std::vector<int>& after);
/// /proc/self/task/<tid>/schedstat; nullopt once the thread has exited.
std::optional<ThreadTimes> read_thread_times(int tid);
int current_tid();

/// User + system CPU of the whole process, in seconds.
double process_cpu_s();
/// Peak resident set size of the process, in MiB.
double peak_rss_mb();

/// One pipeline thread of a replica: `name` as thread_saturations() reports
/// it ("batch-1"), `stage` with the index stripped ("batch"); the timer
/// thread has no saturation entry and is named "timer".
struct StageThread {
  std::string name;
  std::string stage;
  int tid{0};
  bool has_busy{true};  // false for the timer (no busy counter)
};

/// Matches the tids a Replica::start() created, in creation order, to the
/// saturation names (which follow creation order), with the timer last.
/// Returns an empty vector when the counts differ (sat_names.size() + 1 tids
/// are expected).
std::vector<StageThread> map_stage_threads(
    const std::vector<int>& created, const std::vector<std::string>& sat_names);

std::string stage_of(const std::string& thread_name);

}  // namespace rtbench
