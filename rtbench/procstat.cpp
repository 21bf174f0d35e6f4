#include "procstat.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>

namespace rtbench {

std::vector<int> list_tids() {
  std::vector<int> out;
  DIR* d = opendir("/proc/self/task");
  if (!d) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    out.push_back(std::atoi(e->d_name));
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> new_tids(const std::vector<int>& before,
                          const std::vector<int>& after) {
  std::vector<int> out;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(out));
  return out;
}

std::optional<ThreadTimes> read_thread_times(int tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%d/schedstat", tid);
  std::ifstream in(path);
  ThreadTimes t;
  if (!(in >> t.cpu_ns >> t.runq_ns)) return std::nullopt;
  return t;
}

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string stage_of(const std::string& thread_name) {
  return thread_name.substr(0, thread_name.find('-'));
}

std::vector<StageThread> map_stage_threads(
    const std::vector<int>& created,
    const std::vector<std::string>& sat_names) {
  if (created.size() != sat_names.size() + 1) return {};
  std::vector<StageThread> out;
  for (std::size_t i = 0; i < sat_names.size(); ++i)
    out.push_back({sat_names[i], stage_of(sat_names[i]), created[i], true});
  out.push_back({"timer", "timer", created.back(), false});
  return out;
}

}  // namespace rtbench
