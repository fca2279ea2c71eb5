// Shared pieces of the request-path benchmark: clocks, the seeded input
// generator's random source, CPU pinning, raw-sample percentiles, and the
// result every workload returns.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline int64_t CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
inline int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
inline int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

/// What one span's pair of NowNs() reads costs, from a timed loop; the
/// traced runs price their spans with it.
inline double ClockPairNs() {
  constexpr int kPairs = 100000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kPairs; ++i) {
    NowNs();
    NowNs();
  }
  return static_cast<double>(NowNs() - t0) / kPairs;
}

/// The benchmark's own random source (xoshiro256**, seeded by splitmix64),
/// so inputs depend only on --seed and never on the program's RNG code.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& s : s_) {
      seed += 0x9e3779b97f4a7c15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// Zipf(theta) over ranks [0, n) by inverse CDF, with a guide table so a
/// draw costs a couple of memory accesses instead of a binary search; rank r
/// maps to a row through a fixed multiplicative scramble so hot rows spread
/// over the key space (and hence over shards).
class ZipfRows {
 public:
  ZipfRows(int64_t n, double theta)
      : n_(n), cdf_(static_cast<size_t>(n)), guide_(kGuide + 1) {
    double sum = 0;
    for (int64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[static_cast<size_t>(r)] = sum;
    }
    for (double& c : cdf_) c /= sum;
    // guide_[k] = first rank whose cdf reaches k / kGuide.
    size_t rank = 0;
    for (size_t k = 0; k <= kGuide; ++k) {
      const double u = static_cast<double>(k) / kGuide;
      while (rank + 1 < cdf_.size() && cdf_[rank] < u) ++rank;
      guide_[k] = static_cast<int32_t>(rank);
    }
  }
  int64_t Draw(Rng* rng) const {
    const double u = rng->Unit();
    size_t rank = static_cast<size_t>(guide_[static_cast<size_t>(u * kGuide)]);
    while (rank + 1 < cdf_.size() && cdf_[rank] < u) ++rank;
    // A bijection on [0, n): 7919 is prime and does not divide n.
    return (static_cast<int64_t>(rank) * 7919 + 13) % n_;
  }

 private:
  static constexpr size_t kGuide = 1 << 16;
  int64_t n_;
  std::vector<double> cdf_;
  std::vector<int32_t> guide_;
};

/// Exact nearest-rank percentile of raw samples (sorts a copy).
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(samples.size())));
  rank = std::max<size_t>(rank, 1);
  return samples[std::min(rank, samples.size()) - 1];
}

/// The CPUs this process may run on, ascending.
inline std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread (and threads it creates later) to `cpus`.
inline void PinCurrentThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Pins every thread of this process except the caller, in creation (tid)
/// order, round-robin onto `cpus`: each busy program thread gets a CPU of
/// its own instead of wherever wake-ups happen to place it.
inline void SpreadOtherThreads(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  std::vector<pid_t> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (dirent* entry = readdir(dir)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0 && tid != self) tids.push_back(tid);
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  for (size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[i % cpus.size()], &set);
    sched_setaffinity(tids[i], sizeof(set), &set);
  }
}

/// The measured window, cut into one-second slices. Every end-to-end figure
/// is computed per slice from raw samples and reported as the median over
/// the slices, so that a few seconds of interference from outside the
/// benchmark (another tenant of the machine) cannot move it.
class Slices {
 public:
  Slices(int64_t start_ns, double seconds)
      : start_ns_(start_ns),
        count_(std::max<int>(1, static_cast<int>(std::lround(seconds)))),
        samples_(static_cast<size_t>(count_)) {}

  int count() const { return count_; }
  /// Boundaries marked so far (count() + 1 when the window is closed).
  int marks() const { return static_cast<int>(marks_.size()); }
  int64_t end_ns() const { return start_ns_ + count_ * kSliceNs; }
  bool done() const { return static_cast<int>(marks_.size()) > count_; }
  /// The boundary the owner should call Mark() at next.
  int64_t next_mark_ns() const {
    return start_ns_ + static_cast<int64_t>(marks_.size()) * kSliceNs;
  }
  /// Records the clocks at the boundary just reached: the first call opens
  /// the window, the last closes it. `client_cpu_ns` is the client's own
  /// CPU (or busy) time so far, subtracted from the process's.
  void Mark(int64_t now_ns, int64_t process_cpu_ns, int64_t client_cpu_ns) {
    marks_.push_back({now_ns, process_cpu_ns, client_cpu_ns});
  }
  /// One unit of work completed at `now_ns` after `latency_us`.
  void Complete(int64_t now_ns, double latency_us) {
    if (now_ns < start_ns_ || now_ns >= end_ns()) return;
    samples_[static_cast<size_t>((now_ns - start_ns_) / kSliceNs)].push_back(latency_us);
  }

  /// Medians over slices [first, last) of per-slice figures.
  double MedianRate(int first, int last) const {
    return Median(first, last, [&](int i) {
      return static_cast<double>(samples_[static_cast<size_t>(i)].size()) * 1e9 /
             static_cast<double>(At(i + 1).wall - At(i).wall);
    });
  }
  double MedianPercentile(int first, int last, double p) const {
    return Median(first, last,
                  [&](int i) { return Percentile(samples_[static_cast<size_t>(i)], p); });
  }
  /// Program CPU microseconds per completed unit.
  double MedianCpuUsPerUnit(int first, int last) const {
    return Median(first, last, [&](int i) {
      const Clocks &a = At(i), &b = At(i + 1);
      const double units =
          static_cast<double>(std::max<size_t>(samples_[static_cast<size_t>(i)].size(), 1));
      return static_cast<double>((b.process - a.process) - (b.client - a.client)) / 1e3 / units;
    });
  }
  int64_t units(int first, int last) const {
    int64_t n = 0;
    for (int i = first; i < last; ++i) n += static_cast<int64_t>(samples_[static_cast<size_t>(i)].size());
    return n;
  }
  /// All samples of slices [first, last), for whole-window figures.
  std::vector<double> Samples(int first, int last) const {
    std::vector<double> all;
    for (int i = first; i < last; ++i) {
      all.insert(all.end(), samples_[static_cast<size_t>(i)].begin(),
                 samples_[static_cast<size_t>(i)].end());
    }
    return all;
  }

 private:
  static constexpr int64_t kSliceNs = 1000000000;
  struct Clocks {
    int64_t wall = 0, process = 0, client = 0;
  };
  const Clocks& At(int i) const { return marks_[static_cast<size_t>(i)]; }
  template <typename Fn>
  double Median(int first, int last, Fn figure) const {
    std::vector<double> values;
    for (int i = first; i < last && i + 1 < static_cast<int>(marks_.size()); ++i) {
      values.push_back(figure(i));
    }
    return Percentile(std::move(values), 0.5);
  }

  int64_t start_ns_;
  int count_;
  std::vector<std::vector<double>> samples_;
  std::vector<Clocks> marks_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int64_t process_start_ns = 0;
  std::vector<int> cpus;  ///< the CPUs the process may use, read at start
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, for stderr
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Problem(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

/// Warm-up before every measured interval.
constexpr double kWarmupSeconds = 1.0;
/// Rows of the user table (the paper's 100k).
constexpr int64_t kRows = 100000;

RunResult RunHttpTenantsOpen(const RunOptions& options);
RunResult RunBinaryPipelinedClosed(const RunOptions& options);
RunResult RunSchedSkewedDurable(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
