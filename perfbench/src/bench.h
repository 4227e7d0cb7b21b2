// Shared plumbing of the repo benchmark: clocks, order statistics, the
// metric/failure report printed as the final JSON line, the in-memory span
// log of traced runs, and peak-memory reads.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one. Takes a copy, so callers keep their sample order.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// CPU time the hypervisor has stolen from this machine so far, summed over
/// CPUs, in clock ticks (/proc/stat); 0 where the kernel does not report
/// it. Windows that saw it grow are dropped from the timing medians.
uint64_t StealTicks();

/// Per-window values of one metric, split by whether the window was clean
/// (see StealTicks). Value() is the median over clean windows, or
/// over all windows when none was clean.
class WindowValues {
 public:
  void Add(double v, bool clean) {
    all_.push_back(v);
    if (clean) clean_.push_back(v);
  }
  double Value() const { return Median(clean_.empty() ? all_ : clean_); }
  size_t clean() const { return clean_.size(); }

 private:
  std::vector<double> clean_, all_;
};

/// What one invocation was asked to do.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scaled-down inputs for the benchmark's own self-check (not a
  /// measurement: metric names and units are what it verifies).
  bool small = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

/// Metrics, operation counts and failure reasons of one run; Json() is the
/// final stdout line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts `count` failed operations; the first few reasons go to stderr.
  void Fail(const std::string& reason, uint64_t count = 1);
  /// Marks the run incorrect without an operation failing (a claim-level
  /// check such as the reproduction's ordering).
  void Invalidate(const std::string& reason);

  bool correct() const { return failed_ == 0 && invalid_.empty(); }
  /// Adds `other`'s operations, failures and invalid reasons to this
  /// report, and its metrics where this report has none of that name.
  void Absorb(const Report& other);
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> invalid_;
};

/// One span recorded by the benchmark around a call into a layer. Spans of
/// one request share `request_id`; `parent` names the enclosing span (empty
/// for a root).
struct Span {
  const char* name = "";
  const char* parent = "";
  uint64_t request_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// In-memory span sink for traced runs. Each recording thread owns a
/// Buffer (no locking on the recording path); buffers are merged and
/// written as JSONL when the run ends.
class SpanLog {
 public:
  class Buffer {
   public:
    void Add(const char* name, const char* parent, uint64_t request_id,
             uint64_t start_ns, uint64_t end_ns) {
      spans_.push_back({name, parent, request_id, start_ns, end_ns});
    }

   private:
    friend class SpanLog;
    std::vector<Span> spans_;
  };

  /// A buffer for one recording thread; stable until the log dies.
  Buffer* NewBuffer(size_t reserve = 1 << 16);
  /// Writes every span, one JSON object per line. Returns false on I/O
  /// failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Relative cost of tracing, in percent, from one end-to-end metric read
/// without and with tracing; positive means the traced run did worse.
double OverheadPct(double untraced, double traced, bool higher_better);

/// Microsecond durations of the program's own TraceLog spans named `name`
/// (lines in the `{"bench":"span/<name>","dur_us":...}` convention).
std::vector<double> ProgramSpanDurationsUs(const std::vector<std::string>& lines,
                                           const std::string& name);

// Workload entry points (one translation unit each).
void RunWireOpen(const RunOptions& opts, Report* report);
void RunPublish1m(const RunOptions& opts, Report* report);
void RunReproduce(const RunOptions& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
