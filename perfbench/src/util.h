#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

// Measurement helpers shared by the workloads: order statistics, the
// metric report printed as the runner's last stdout line, and the
// in-memory span recorder used by traced runs.
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The q-quantile (q in [0,1]) of `v`, linearly interpolated between
/// order statistics. NaN for an empty sample.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// Arithmetic mean; NaN for an empty sample.
double Mean(const std::vector<double>& v);

/// True when a sample of `n` leaves at least `min_beyond` values above
/// the q-quantile — the rule for reporting a tail percentile at all
/// (p99 needs n >= 1000).
bool TailSupported(size_t n, double q, size_t min_beyond = 10);

/// Metric and workload names: a letter or digit first, then at most 63
/// more of [A-Za-z0-9_.-].
bool ValidName(const std::string& name);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMb();

/// Collects one run's outcome and prints it as the final JSON line.
class Report {
 public:
  /// Adds (or replaces) a metric. Aborts on an invalid name or a
  /// non-finite value: either is a benchmark bug, not a measurement.
  void Set(const std::string& name, double value, const std::string& unit);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  /// Records a failed correctness check (printed to stderr).
  void Fail(const std::string& why);

  std::string Json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

/// Spans recorded around calls into the library's layers. Each span has
/// a name, start, end and the index of the span open when it began, so
/// self time is a span's duration minus its children's. Spans live in
/// memory until the run writes them out.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  /// Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed inclusive milliseconds of every span named `name` whose
  /// start is at or after span index `from`.
  double TotalMs(const std::string& name, size_t from = 0) const;
  /// Milliseconds of span `index` not covered by its direct children.
  double SelfMs(int index) const;
  double DurationMs(int index) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Writes the recorders' spans as one Chrome trace-event file ("X"
/// events; recorder i is thread i, parent index in args).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanRecorder*>& recs);

/// RAII span on a recorder; a null recorder records nothing, so traced
/// and untraced code paths share one body.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), index_(rec ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
