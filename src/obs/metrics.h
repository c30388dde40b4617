#ifndef AUTODC_OBS_METRICS_H_
#define AUTODC_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

// Process-wide, thread-safe metrics for the whole library (the
// "instrumented, auditable curation runs" substrate — see DESIGN.md
// "Observability layer"). Three metric kinds:
//
//   * Counter   — monotonically increasing event count. The write path
//     is lock-free: each thread increments its own cache-line-padded
//     shard (a relaxed fetch_add on a line no other writer touches in
//     steady state), and shards are summed only at snapshot time.
//   * Gauge     — last-write-wins double (queue depths, loss values,
//     pool occupancy). A single relaxed atomic.
//   * Histogram — fixed upper-exclusive buckets plus count/sum/min/max.
//     Recorded at batch/task/epoch granularity, so plain relaxed
//     fetch_adds on shared atomics are cheap enough.
//
// Registration (GetCounter/GetGauge/GetHistogram) takes a mutex and is
// expected to happen once per call site — the AUTODC_OBS_* macros below
// cache the returned pointer in a function-local static. Returned
// pointers are valid for the process lifetime: the registry never
// deletes a metric (ResetValues() zeroes in place).
//
// Compile-time kill switch: building with -DAUTODC_DISABLE_OBS (cmake
// -DAUTODC_DISABLE_OBS=ON) turns every AUTODC_OBS_* macro into ((void)0)
// and every Span/ScopedTimer into an empty object, so instrumented code
// carries zero overhead. The registry classes themselves stay available
// in both modes. Runtime pause: SetEnabled(false) makes the record paths
// early-return (the A/B switch bench_obs uses to price instrumentation).
namespace autodc::obs {

// ---- Runtime enable switch -------------------------------------------

namespace internal {
inline std::atomic<bool> g_enabled{true};

/// This thread's shard index in [0, kSlots). Assigned round-robin on
/// first use; threads never share a slot while fewer than kSlots threads
/// have ever started, and a collision merely shares a fetch_add target
/// (still correct, still data-race-free).
inline constexpr size_t kSlots = 64;
int AssignSlot();
extern constinit thread_local int t_slot;
inline size_t Slot() {
  int s = t_slot;
  return static_cast<size_t>(s >= 0 ? s : AssignSlot());
}

inline void AtomicAddDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
inline void AtomicMinDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
inline void AtomicMaxDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace internal

/// True when recording is live (the default). Snapshots work either way.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
/// Pauses/resumes all metric recording at runtime (bench A/B switch).
inline void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

// ---- Metric kinds -----------------------------------------------------

/// Monotonic event counter, sharded per thread.
class Counter {
 public:
  void Add(uint64_t n) {
    if (!Enabled()) return;
    cells_[internal::Slot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  /// Sum over all shards. Monotonic between ResetValues() calls.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

  // One cache line per shard: a thread's increments stay exclusive to
  // its own line, so the fetch_add never bounces in steady state.
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::string name_;
  Cell cells_[internal::kSlots];
};

/// Last-write-wins double.
class Gauge {
 public:
  void Set(double v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double v) {
    if (!Enabled()) return;
    internal::AtomicAddDouble(&value_, v);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts values in
/// [bounds[i-1], bounds[i]); the final bucket is the >= bounds.back()
/// overflow. Also tracks count, sum, min, and max exactly.
class Histogram {
 public:
  void Record(double v);

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// NaN before the first Record.
  double Min() const;
  double Max() const;
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> BucketCounts() const;
  const std::string& name() const { return name_; }

  /// The default bounds: decades of milliseconds, 10us .. 100s.
  static std::vector<double> DefaultBoundsMs();

  /// Geometric (log-scale) bounds: `per_decade` upper bounds in every
  /// decade of [lo, hi]. Unlike the decade-wide defaults, these resolve
  /// tail quantiles to ~1/per_decade of a decade instead of collapsing
  /// a whole decade of latencies into one bucket.
  static std::vector<double> LogBounds(double lo, double hi, int per_decade);

  /// Log-scale preset for microsecond-valued latency histograms:
  /// 1us .. 10s at 4 buckets per decade (29 bounds). The serve-layer
  /// latency/wait histograms record in us and use this.
  static std::vector<double> LogBoundsUs();

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<double> bounds);
  void Reset();

  std::string name_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// ---- Labeled metrics --------------------------------------------------

class MetricsRegistry;

/// Cardinality cap a labeled metric defaults to. Past the cap, every
/// unseen label value is folded into one `_other` child, so a tenant
/// id chosen by traffic can never grow the registry without bound.
inline constexpr size_t kDefaultLabelCardinality = 32;

/// The label value overflow children are registered under.
inline constexpr const char* kLabelOverflow = "_other";

/// The composed registry name of one labeled child:
/// `base{key=value}` — e.g. `serve.completed{tenant=acme}`. Children
/// are ordinary registry metrics, so every existing snapshot/export
/// path breaks them down with zero new machinery.
std::string LabeledMetricName(const std::string& base, const std::string& key,
                              const std::string& value);

/// One label dimension over Counters: `WithLabel(v)` resolves (and on
/// first sight registers) the child counter `base{key=v}`. The resolve
/// path takes a shared lock over a small hash map — no global registry
/// mutex, and writer threads never contend with each other once the
/// children they touch exist. Cardinality is bounded at construction;
/// children past the cap alias the `_other` overflow child.
class LabeledCounter {
 public:
  Counter* WithLabel(const std::string& value);
  /// Distinct non-overflow children registered so far.
  size_t cardinality() const;
  const std::string& base() const { return base_; }

 private:
  friend class MetricsRegistry;
  LabeledCounter(MetricsRegistry* reg, std::string base, std::string key,
                 size_t max_cardinality);
  Counter* Materialize(const std::string& value);

  MetricsRegistry* reg_;
  std::string base_;
  std::string key_;
  size_t max_cardinality_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Counter*> children_;
  Counter* overflow_ = nullptr;
};

/// LabeledCounter's shape over Histograms; all children share the
/// bounds given at registration.
class LabeledHistogram {
 public:
  Histogram* WithLabel(const std::string& value);
  size_t cardinality() const;
  const std::string& base() const { return base_; }

 private:
  friend class MetricsRegistry;
  LabeledHistogram(MetricsRegistry* reg, std::string base, std::string key,
                   std::vector<double> bounds, size_t max_cardinality);
  Histogram* Materialize(const std::string& value);

  MetricsRegistry* reg_;
  std::string base_;
  std::string key_;
  std::vector<double> bounds_;
  size_t max_cardinality_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Histogram*> children_;
  Histogram* overflow_ = nullptr;
};

// ---- Snapshot ---------------------------------------------------------

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  double value = 0.0;
};
struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> counts;  // bounds.size() + 1 (overflow last)
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // NaN when count == 0
  double max = 0.0;  // NaN when count == 0
};

/// One merged, name-sorted view of every metric in the registry.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(const std::string& name) const;
  const GaugeSample* FindGauge(const std::string& name) const;
  const HistogramSample* FindHistogram(const std::string& name) const;
};

// ---- Registry ---------------------------------------------------------

class MetricsRegistry {
 public:
  /// The process-wide registry (leaky singleton; installs the
  /// AUTODC_METRICS exit dump on first use).
  static MetricsRegistry& Global();

  /// Get-or-create. Pointers remain valid for the process lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` (ascending upper bounds) apply only on first registration;
  /// empty means Histogram::DefaultBoundsMs().
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// Labeled get-or-create, keyed by (base, label key). Cardinality and
  /// bounds apply only on first registration. Children live in this
  /// registry under `base{key=value}` names.
  LabeledCounter* GetLabeledCounter(
      const std::string& base, const std::string& label_key,
      size_t max_cardinality = kDefaultLabelCardinality);
  LabeledHistogram* GetLabeledHistogram(
      const std::string& base, const std::string& label_key,
      std::vector<double> bounds = {},
      size_t max_cardinality = kDefaultLabelCardinality);

  /// Non-creating lookups (nullptr when the name was never registered).
  /// Introspection paths use these so that *observing* a metric never
  /// fabricates it.
  Counter* FindCounter(const std::string& name) const;
  Gauge* FindGauge(const std::string& name) const;
  Histogram* FindHistogram(const std::string& name) const;

  /// Registers a hook run at the start of every Snapshot() — the way
  /// subsystems with their own internal stats (TensorPool, ThreadPool)
  /// publish gauges without paying anything on their hot paths.
  void AddCollector(std::function<void()> fn);

  /// Runs collectors, then merges every metric into one sorted snapshot.
  MetricsSnapshot Snapshot();

  /// Zeroes every metric value in place. Registrations, pointers, and
  /// collectors survive — this is the test/bench reset, not a teardown.
  void ResetValues();

  size_t num_metrics() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // std::map keeps name order, so snapshots come out sorted for free.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // Keyed by base + '\0' + label key (names alone could collide with a
  // plain metric). Children live in the maps above.
  std::map<std::string, std::unique_ptr<LabeledCounter>> labeled_counters_;
  std::map<std::string, std::unique_ptr<LabeledHistogram>> labeled_histograms_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace autodc::obs

// ---- Instrumentation macros ------------------------------------------
// The only way library code should record metrics with static names:
// each expansion caches its metric pointer in a function-local static,
// so steady state is one branch + one relaxed atomic op. All of them
// compile to nothing under AUTODC_DISABLE_OBS.

#ifdef AUTODC_DISABLE_OBS

#define AUTODC_OBS_COUNT(name, n) ((void)0)
#define AUTODC_OBS_INC(name) ((void)0)
#define AUTODC_OBS_GAUGE_SET(name, v) ((void)0)
#define AUTODC_OBS_GAUGE_ADD(name, v) ((void)0)
#define AUTODC_OBS_HIST(name, v) ((void)0)

#else  // !AUTODC_DISABLE_OBS

#define AUTODC_OBS_COUNT(name, n)                                  \
  do {                                                             \
    static ::autodc::obs::Counter* autodc_obs_counter =            \
        ::autodc::obs::MetricsRegistry::Global().GetCounter(name); \
    autodc_obs_counter->Add(n);                                    \
  } while (0)
#define AUTODC_OBS_INC(name) AUTODC_OBS_COUNT(name, 1)
#define AUTODC_OBS_GAUGE_SET(name, v)                            \
  do {                                                           \
    static ::autodc::obs::Gauge* autodc_obs_gauge =              \
        ::autodc::obs::MetricsRegistry::Global().GetGauge(name); \
    autodc_obs_gauge->Set(v);                                    \
  } while (0)
#define AUTODC_OBS_GAUGE_ADD(name, v)                            \
  do {                                                           \
    static ::autodc::obs::Gauge* autodc_obs_gauge =              \
        ::autodc::obs::MetricsRegistry::Global().GetGauge(name); \
    autodc_obs_gauge->Add(v);                                    \
  } while (0)
#define AUTODC_OBS_HIST(name, v)                                     \
  do {                                                               \
    static ::autodc::obs::Histogram* autodc_obs_hist =               \
        ::autodc::obs::MetricsRegistry::Global().GetHistogram(name); \
    autodc_obs_hist->Record(v);                                      \
  } while (0)

#endif  // AUTODC_DISABLE_OBS

#endif  // AUTODC_OBS_METRICS_H_
