#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/obs/export.h"
#include "src/obs/live.h"
#include "src/obs/trace_export.h"

namespace autodc::obs {

namespace internal {

constinit thread_local int t_slot = -1;

int AssignSlot() {
  static std::atomic<uint64_t> next{0};
  t_slot = static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) %
                            kSlots);
  return t_slot;
}

}  // namespace internal

// ---- Histogram --------------------------------------------------------

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultBoundsMs();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

std::vector<double> Histogram::DefaultBoundsMs() {
  return {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0};
}

std::vector<double> Histogram::LogBounds(double lo, double hi,
                                         int per_decade) {
  std::vector<double> out;
  if (!(lo > 0.0) || !(hi > lo) || per_decade < 1) return out;
  const double step = std::pow(10.0, 1.0 / per_decade);
  // Multiply up from lo; regenerate each bound from lo via pow so a
  // long ladder does not accumulate rounding drift.
  for (int i = 0;; ++i) {
    double b = lo * std::pow(step, static_cast<double>(i));
    // Snap near-integers (1000.0000000002 → 1000): keeps bucket edges
    // printable and the ladder exactly periodic per decade.
    double r = std::round(b);
    if (r != 0.0 && std::fabs(b - r) / r < 1e-9) b = r;
    if (b > hi * (1.0 + 1e-9)) break;
    out.push_back(b);
  }
  return out;
}

std::vector<double> Histogram::LogBoundsUs() {
  return LogBounds(1.0, 1e7, 4);
}

void Histogram::Record(double v) {
  if (!Enabled()) return;
  size_t b = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAddDouble(&sum_, v);
  internal::AtomicMinDouble(&min_, v);
  internal::AtomicMaxDouble(&max_, v);
}

double Histogram::Min() const {
  double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

double Histogram::Max() const {
  double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? std::numeric_limits<double>::quiet_NaN() : v;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// ---- Labeled metrics --------------------------------------------------

std::string LabeledMetricName(const std::string& base, const std::string& key,
                              const std::string& value) {
  std::string out;
  out.reserve(base.size() + key.size() + value.size() + 3);
  out.append(base);
  out.push_back('{');
  out.append(key);
  out.push_back('=');
  out.append(value);
  out.push_back('}');
  return out;
}

LabeledCounter::LabeledCounter(MetricsRegistry* reg, std::string base,
                               std::string key, size_t max_cardinality)
    : reg_(reg),
      base_(std::move(base)),
      key_(std::move(key)),
      max_cardinality_(max_cardinality == 0 ? 1 : max_cardinality) {}

Counter* LabeledCounter::WithLabel(const std::string& value) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = children_.find(value);
    if (it != children_.end()) return it->second;
    if (children_.size() >= max_cardinality_ && overflow_ != nullptr) {
      return overflow_;
    }
  }
  return Materialize(value);
}

Counter* LabeledCounter::Materialize(const std::string& value) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = children_.find(value);
  if (it != children_.end()) return it->second;
  // Lock order is always LabeledCounter -> registry; the registry never
  // calls back into a labeled metric while holding its own mutex.
  if (children_.size() >= max_cardinality_) {
    if (overflow_ == nullptr) {
      overflow_ =
          reg_->GetCounter(LabeledMetricName(base_, key_, kLabelOverflow));
    }
    return overflow_;
  }
  Counter* child = reg_->GetCounter(LabeledMetricName(base_, key_, value));
  children_.emplace(value, child);
  return child;
}

size_t LabeledCounter::cardinality() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return children_.size();
}

LabeledHistogram::LabeledHistogram(MetricsRegistry* reg, std::string base,
                                   std::string key, std::vector<double> bounds,
                                   size_t max_cardinality)
    : reg_(reg),
      base_(std::move(base)),
      key_(std::move(key)),
      bounds_(std::move(bounds)),
      max_cardinality_(max_cardinality == 0 ? 1 : max_cardinality) {}

Histogram* LabeledHistogram::WithLabel(const std::string& value) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = children_.find(value);
    if (it != children_.end()) return it->second;
    if (children_.size() >= max_cardinality_ && overflow_ != nullptr) {
      return overflow_;
    }
  }
  return Materialize(value);
}

Histogram* LabeledHistogram::Materialize(const std::string& value) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = children_.find(value);
  if (it != children_.end()) return it->second;
  if (children_.size() >= max_cardinality_) {
    if (overflow_ == nullptr) {
      overflow_ = reg_->GetHistogram(
          LabeledMetricName(base_, key_, kLabelOverflow), bounds_);
    }
    return overflow_;
  }
  Histogram* child =
      reg_->GetHistogram(LabeledMetricName(base_, key_, value), bounds_);
  children_.emplace(value, child);
  return child;
}

size_t LabeledHistogram::cardinality() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return children_.size();
}

// ---- Snapshot lookups -------------------------------------------------

namespace {
template <typename T>
const T* FindByName(const std::vector<T>& v, const std::string& name) {
  for (const T& s : v) {
    if (s.name == name) return &s;
  }
  return nullptr;
}
}  // namespace

const CounterSample* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  return FindByName(counters, name);
}
const GaugeSample* MetricsSnapshot::FindGauge(const std::string& name) const {
  return FindByName(gauges, name);
}
const HistogramSample* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  return FindByName(histograms, name);
}

// ---- Registry ---------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  // Leaky singleton: late recordings during shutdown are always safe,
  // and the AUTODC_METRICS atexit dump can still read every metric.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    InstallExitDumpFromEnv();
    InstallTraceDumpFromEnv();
    // After the dump hooks: atexit runs LIFO, so the live monitor
    // thread stops before the final metric/trace dumps read state.
    InstallLiveMonitorFromEnv();
    return r;
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter(name));
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge(name));
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram(name, std::move(bounds)));
  return slot.get();
}

LabeledCounter* MetricsRegistry::GetLabeledCounter(const std::string& base,
                                                   const std::string& label_key,
                                                   size_t max_cardinality) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = labeled_counters_[base + '\0' + label_key];
  if (slot == nullptr) {
    slot.reset(new LabeledCounter(this, base, label_key, max_cardinality));
  }
  return slot.get();
}

LabeledHistogram* MetricsRegistry::GetLabeledHistogram(
    const std::string& base, const std::string& label_key,
    std::vector<double> bounds, size_t max_cardinality) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = labeled_histograms_[base + '\0' + label_key];
  if (slot == nullptr) {
    slot.reset(new LabeledHistogram(this, base, label_key, std::move(bounds),
                                    max_cardinality));
  }
  return slot.get();
}

Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

void MetricsRegistry::AddCollector(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

MetricsSnapshot MetricsRegistry::Snapshot() {
  // Collectors call back into GetGauge/Set, so they run outside mu_.
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors = collectors_;
  }
  for (const auto& fn : collectors) fn();

  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.bounds = h->bounds();
    s.counts = h->BucketCounts();
    s.count = h->TotalCount();
    s.sum = h->Sum();
    s.min = h->Min();
    s.max = h->Max();
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace autodc::obs
