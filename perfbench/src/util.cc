#include "perfbench/src/util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

bool TailSupported(size_t n, double q, size_t min_beyond) {
  // The epsilon absorbs 1 - 0.99 not being exact in binary.
  return static_cast<double>(n) * (1.0 - q) + 1e-9 >=
         static_cast<double>(min_beyond);
}

bool ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

// One origin for every recorder, so spans from several threads line up.
int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!ValidName(name) || !std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: bad metric %s = %g\n", name.c_str(),
                 value);
    std::abort();
  }
  metrics_[name] = {value, unit};
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << Number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

int SpanRecorder::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanRecorder::DurationMs(int index) const {
  const Span& s = spans_[static_cast<size_t>(index)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

double SpanRecorder::TotalMs(const std::string& name, size_t from) const {
  double total = 0.0;
  for (size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += DurationMs(static_cast<int>(i));
  }
  return total;
}

double SpanRecorder::SelfMs(int index) const {
  double self = DurationMs(index);
  for (size_t i = static_cast<size_t>(index) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == index) self -= DurationMs(static_cast<int>(i));
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanRecorder*>& recs) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  const char* sep = "\n";
  for (size_t tid = 0; tid < recs.size(); ++tid) {
    const auto& spans = recs[tid]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecorder::Span& s = spans[i];
      out << sep << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
          << ", \"ts\": " << Number(static_cast<double>(s.start_ns) / 1e3)
          << ", \"dur\": "
          << Number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << "}}";
      sep = ",\n";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
