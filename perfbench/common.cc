#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= samples.size()) index = samples.size() - 1;
  return samples[index];
}

namespace {
double StatusFieldKib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream in(line.substr(prefix.size()));
      double kib = 0.0;
      in >> kib;
      return kib;
    }
  }
  return 0.0;
}
}  // namespace

double PeakRssKib() { return StatusFieldKib("VmHWM"); }
double CurrentRssKib() { return StatusFieldKib("VmRSS"); }

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  // Length-delimit so ("ab","c") and ("a","bc") differ.
  hash_ ^= bytes.size();
  hash_ *= 1099511628211ull;
}

void Digest::Add(uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(value >> (8 * i));
  Add(std::string_view(buf, 8));
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

double MetricSet::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

int64_t SpanRecorder::Begin(const char* name, uint64_t op_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op_id = op_id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int64_t index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
  while (!open_.empty()) {
    const int64_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> SpanRecorder::SelfNs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name)
      out.push_back(span.end_ns - span.start_ns - span.child_ns);
  }
  return out;
}

std::vector<double> SpanRecorder::DurationNs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.end_ns - span.start_ns);
  }
  return out;
}

bool SpanRecorder::Dump(const std::string& path, const std::string& process,
                        size_t max_spans) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_ns;
  std::fprintf(file, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"parent\":%lld}}",
                 i == 0 ? "" : ",", span.name, process.c_str(),
                 (span.start_ns - origin) / 1e3,
                 (span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.op_id),
                 static_cast<long long>(span.parent));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

bool Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  return false;
}

}  // namespace perfbench
