// Shared plumbing of the perfbench binary: host timing, percentiles,
// process memory, the allocation counter, the outcome digest, the metric
// sink and the bench-side span recorder.
//
// Every timing the benchmark reports is either host time (what the C++
// costs, steady_clock) or virtual time (what the simulated device, link,
// flash and store queues would take, SimClock). The helpers here only deal
// in host time; workloads read virtual time from their own SimClock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span dump (empty: none).
  std::string trace_out;
  /// device_swap only: payload cache budget in KiB (0: the workload's).
  size_t payload_cache_kib = 0;
};

// --- host time ---------------------------------------------------------------

inline double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

// --- process memory ------------------------------------------------------------

/// VmHWM (peak resident set) of this process, in KiB.
double PeakRssKib();
/// VmRSS (current resident set) of this process, in KiB.
double CurrentRssKib();

// --- allocation counter --------------------------------------------------------

/// Global operator new calls since process start (counted by the
/// replacement operator new in alloc_counter.cc).
uint64_t AllocCount();

// --- outcome digest --------------------------------------------------------------

/// FNV-1a 64 over everything fed to it; the hex form is what the
/// workloads print so two runs can be compared byte for byte.
class Digest {
 public:
  void Add(std::string_view bytes);
  void Add(uint64_t value);
  std::string Hex() const;

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

// --- metrics ---------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Every number a workload produces, by name. Names follow
/// `[A-Za-z0-9_.-]+`; layer metrics are prefixed with their src/ module.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  double Get(const std::string& name) const;
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// a / b, or 0 when b is 0 (idle layers report 0, never NaN).
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// --- spans -------------------------------------------------------------------------

/// Bench-side spans around calls into the library's public functions.
/// Disabled, Begin() returns -1 and records nothing, so the untraced run
/// pays one branch per call site. Spans live in memory; Dump() writes them
/// as Chrome trace_event JSON at the end of the run.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  ///< a string literal
    int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
    uint64_t op_id = 0;   ///< touch / traversal / round the span belongs to
    double start_ns = 0.0;
    double end_ns = 0.0;
    double child_ns = 0.0;  ///< summed duration of direct children
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested in the innermost open one.
  int64_t Begin(const char* name, uint64_t op_id);
  void End(int64_t index);

  /// Self time (duration minus direct children) of every closed span
  /// called `name`, in ns.
  std::vector<double> SelfNs(std::string_view name) const;
  /// Durations of every closed span called `name`, in ns.
  std::vector<double> DurationNs(std::string_view name) const;
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes at most `max_spans` spans (the first ones) as Chrome JSON.
  bool Dump(const std::string& path, const std::string& process,
            size_t max_spans) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Spans a traced run keeps in its dump file.
inline constexpr size_t kDumpedSpans = 20000;

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t op_id)
      : recorder_(recorder), index_(recorder.Begin(name, op_id)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int64_t index_;
};

// --- the pass loop -------------------------------------------------------------------

/// Runs `pass` (one fresh world: set-up, warm-up, fixed op script) until
/// `seconds` of host time have gone by and at least `min_passes` ran.
/// Returns the number of passes.
template <typename Pass>
int RunPasses(double seconds, int min_passes, Pass&& pass) {
  const double start = NowNs();
  int passes = 0;
  while (passes < min_passes || (NowNs() - start) < seconds * 1e9) {
    if (!pass(passes)) return -1;
    ++passes;
  }
  return passes;
}

/// Per-workload entry points (one translation unit each). Each returns
/// false after printing the failed check to stderr.
struct WorkloadOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Digest of the simulated outcome (virtual clock, manager stats).
  std::string digest;
  /// Digest of the generated inputs (the touch stream, fleet options).
  std::string input_digest;
};

bool RunTraverse(const RunOptions& options, WorkloadOutcome* out);
bool RunDeviceSwap(const RunOptions& options, WorkloadOutcome* out);
bool RunFleetOutage(const RunOptions& options, WorkloadOutcome* out);

/// Prints a failed correctness check to stderr and returns false.
bool Fail(const std::string& what);

}  // namespace perfbench
