// Shared helpers of the benchmark: seeded generation, clocks, order
// statistics, process gauges (RSS, CPU time), files, the in-memory span
// tracer and the result line.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// splitmix64: every generator stream is derived from (seed, stream id),
/// so a workload's inputs depend only on the --seed argument.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL + 1) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Inclusive bounds.
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(Next() >> 11) / 9007199254740992.0);
  }

 private:
  uint64_t state_;
};

/// Zipf(s) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(int64_t n, double s);
  int64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Days since 1970-01-01 of a proleptic Gregorian date.
int32_t DaysFromCivil(int year, int month, int day);

int64_t NowNs();
double NowSeconds();
/// User + system CPU seconds of this process.
double ProcessCpuSeconds();

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);
double GeoMean(const std::vector<double>& v);

/// Resident set size of this process (from /proc/self/statm).
int64_t CurrentRssBytes();

/// Samples the resident set size every 2 ms on a helper thread and
/// keeps the maximum (read from /proc/self/statm).
class RssSampler {
 public:
  RssSampler() = default;
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void Start();
  /// Stops sampling; returns the peak in bytes.
  int64_t Stop();

 private:
  std::atomic<bool> running_{false};
  std::atomic<int64_t> peak_{0};
  std::thread thread_;
};

/// Time of a fixed, engine-independent amount of hashing (64K keys into
/// a 1 MiB open-addressing table, then 64K lookups) and sorting (32K
/// keys): about 4.5 ms on the reference host. On a shared host the speed of every core drifts by
/// a third or more over minutes; the analytic workloads measure this
/// probe beside their queries and report host-normalised times.
double HostProbeSeconds();

/// The probe time that defines host-normalised seconds: a time t
/// measured while the probe takes p is reported as
/// t * kReferenceProbeSeconds / p, i.e. as on a host where the probe
/// takes 4.5 ms.
constexpr double kReferenceProbeSeconds = 4.5e-3;

/// Hand freed heap pages back to the OS so RSS measures what is live.
void TrimHeap();

/// Total size of the regular files under `path`.
int64_t TreeBytes(const std::string& path);

/// \brief In-memory span recorder. A span has a name, start and end
/// (steady clock, ns), the span that caused it and the query or request
/// it belongs to. Thread-safe; written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t id = 0;
    int64_t parent = 0;  ///< 0 = root
    int64_t query = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int64_t NewQueryId() { return next_query_.fetch_add(1) + 1; }
  /// Reserve a span id up front, so children can name their parent
  /// before it ends (0 when disabled).
  int64_t NewSpanId() { return enabled_ ? next_id_.fetch_add(1) + 1 : 0; }
  /// Record a finished span under `id` (0 = reserve one); returns the id.
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t query, int64_t id = 0);

  /// Sum and mean of the durations of spans named `name`.
  double TotalMs(const std::string& name) const;
  double MeanMs(const std::string& name) const;
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Per span name: count, total and self time (duration minus the
  /// part of it covered by child spans).
  std::string SelfTimeSummary() const;
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int64_t> next_id_{0};
  std::atomic<int64_t> next_query_{0};
};

/// RAII span: records [construction, destruction) when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent, int64_t query)
      : tracer_(tracer), name_(name), parent_(parent), query_(query),
        id_(tracer->NewSpanId()), start_(tracer->enabled() ? NowNs() : 0) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Close the span now (idempotent).
  void End();
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t parent_;
  int64_t query_;
  int64_t id_;
  int64_t start_;
  bool ended_ = false;
};

/// The run's outcome, printed as the last stdout line.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& what);
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
