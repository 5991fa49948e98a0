#include "util.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unordered_map>

namespace perfbench {

Zipf::Zipf(int64_t n, double s) {
  cdf_.resize(static_cast<size_t>(n));
  double total = 0;
  for (int64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[static_cast<size_t>(i)] = total;
  }
  for (auto& v : cdf_) v /= total;
}

int64_t Zipf::Sample(Rng* rng) const {
  double u = rng->UniformDouble(0, 1);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int64_t>(it - cdf_.begin());
}

int32_t DaysFromCivil(int year, int month, int day) {
  year -= month <= 2 ? 1 : 0;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const int yoe = year - era * 400;
  const int doy = (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;
  const int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

double ProcessCpuSeconds() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

int64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0, resident = 0;
  int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<int64_t>(::sysconf(_SC_PAGESIZE)) : 0;
}

void TrimHeap() { ::malloc_trim(0); }

double HostProbeSeconds() {
  constexpr size_t kKeys = 1 << 16, kSlotBits = 17, kSlots = size_t{1} << kSlotBits;
  static const std::vector<uint64_t> keys = [] {
    Rng rng(42, 0);
    std::vector<uint64_t> v(kKeys);
    for (auto& k : v) k = rng.Next() | 1;  // 0 marks an empty slot
    return v;
  }();
  const double t0 = NowSeconds();
  std::vector<uint64_t> slots(kSlots, 0);
  auto slot_of = [](uint64_t k) { return (k * 0x9E3779B97F4A7C15ULL) >> (64 - kSlotBits); };
  for (uint64_t k : keys) {
    size_t i = slot_of(k);
    while (slots[i] != 0 && slots[i] != k) i = (i + 1) & (kSlots - 1);
    slots[i] = k;
  }
  size_t found = 0;
  for (uint64_t k : keys) {
    size_t i = slot_of(k ^ 2);
    while (slots[i] != 0 && slots[i] != (k ^ 2)) i = (i + 1) & (kSlots - 1);
    found += slots[i] != 0;
  }
  std::vector<uint64_t> sorted(keys.begin(), keys.begin() + kKeys / 2);
  std::sort(sorted.begin(), sorted.end());
  const double elapsed = NowSeconds() - t0;
  // Never true (keys are odd); using the results keeps the work.
  if (found > kKeys || sorted[0] == 0) std::abort();
  return elapsed;
}

void RssSampler::Start() {
  Stop();
  peak_ = CurrentRssBytes();
  running_ = true;
  thread_ = std::thread([this] {
    while (running_.load()) {
      int64_t rss = CurrentRssBytes();
      if (rss > peak_.load()) peak_ = rss;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

int64_t RssSampler::Stop() {
  if (thread_.joinable()) {
    running_ = false;
    thread_.join();
    int64_t rss = CurrentRssBytes();
    if (rss > peak_.load()) peak_ = rss;
  }
  return peak_.load();
}

int64_t TreeBytes(const std::string& path) {
  int64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) total += static_cast<int64_t>(entry.file_size());
  }
  return total;
}

// ------------------------------------------------------------- Tracer

int64_t Tracer::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int64_t query, int64_t id) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.id = id != 0 ? id : NewSpanId();
  span.parent = parent;
  span.query = query;
  const int64_t span_id = span.id;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return span_id;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0;
  for (double d : DurationsMs(name)) total += d;
  return total;
}

double Tracer::MeanMs(const std::string& name) const {
  auto d = DurationsMs(name);
  if (d.empty()) return 0;
  double total = 0;
  for (double x : d) total += x;
  return total / static_cast<double>(d.size());
}

std::string Tracer::SelfTimeSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const auto& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  struct Row {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (const auto& s : spans_) {
    // Self time: the span's interval minus the union of its children's
    // intervals (clipped to the span).
    std::vector<std::pair<int64_t, int64_t>> covered;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        int64_t a = std::max(c->start_ns, s.start_ns);
        int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) covered.emplace_back(a, b);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0, cursor = s.start_ns;
    for (const auto& [a, b] : covered) {
      int64_t lo = std::max(a, cursor);
      if (b > lo) {
        covered_ns += b - lo;
        cursor = b;
      }
    }
    Row& row = rows[s.name];
    row.count += 1;
    row.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    row.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered_ns) * 1e-6;
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-30s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  out += line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line), "%-30s %8lld %12.3f %12.3f\n", name.c_str(),
                  static_cast<long long>(row.count), row.total_ms, row.self_ms);
    out += line;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %lld, \"parent\": %lld, \"query\": %lld, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.query), s.name.c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

void ScopedSpan::End() {
  if (ended_) return;
  ended_ = true;
  if (tracer_->enabled()) tracer_->Add(name_, start_, NowNs(), parent_, query_, id_);
}

// ------------------------------------------------------------- Report

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = Metric{value, unit};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit});
}

void Report::Fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].second.value) ? metrics[i].second.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].second.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
