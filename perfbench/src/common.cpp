#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <thread>

#include "src/kern/kern.hpp"
#include "src/obs/gate.hpp"
#include "src/obs/stats.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return mmtag::obs::percentile_sorted(values, pct);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

// --- Tracer -----------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, 0, 0, tracer_->open_, tracer_->op_, false});
  tracer_->open_ = index_;
  tracer_->spans_.back().start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_->now_ns();
  tracer_->totals_[span.name] +=
      1e-9 * static_cast<double>(span.end_ns - span.start_ns);
  tracer_->open_ = span.parent;
}

void Tracer::add_reported(std::string_view name, double seconds) {
  const std::int64_t end = now_ns();
  const auto dur = static_cast<std::int64_t>(seconds * 1e9);
  spans_.push_back({name, end - dur, end, open_, op_, true});
  totals_[name] += seconds;
}

double Tracer::total_s(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& host_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"otherData\":" << host_json << ",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                  ",\"parent\":%d,\"program_reported\":%s}}",
                  i == 0 ? "" : ",", static_cast<int>(s.name.size()),
                  s.name.data(), 1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.op,
                  s.parent, s.program_reported ? "true" : "false");
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- Report -------------------------------------------------------------------

void Report::set(const std::string& name, double value) {
  if (!check(std::isfinite(value), "metric '" + name + "' is finite")) return;
  values_[name] = value;
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[32];
  bool first = true;
  for (const auto& [name, value] : values_) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  out += "}}";
  return out;
}

// --- Host -------------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return static_cast<std::size_t>(l2);
  return std::size_t{32} << 20;  // Unknown: assume a 32 MiB LLC.
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string host_record_json() {
  std::string out = "{";
  out += "\"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"llc_bytes\": " + std::to_string(llc_bytes());
  out += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  out += ", \"flags\": \"" + json_escape(PERFBENCH_FLAGS) + "\"";
  out += ", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"kern\": \"" + json_escape(mmtag::kern::dispatch().name) + "\"";
  out += ", \"mmtag_obs\": " + std::to_string(mmtag::obs::kObsEnabled ? 1 : 0);
  out += ", \"threads\": " + std::to_string(kThreads);
  out += "}";
  return out;
}

double stream_triad_gbps(mmtag::sim::ThreadPool& pool) {
  const std::size_t total_bytes =
      std::max<std::size_t>(4 * llc_bytes(), std::size_t{64} << 20);
  const std::size_t n = total_bytes / (3 * sizeof(double)) + 1;
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  const std::size_t chunks = static_cast<std::size_t>(pool.size()) * 4;
  const std::size_t per = (n + chunks - 1) / chunks;
  const auto each_chunk = [&](auto&& body) {
    pool.parallel_for(chunks, [&](std::size_t k) {
      const std::size_t lo = k * per;
      const std::size_t hi = std::min(n, lo + per);
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  };
  // First touch on the pool, so pages land where the triad runs.
  each_chunk([&](std::size_t i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  });
  const double scalar = 3.0;
  double best_s = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    each_chunk([&](std::size_t i) { a[i] = b[i] + scalar * c[i]; });
    const double s = seconds_since(t0);
    if (pass == 0 || s < best_s) best_s = s;
  }
  const bool ok = a[0] == 7.0 && a[n / 2] == 7.0 && a[n - 1] == 7.0;
  return ok && best_s > 0.0
             ? 24.0 * static_cast<double>(n) / best_s / 1e9
             : 0.0;
}

double measure_stream(mmtag::sim::ThreadPool& pool, Report& report) {
  const double gbps = stream_triad_gbps(pool);
  report.check(gbps > 0.0, "STREAM triad verifies");
  report.set("host.stream_gbps", gbps);
  say("  %-26s %10.3f GB/s  (STREAM triad, arrays >= 4x LLC, %d threads)",
      "host.stream_gbps", gbps, pool.size());
  return gbps;
}

void say(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::putchar('\n');
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, value);
  return buf;
}

void report_trace_summary(const TraceSummary& s, Report& report) {
  const double ops = s.ops > 0.0 ? s.ops : 1.0;
  report.set("sim.pool_efficiency", s.pool_efficiency);
  report.set("trace.coverage", s.parent_s > 0.0 ? s.covered_s / s.parent_s : 0.0);
  report.set("trace.overhead_ms", 1e3 * (s.traced_op_s - s.untraced_op_s));
  say("  %-26s %10.4f ms/op  (traced %.4f - untraced %.4f ms per op)",
      "trace.overhead_ms", 1e3 * (s.traced_op_s - s.untraced_op_s),
      1e3 * s.traced_op_s, 1e3 * s.untraced_op_s);
  say("  %-26s %10.4f       (measured spans / traced end-to-end span, %.0f ops)",
      "trace.coverage", s.parent_s > 0.0 ? s.covered_s / s.parent_s : 0.0, ops);
  say("  %-26s %10.4f       (CPU / (wall x %d threads), untraced section)",
      "sim.pool_efficiency", s.pool_efficiency, kThreads);
}

}  // namespace perfbench
