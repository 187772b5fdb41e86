// Repository benchmark driver.
//
//   perfbench --workload <metro_1m|link_sweep|fleet_traffic> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// One closed loop per workload: the driver issues the next epoch, sweep or
// engine run only after the previous one returns. Correctness gates run
// once, untimed, before timing; every timed operation is then checked
// against the gate's digest. `--trace 0` times the loop with tracing off
// and prints the end-to-end metrics; `--trace 1` runs a short untraced
// section, then a traced section whose spans wrap calls into each layer,
// and prints the per-layer metrics. The last stdout line is the JSON
// result, with bare metric values (perfbench/run.py attaches the units from
// BENCHMARK.json); everything above it is the human-readable report.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

bool parse_u64(const char* text, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<metro_1m|link_sweep|fleet_traffic> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file.json>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, &number) && number >= 1 &&
               number <= 3600) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && parse_u64(value, &number) && number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  using Runner = void (*)(const Options&, mmtag::sim::ThreadPool&, Report&,
                          Tracer*);
  Runner runner = nullptr;
  if (options.workload == "metro_1m") runner = run_metro;
  if (options.workload == "link_sweep") runner = run_link;
  if (options.workload == "fleet_traffic") runner = run_fleet;
  if (runner == nullptr) return usage(("unknown workload " + options.workload).c_str());

  const std::string host = host_record_json();
  say("perfbench workload=%s seed=%llu seconds=%.0f trace=%d",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0);
  say("host %s", host.c_str());

  Report report;
  Tracer tracer;
  mmtag::sim::ThreadPool pool(kThreads);
  try {
    runner(options, pool, report, options.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }

  if (options.trace && !options.trace_out.empty()) {
    report.check(tracer.write_chrome(options.trace_out, host),
                 "trace written to " + options.trace_out);
    say("trace: %zu spans -> %s", tracer.size(), options.trace_out.c_str());
  }
  if (options.trace) report.set("check_fail_ratio", report.fail_ratio());
  say("checks: %llu run, %llu failed (check_fail_ratio %.4f)",
      static_cast<unsigned long long>(report.attempted()),
      static_cast<unsigned long long>(report.failed()), report.fail_ratio());
  std::printf("%s\n", report.json().c_str());
  return report.failed() == 0 ? 0 : 1;
}
