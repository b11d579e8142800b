// lakebench_driver: runs one LakeFind benchmark workload and prints one
// report line, `LAKEBENCH_REPORT {json}`, with every metric by name and
// unit, the correctness gates and the run's facts.
//
//   lakebench_driver --workload join-skewed --seed 1 --seconds 10
//       --work-dir DIR [--trace-out FILE] [--dump-schedule]
//
// Without --trace-out the run is untraced: set-up is repeated and timed,
// the workload is warmed up, then served for --seconds and its end-to-end
// metrics are measured. With --trace-out the run sets up once, serves the
// same traffic (for registry counters), then replays a seeded sample of
// the measured schedule serially with a span around every layer call and
// writes the spans to FILE. --dump-schedule prints the full seeded
// operation sequence (one line per operation) and exits.
//
// Exit status: 0 ok, 2 usage or internal error, 3 a correctness gate
// failed, 4 the run is invalid (generator fell behind, input pool ran out).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "loadgen.h"
#include "trace.h"
#include "util/hash.h"
#include "workloads.h"

#ifndef LAKEBENCH_BUILD_TYPE
#define LAKEBENCH_BUILD_TYPE "unknown"
#endif

namespace lakebench {
namespace {

/// Generator lag beyond which an open-loop run no longer offers the load
/// it claims.
constexpr double kMaxLagP99Ms = 25.0;

/// Untraced runs set up this many times and report the median as setup_s.
constexpr int kSetupRepeats = 3;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// User plus system CPU time of the whole process so far, in seconds.
double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// End-to-end metrics of one measured phase.
void AddLoadMetrics(const LoadLog& log, bool open_loop, RunResult* r) {
  std::map<std::string, std::vector<double>> by_group;
  std::map<std::string, std::vector<double>> by_family;
  std::vector<double> all;
  for (const LoadLog::Sample& s : log.ok) {
    by_group[FamilyGroup(s.family)].push_back(s.latency_ms);
    by_family[FamilyName(s.family)].push_back(s.latency_ms);
    all.push_back(s.latency_ms);
  }
  r->Add("qps", log.elapsed_s > 0 ? static_cast<double>(log.ok.size()) / log.elapsed_s : 0,
         "1/s");
  r->Add("mean_ms", Mean(all), "ms");
  r->Add("worst1pct_mean_ms", TailMean(all, 0.01), "ms");
  r->Add("p50_ms", Quantile(all, 0.5), "ms");
  r->Add("p95_ms", Quantile(all, 0.95), "ms");
  r->Add("p99_ms", Quantile(all, 0.99), "ms");
  r->Add("ops", static_cast<double>(all.size()), "count");
  if (all.size() < 1000) {
    r->invalid.push_back("p99_ms and worst1pct_mean_ms from " +
                         std::to_string(all.size()) + " samples (< 1000)");
  }
  // Per family: the median and the highest tail its sample supports
  // (p99 needs 1000 samples, p95 200).
  for (const auto& [group, v] : by_group) {
    r->Add(group + "_p50_ms", Quantile(v, 0.5), "ms");
    if (v.size() >= 1000 && group != "correlated" && group != "write_visible") {
      r->Add(group + "_p99_ms", Quantile(v, 0.99), "ms");
    } else if (v.size() >= 200) {
      r->Add(group + "_p95_ms", Quantile(v, 0.95), "ms");
    }
    r->Add(group + "_n", static_cast<double>(v.size()), "count");
  }
  for (const auto& [family, v] : by_family) {
    r->Add("method." + family + "_p50_ms", Quantile(v, 0.5), "ms");
  }
  r->Add("error_rate",
         log.attempted > 0 ? static_cast<double>(log.failed) /
                                 static_cast<double>(log.attempted)
                           : 0,
         "ratio");
  if (open_loop) {
    const double lag = Quantile(log.lag_ms, 0.99);
    r->Add("loadgen.lag_p99_ms", lag, "ms");
    if (lag > kMaxLagP99Ms) {
      r->invalid.push_back("generator fell behind: lag p99 " +
                           std::to_string(lag) + " ms");
    }
  }
  if (log.pool_exhausted) {
    r->invalid.push_back("closed-loop input pool exhausted before the end");
  }
  r->attempted = log.attempted;
  r->failed = log.failed;
  r->errors = log.errors;
}

/// The serial replay sample: per family, the first kPerFamily distinct
/// operations of the measured schedule whose seeded hash selects them.
std::vector<Op> ReplaySample(const std::vector<Op>& ops, uint64_t seed) {
  constexpr size_t kPerFamily = 40;
  std::vector<Op> out;
  std::map<Family, size_t> taken;
  std::set<std::pair<Family, uint32_t>> seen;
  for (const Op& op : ops) {
    if (lake::Hash64(static_cast<uint64_t>(op.index), seed) % 3 != 0) continue;
    if (taken[op.family] >= kPerFamily) continue;
    if (!seen.insert({op.family, op.index}).second) continue;
    ++taken[op.family];
    out.push_back(op);
  }
  return out;
}

bool IsOpenLoop(const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (op.due_ns != 0) return true;
  }
  return false;
}

void PrintReport(const RunConfig& config, const char* mode,
                 const RunResult& r, const std::string& trace_file) {
  std::string s = "{";
  s += "\"workload\":" + JsonString(config.workload);
  s += ",\"seed\":" + std::to_string(config.seed);
  s += ",\"seconds\":" + JsonNumber(config.seconds);
  s += ",\"mode\":" + JsonString(mode);
  s += ",\"correct\":" + std::string(r.correct() ? "true" : "false");
  s += ",\"valid\":" + std::string(r.invalid.empty() ? "true" : "false");
  s += ",\"invalid\":[";
  for (size_t i = 0; i < r.invalid.size(); ++i) {
    s += (i ? "," : "") + JsonString(r.invalid[i]);
  }
  s += "],\"attempted\":" + std::to_string(r.attempted);
  s += ",\"failed\":" + std::to_string(r.failed);
  s += ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    s += (i ? "," : "") + JsonString(r.errors[i]);
  }
  s += "],\"gates\":[";
  for (size_t i = 0; i < r.gates.size(); ++i) {
    const Gate& g = r.gates[i];
    s += (i ? "," : "") + std::string("{\"name\":") + JsonString(g.name) +
         ",\"passed\":" + (g.passed ? "true" : "false") +
         ",\"checked\":" + std::to_string(g.checked) +
         ",\"detail\":" + JsonString(g.detail) + "}";
  }
  s += "],\"metrics\":{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += (i ? "," : "") + JsonString(m.name) + ":{\"value\":" +
         JsonNumber(m.value) + ",\"unit\":" + JsonString(m.unit) + "}";
  }
  s += "},\"facts\":{";
  for (size_t i = 0; i < r.facts.size(); ++i) {
    s += (i ? "," : "") + JsonString(r.facts[i].first) + ":" +
         JsonString(r.facts[i].second);
  }
  s += "},\"fingerprint\":{\"nproc\":" +
       std::to_string(Nproc()) +
       ",\"compiler\":" + JsonString(std::string("g++ ") + __VERSION__) +
       ",\"build_type\":" + JsonString(LAKEBENCH_BUILD_TYPE) + "}";
  if (!trace_file.empty()) s += ",\"trace_file\":" + JsonString(trace_file);
  s += "}";
  std::printf("LAKEBENCH_REPORT %s\n", s.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: lakebench_driver --workload NAME --seed N --seconds S "
               "--work-dir DIR [--trace-out FILE] [--dump-schedule]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_out;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      config.workload = next();
    } else if (a == "--seed") {
      config.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seconds") {
      config.seconds = std::atof(next());
    } else if (a == "--work-dir") {
      config.work_dir = next();
    } else if (a == "--trace-out") {
      trace_out = next();
    } else if (a == "--dump-schedule") {
      dump = true;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> w = MakeWorkload(config.workload);
  if (w == nullptr || config.seconds <= 0) return Usage();

  const Clock::time_point gen_start = Clock::now();
  w->Generate(config.seed);
  const double generate_s =
      std::chrono::duration<double>(Clock::now() - gen_start).count();
  const std::vector<Op> warmup = w->Schedule(false, config.seconds);
  const std::vector<Op> measured = w->Schedule(true, config.seconds);
  if (dump) {
    std::string out;
    for (const Op& op : warmup) out += "warmup " + w->Describe(op) + "\n";
    for (const Op& op : measured) out += "measured " + w->Describe(op) + "\n";
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }
  if (config.work_dir.empty()) return Usage();

  RunResult result;
  w->Facts(&result);
  result.Fact("generate_s", JsonNumber(generate_s));
  const bool traced = !trace_out.empty();
  const int repeats = traced ? 1 : kSetupRepeats;
  std::vector<double> setups;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) w->Teardown();
    const Clock::time_point t0 = Clock::now();
    w->Setup(config);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::string setup_list;
  for (double s : setups) {
    setup_list += (setup_list.empty() ? "" : ",") + JsonNumber(s);
  }
  result.Fact("setup_runs_s", setup_list);

  (void)w->Serve(warmup, config.seconds, /*measured=*/false);
  const double cpu_before = ProcessCpuSeconds();
  const LoadLog log = w->Serve(measured, config.seconds, /*measured=*/true);
  const double cpu_s = ProcessCpuSeconds() - cpu_before;

  if (!traced) {
    result.Add("setup_s", Median(setups), "s");
    AddLoadMetrics(log, IsOpenLoop(measured), &result);
    result.Add("cpu_ms_per_op",
               log.ok.empty() ? 0 : cpu_s * 1000 / static_cast<double>(log.ok.size()),
               "ms");
    const Clock::time_point check_start = Clock::now();
    w->Check(&result);
    result.Fact("check_s", JsonNumber(std::chrono::duration<double>(
                                          Clock::now() - check_start)
                                          .count()));
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    w->Teardown();
    PrintReport(config, "run", result, "");
  } else {
    TraceRecorder trace;
    trace.SetMeta("\"workload\":" + JsonString(config.workload) +
                  ",\"seed\":" + std::to_string(config.seed) +
                  ",\"seconds\":" + JsonNumber(config.seconds));
    trace.RunCount("setup_s", setups.front());
    if (IsOpenLoop(measured)) {
      trace.RunCount("loadgen.lag_p99_ms", Quantile(log.lag_ms, 0.99));
    }
    trace.RunCount("loadgen.ops", static_cast<double>(log.ok.size()));
    w->RecordRegistry(&trace);
    w->Check(&result);
    result.attempted = log.attempted;
    result.failed = log.failed;
    result.errors = log.errors;
    w->Replay(ReplaySample(measured, config.seed), &trace);
    w->Teardown();
    if (!trace.WriteJsonl(trace_out)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_out.c_str());
      return 2;
    }
    PrintReport(config, "trace", result, trace_out);
  }
  if (!result.correct()) return 3;
  if (!result.invalid.empty() && !traced) return 4;
  return 0;
}

}  // namespace
}  // namespace lakebench

int main(int argc, char** argv) { return lakebench::Main(argc, argv); }
