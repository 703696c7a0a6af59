// alsbench: the alsflow benchmark program.
//
//   alsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--commit <id>] [--out-dir <dir>]
//   alsbench --list-metrics
//
// Prints human-readable "# ..." lines (host context, tails and sample
// counts, failed checks), then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Exits 1 when a
// correctness check fails, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <thread>

#include "common.hpp"
#include "common/log.hpp"
#include "parallel/thread_pool.hpp"

#ifndef ALSBENCH_BUILD_TYPE
#define ALSBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define ALSBENCH_COMPILER "clang " __clang_version__
#else
#define ALSBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace alsbench;

constexpr const char* kWorkloads[] = {"fleet_overload", "fleet_outage",
                                      "shift_campaign", "recon_volume"};

int usage(const char* why) {
  std::fprintf(stderr,
               "alsbench: %s\nusage: alsbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--commit <id>] "
               "[--out-dir <dir>] | --list-metrics\n",
               why);
  return 2;
}

void print_metric_list(const char* key, const std::vector<MetricDef>& defs,
                       bool last) {
  std::printf("  \"%s\": [", key);
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                defs[i].name.c_str(), defs[i].unit);
  }
  std::printf("]%s\n", last ? "" : ",");
}

void print_result(const Report& report, const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    // A non-finite value already failed its check; JSON cannot hold it.
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name.c_str(), v, defs[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list-metrics") {
      std::printf("{\n");
      print_metric_list("end_to_end", end_to_end_metrics(), false);
      print_metric_list("per_layer", per_layer_metrics(), true);
      std::printf("}\n");
      return 0;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--one-thread-probe") {
      opt.one_thread_probe = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
      have_seed = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string t = argv[++i];
      if (t != "0" && t != "1") return usage("--trace takes 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (a == "--commit") {
      opt.commit = argv[++i];
    } else if (a == "--out-dir") {
      opt.out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known) return usage(("unknown workload '" + opt.workload + "'").c_str());
  if (opt.one_thread_probe) return run_recon_one_thread_probe(opt);
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  std::printf("# context {\"workload\": \"%s\", \"seed\": %llu, "
              "\"tuned_seed\": %llu, \"holdout_seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"smoke\": %d, \"cpus\": %u, "
              "\"pool_threads\": %zu, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"commit\": \"%s\"}\n",
              opt.workload.c_str(), (unsigned long long)opt.seed,
              (unsigned long long)kTunedSeed,
              (unsigned long long)kHoldoutSeed, opt.seconds, int(opt.trace),
              int(opt.smoke), std::thread::hardware_concurrency(),
              alsflow::parallel::ThreadPool::global().size(),
              ALSBENCH_BUILD_TYPE, ALSBENCH_COMPILER, opt.commit.c_str());

  // The chaos engine logs every fault it injects; keep stderr for errors.
  alsflow::set_log_level(alsflow::LogLevel::Error);

  Report report;
  Recorder rec(opt.trace);
  if (opt.workload == "shift_campaign") {
    run_shift(opt, rec, report);
  } else if (opt.workload == "recon_volume") {
    run_recon(opt, rec, report);
  } else {
    run_fleet(opt, rec, report);
  }
  report.end_to_end["peak_rss_mb"] = peak_rss_mib();
  report.per_layer["failed_ratio"] =
      double(report.failed) / double(std::max<std::size_t>(1, report.attempted));
  report.per_layer["trace.spans"] = double(rec.span_count());

  const auto& defs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = opt.trace ? report.per_layer : report.end_to_end;
  for (const auto& d : defs) {
    auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    report.check(std::isfinite(v), "metric " + d.name + " is not finite");
    if (!opt.trace) {
      report.check(v > 0.0, "end-to-end metric " + d.name + " is not positive");
    }
  }
  if (opt.trace) {
    mkdir(opt.out_dir.c_str(), 0755);
    const std::string path = opt.out_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (rec.write_chrome_trace(path)) {
      report.note("spans written to %s (%zu spans)", path.c_str(),
                  rec.span_count());
    }
  }
  print_result(report, defs, values);
  return report.correct ? 0 : 1;
}
