// Simulator scale sweep: host cost of sched::FleetWorld as the fleet grows.
//
// The greedy fleet at m = 1, 4, 8, 16: 8m beamlines x 128 scans at 60 s
// cadence over 8m NERSC nodes and 6m ALCF workers, seed 42, while the
// ESnet links stay at their default 10/10/5 Gbps. High m is therefore WAN
// overload; m = 8 is alsbench's fleet_overload world. Each row records host
// wall seconds, engine events and events per wall second, next to the
// completed and lost scans and launches per scan, so a speedup that also
// changed the simulation shows in the same row.
//
// Wall time depends on the host and its load, so nothing gates on this
// bench. Every row carries its host context (CPU count, build type,
// compiler), and a run writes one labelled row set to BENCH_sim_scale.json:
//
//   bench_sim_scale [--label NAME] [--append]
//
// --append adds the row set to a BENCH_sim_scale.json this bench wrote
// before (a before/after pair measured on one host) instead of replacing
// the file.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sched/campaign.hpp"

#ifndef ALSFLOW_BUILD_TYPE
#define ALSFLOW_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define ALSFLOW_COMPILER "clang " __clang_version__
#else
#define ALSFLOW_COMPILER "gcc " __VERSION__
#endif

using namespace alsflow;

namespace {

constexpr const char* kOut = "BENCH_sim_scale.json";
// The closing lines of the file; --append splices a row set in before them.
constexpr const char* kTrailer = "\n  ]\n}\n";

struct Row {
  int m = 0;
  sched::FleetCampaignReport report;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::size_t launches = 0;
};

double launches_per_scan(const Row& r) {
  return r.report.completed > 0
             ? double(r.launches) / double(r.report.completed)
             : 0.0;
}

double events_per_s(const Row& r) {
  return r.wall_s > 0.0 ? double(r.events) / r.wall_s : 0.0;
}

Row run_point(int m) {
  sched::FleetCampaignConfig cfg;
  cfg.seed = 42;
  cfg.policy = "greedy";
  cfg.beamlines = 8 * m;
  cfg.scans_per_beamline = 128;
  cfg.scan_interval = 60.0;
  cfg.nersc_nodes = 8 * m;
  cfg.alcf_workers = 6 * m;

  Row row;
  row.m = m;
  const auto t0 = std::chrono::steady_clock::now();
  sched::FleetWorld world(cfg);
  row.report = world.run();
  row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  row.events = world.engine().executed_events();
  for (const auto& [facility, n] : row.report.placements) row.launches += n;
  return row;
}

std::string row_set_json(const std::string& label,
                         const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "    {\"label\": \"" << label << "\", \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const auto& rep = r.report;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "      {\"m\": %d, \"offered\": %zu, \"completed\": %zu, "
        "\"lost\": %zu, \"launches_per_scan\": %.4f, \"failovers\": %zu, "
        "\"events\": %llu, \"wall_s\": %.3f, \"events_per_s\": %.0f, "
        "\"cpus\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\"}%s\n",
        r.m, rep.offered, rep.completed, rep.lost, launches_per_scan(r),
        rep.failovers, static_cast<unsigned long long>(r.events), r.wall_s,
        events_per_s(r), std::thread::hardware_concurrency(),
        ALSFLOW_BUILD_TYPE, ALSFLOW_COMPILER, i + 1 < rows.size() ? "," : "");
    os << buf;
  }
  os << "    ]}";
  return os.str();
}

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "unlabelled";
  bool append = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--label" && i + 1 < argc &&
        std::string(argv[i + 1]).find_first_of("\"\\") == std::string::npos) {
      label = argv[++i];
    } else if (a == "--append") {
      append = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_sim_scale [--label NAME] [--append]\n"
                   "  (NAME without quotes or backslashes)\n");
      return 2;
    }
  }

  std::printf("=== FleetWorld scale sweep (greedy, seed 42) ===\n");
  std::printf("%4s %9s %9s %5s %9s %10s %9s %12s\n", "m", "offered",
              "completed", "lost", "launch/sc", "events", "wall_s",
              "events/s");
  std::vector<Row> rows;
  for (int m : {1, 4, 8, 16}) {
    rows.push_back(run_point(m));
    const Row& r = rows.back();
    std::printf("%4d %9zu %9zu %5zu %9.3f %10llu %9.3f %12.0f\n", m,
                r.report.offered, r.report.completed, r.report.lost,
                launches_per_scan(r), static_cast<unsigned long long>(r.events),
                r.wall_s, events_per_s(r));
    std::fflush(stdout);
  }

  const std::string row_set = row_set_json(label, rows);
  std::string out;
  const std::string old = append ? read_file(kOut) : std::string();
  const std::string trailer = kTrailer;
  if (old.size() > trailer.size() &&
      old.compare(old.size() - trailer.size(), trailer.size(), trailer) ==
          0) {
    out = old.substr(0, old.size() - trailer.size()) + ",\n" + row_set +
          trailer;
  } else {
    if (append) {
      std::fprintf(stderr, "no row sets in %s to append to; writing it new\n",
                   kOut);
    }
    out = std::string("{\n  \"bench\": \"sim_scale\",\n") +
          "  \"sweep\": \"sched::FleetWorld, greedy, seed 42: 8m beamlines x "
          "128 scans at 60 s, 8m NERSC nodes, 6m ALCF workers, ESnet "
          "10/10/5 Gbps\",\n  \"row_sets\": [\n" +
          row_set + trailer;
  }
  FILE* f = std::fopen(kOut, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", kOut);
    return 1;
  }
  std::fputs(out.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s (row set \"%s\")\n", kOut, label.c_str());
  return 0;
}
