// Shared pipeline::Facility rig for the chaos, monitor and scheduler
// suites: the cropped scan every campaign test submits, and a
// fixed-cadence campaign over one Facility with a bound ChaosEngine.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/chaos_engine.hpp"
#include "data/scan_meta.hpp"
#include "pipeline/facility.hpp"

namespace alsflow::rigs {

// A cropped scan (~1.3 GB raw) keeps transfers and recon jobs short while
// exercising every branch. Fixed geometry: scan content must not vary
// between the baseline and chaos runs of one test.
inline data::ScanMetadata small_scan(const std::string& id) {
  data::ScanMetadata m;
  m.scan_id = id;
  m.sample_name = "rig-sample";
  m.proposal = "ALS-11532";
  m.user = "visiting-user";
  m.rows = 512;
  m.cols = 2560;
  m.n_angles = 500;
  m.bit_depth = 16;
  m.exposure_s = 0.05;
  m.energy_kev = 25.0;
  m.pixel_um = 0.65;
  return m;
}

// "scan-007" for index 7.
inline data::ScanMetadata small_scan(std::size_t index) {
  char id[32];
  std::snprintf(id, sizeof id, "scan-%03zu", index);
  return small_scan(std::string(id));
}

struct FacilityRig {
  pipeline::Facility fac;
  chaos::ChaosEngine chaos;

  explicit FacilityRig(std::uint64_t seed = 42)
      : fac(make_config(seed)), chaos(fac.engine()) {
    fac.bind_chaos(chaos);
  }

  static pipeline::FacilityConfig make_config(std::uint64_t seed) {
    pipeline::FacilityConfig cfg;
    cfg.seed = seed;
    cfg.background_utilization = 0.0;  // keep queue waits deterministic-fast
    return cfg;
  }

  // Submit `n` scans at a fixed cadence and run the engine dry. Returns
  // the per-scan outcomes (all futures are resolved after run()).
  std::vector<pipeline::ScanOutcome> run_scans(int n, Seconds interval) {
    std::vector<sim::Future<pipeline::ScanOutcome>> futs;
    futs.reserve(std::size_t(n));
    pipeline::ScanOptions options;
    options.streaming = false;
    options.archive = false;
    for (int i = 0; i < n; ++i) {
      fac.engine().schedule_at(double(i) * interval, [this, &futs, i,
                                                      options] {
        futs.push_back(
            fac.process_scan(small_scan(std::size_t(i)), options));
      });
    }
    fac.engine().run();
    std::vector<pipeline::ScanOutcome> out;
    for (auto& f : futs) {
      EXPECT_TRUE(f.done());
      out.push_back(f.value());
    }
    return out;
  }
};

}  // namespace alsflow::rigs
