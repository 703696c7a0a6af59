#include "hpc/cloud.hpp"

namespace alsflow::hpc {

namespace {

constexpr Seconds kBootLatency = 120.0;     // image pull + instance start
constexpr double kInstanceSpeedup = 0.75;   // vs the Perlmutter CPU node
constexpr double kDollarsPerHour = 4.9;     // on-demand compute-optimized
constexpr double kDollarsPerGbEgress = 0.09;

}  // namespace

double CloudBurstAdapter::egress_cost(Bytes bytes) const {
  return double(bytes) / 1e9 * kDollarsPerGbEgress;
}

sim::Future<ReconJobOutcome> CloudBurstAdapter::run_impl(ReconJob job) {
  ReconJobOutcome outcome;
  outcome.facility = facility();
  outcome.submitted_at = eng_.now();
  co_await ensure_available();  // provider region outage = held submissions

  ++instances_;
  co_await sim::delay(eng_, kBootLatency);
  outcome.started_at = eng_.now();

  const Seconds compute =
      job.staging_seconds +
      model_.recon_seconds(Device::CpuNode128, job.algorithm, job.nz, job.n,
                           job.n_iterations) /
          kInstanceSpeedup;
  co_await sim::delay(eng_, compute);
  outcome.finished_at = eng_.now();

  // Billed from boot to teardown.
  dollars_ += (outcome.finished_at - outcome.submitted_at) / 3600.0 *
              kDollarsPerHour;
  record_job_telemetry(job, outcome);
  co_return outcome;
}

}  // namespace alsflow::hpc
