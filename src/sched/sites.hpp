// sched::Sites: the compute sites every beamline shares, built once.
//
// Perlmutter behind SFAPI + Slurm, Polaris behind a Globus Compute pilot
// endpoint, the cloud-burst pool, one ESnet link to each, and the
// FacilityDirectory over them (Figure 3). pipeline::Facility and
// sched::FleetWorld each embed one, so both place onto the same rows:
// nersc, alcf, cloud, in that order; flow "<site>_recon_flow"; capacity
// hint nodes / workers / 16. Rows are fixed at construction, so
// `const FacilityInfo*` into them stays valid for the Sites' lifetime.
// No constructor here schedules a simulation event.
#pragma once

#include "chaos/chaos_engine.hpp"
#include "hpc/adapter.hpp"
#include "hpc/cloud.hpp"
#include "net/link.hpp"
#include "sched/directory.hpp"
#include "sim/engine.hpp"

namespace alsflow::sched {

// Site sizing. No defaults of its own: each world fills every field from
// its config, which holds the defaults.
struct SitesConfig {
  int nersc_nodes = 0;
  int alcf_workers = 0;
  double esnet_nersc_gbps = 0.0;
  double esnet_alcf_gbps = 0.0;
  double esnet_cloud_gbps = 0.0;
  hpc::ComputeModel compute;
};

class Sites {
 public:
  Sites(sim::Engine& eng, const SitesConfig& config);
  // The directory and the adapters point into this object.
  Sites(const Sites&) = delete;
  Sites& operator=(const Sites&) = delete;

  hpc::SlurmCluster& perlmutter() { return perlmutter_; }
  hpc::GlobusComputeEndpoint& polaris() { return polaris_; }
  net::Link& esnet_nersc() { return esnet_nersc_; }
  net::Link& esnet_alcf() { return esnet_alcf_; }
  net::Link& esnet_cloud() { return esnet_cloud_; }
  FacilityDirectory& directory() { return directory_; }

  // Bind every ESnet link and compute adapter as a fault target.
  void bind(chaos::ChaosEngine& chaos);

 private:
  hpc::SlurmCluster perlmutter_;
  hpc::SfApiClient sfapi_;
  hpc::NerscSlurmAdapter nersc_;
  hpc::GlobusComputeEndpoint polaris_;
  hpc::AlcfGlobusComputeAdapter alcf_;
  hpc::CloudBurstAdapter cloud_;
  net::Link esnet_nersc_;
  net::Link esnet_alcf_;
  net::Link esnet_cloud_;
  FacilityDirectory directory_;
};

}  // namespace alsflow::sched
