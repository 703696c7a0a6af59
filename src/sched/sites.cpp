#include "sched/sites.hpp"

#include <utility>

namespace alsflow::sched {

Sites::Sites(sim::Engine& eng, const SitesConfig& config)
    : perlmutter_(eng, "perlmutter", config.nersc_nodes),
      sfapi_(eng, perlmutter_),
      nersc_(eng, sfapi_, config.compute),
      polaris_(eng, "polaris", config.alcf_workers),
      alcf_(eng, polaris_, config.compute),
      cloud_(eng, config.compute),
      esnet_nersc_(eng, "esnet-nersc", gbps(config.esnet_nersc_gbps), 0.03),
      esnet_alcf_(eng, "esnet-alcf", gbps(config.esnet_alcf_gbps), 0.05),
      esnet_cloud_(eng, "esnet-cloud", gbps(config.esnet_cloud_gbps), 0.04) {
  // Capacity hints mirror each site's concurrency: realtime nodes, pilot
  // workers, and an elastic-but-slower cloud pool.
  auto add = [this](hpc::ComputeAdapter* adapter, net::Link* link,
                    double capacity_hint) {
    FacilityInfo info;
    info.name = adapter->facility();
    info.flow_name = info.name + "_recon_flow";
    info.adapter = adapter;
    info.link = link;
    info.capacity_hint = capacity_hint;
    directory_.add(std::move(info));
  };
  add(&nersc_, &esnet_nersc_, double(config.nersc_nodes));
  add(&alcf_, &esnet_alcf_, double(config.alcf_workers));
  add(&cloud_, &esnet_cloud_, 16.0);
}

void Sites::bind(chaos::ChaosEngine& chaos) {
  for (const FacilityInfo& info : directory_.facilities()) {
    chaos.bind_link(info.link);
    chaos.bind_adapter(info.adapter);
  }
}

}  // namespace alsflow::sched
