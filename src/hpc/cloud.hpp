// Commercial-cloud burst adapter (paper Section 6, "Expanded Compute
// Resources": AWS/Google integration for additional capacity).
//
// Model: per-job on-demand instances. Every reconstruction boots a fresh
// VM (no queue — capacity is elastic), pays a provisioning latency and a
// per-second price, and releases the instance afterwards. The trade-off
// against the DOE facilities is boot latency + dollars instead of queue
// wait + allocation hours; cost accounting makes the "economic-policy
// challenge" the paper predicts measurable.
#pragma once

#include <cstddef>

#include "hpc/adapter.hpp"

namespace alsflow::hpc {

class CloudBurstAdapter : public ComputeAdapter {
 public:
  CloudBurstAdapter(sim::Engine& eng, ComputeModel model)
      : eng_(eng), model_(model) {}

  std::string facility() const override { return "cloud"; }

  std::size_t instances_launched() const { return instances_; }
  double dollars_spent() const { return dollars_; }

  // Egress cost of returning `bytes` of products (charged by run()
  // callers that move data out; exposed for the economics report).
  double egress_cost(Bytes bytes) const;

 protected:
  sim::Future<ReconJobOutcome> run_impl(ReconJob job) override;

 private:
  sim::Engine& eng_;
  ComputeModel model_;
  std::size_t instances_ = 0;
  double dollars_ = 0.0;
};

}  // namespace alsflow::hpc
