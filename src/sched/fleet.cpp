#include "sched/fleet.hpp"

#include <cassert>
#include <utility>

namespace alsflow::sched {

Fleet::Fleet(sim::Engine& eng, FacilityDirectory& directory,
             std::string policy_name, SchedulerConfig cfg)
    : eng_(eng),
      dir_(directory),
      policy_name_(std::move(policy_name)),
      cfg_(cfg) {}

Fleet::Shard& Fleet::add_shard(std::string beamline) {
  assert(by_name_.count(beamline) == 0 && "beamline shard added twice");
  auto shard = std::make_unique<Shard>();
  shard->policy = make_policy(policy_name_);  // throws on an unknown name
  shard->beamline = std::move(beamline);
  shard->db = std::make_unique<flow::RunDatabase>();
  shard->flows = std::make_unique<flow::FlowEngine>(eng_, *shard->db);
  shard->scheduler = std::make_unique<FederatedScheduler>(
      eng_, *shard->flows, dir_, *shard->policy, cfg_);
  shards_.push_back(std::move(shard));
  Shard& ref = *shards_.back();
  by_name_.emplace(ref.beamline, &ref);
  return ref;
}

sim::Future<ScanResult> Fleet::submit(const std::string& beamline,
                                      ScanRequest scan) {
  auto it = by_name_.find(beamline);
  assert(it != by_name_.end() && "submit to unknown beamline shard");
  return it->second->scheduler->submit(std::move(scan));
}

std::vector<const flow::RunDatabase*> Fleet::run_dbs() const {
  std::vector<const flow::RunDatabase*> dbs;
  dbs.reserve(shards_.size());
  for (const auto& s : shards_) dbs.push_back(s->db.get());
  return dbs;
}

std::map<std::string, std::size_t> Fleet::placements() const {
  std::map<std::string, std::size_t> out;
  for (const auto& s : shards_) {
    for (const auto& [facility, n] : s->scheduler->placements()) {
      out[facility] += n;
    }
  }
  return out;
}

std::size_t Fleet::failovers() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->scheduler->failovers();
  return n;
}

std::size_t Fleet::hedges_launched() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->scheduler->hedges_launched();
  return n;
}

}  // namespace alsflow::sched
