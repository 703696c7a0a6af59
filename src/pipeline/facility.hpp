// The full multi-facility world (Figure 3), wired end to end.
//
// A Facility owns every operational layer on one simulation engine:
//   Acquisition  — Detector -> PVA mirror -> FileWriterService
//   Orchestration— FlowEngine + RunDatabase with the production flows
//                  (new_file_832 plus one route-table recon flow per
//                  facility: nersc, alcf, cloud) and scheduled pruning
//                  flows; a FederatedScheduler places every reconstructing
//                  scan on the routes under FacilityConfig::placement
//   Movement     — Globus TransferService over the LAN and ESnet links;
//                  streaming via the PVA mirror + ZeroMQ return path
//   Compute      — sched::Sites, shared with FleetWorld: Perlmutter (Slurm
//                  + SFAPI, realtime QOS), Polaris (Globus Compute), the
//                  cloud-burst pool, their ESnet paths and the directory
//   Access       — SciCat metadata catalogue (+ TiledService at library
//                  level for real-pixel runs)
//
// process_scan() drives one acquisition through streaming and the
// scheduler's placement and returns when both finish; benches call it at
// production cadence. The default placement, "static_dual", is the paper's:
// every scan reconstructs at both NERSC and ALCF.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "access/tiled.hpp"
#include "beamline/detector.hpp"
#include "beamline/file_writer.hpp"
#include "catalog/scicat.hpp"
#include "chaos/chaos_engine.hpp"
#include "common/rng.hpp"
#include "flow/engine.hpp"
#include "hpc/adapter.hpp"
#include "net/link.hpp"
#include "net/pubsub.hpp"
#include "pipeline/streaming_service.hpp"
#include "sched/directory.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"
#include "sched/sites.hpp"
#include "sim/engine.hpp"
#include "storage/endpoint.hpp"
#include "storage/retention.hpp"
#include "transfer/transfer_service.hpp"

namespace alsflow::pipeline {

struct FacilityConfig {
  std::uint64_t seed = 42;

  // Network (ESnet paths to both centers, plus a thinner commercial path
  // to the cloud burst region).
  double esnet_nersc_gbps = 10.0;
  double esnet_alcf_gbps = 10.0;
  double esnet_cloud_gbps = 5.0;

  // Compute. Sustaining 12-20 scans/hour with 20-30 minute reconstructions
  // needs ~6 concurrent jobs per site (rate x duration), so the realtime
  // allocation spans several nodes and the ALCF endpoint keeps a matching
  // pilot pool.
  int perlmutter_nodes = 8;
  int polaris_workers = 6;
  // Background (non-beamline) Perlmutter load: target utilization and mean
  // job length — what the realtime QOS has to cut through.
  double background_utilization = 0.8;
  Seconds background_job_mean = 900.0;

  // In-job CFS -> pscratch staging copy rate (NERSC).
  double pscratch_stage_rate = 5e9;

  // Flow behaviour.
  bool verify_checksums = true;
  // Fail-early + remote auto-cancel (the post-incident behaviour).
  bool fail_early = true;

  hpc::ComputeModel compute;

  // Placement policy for every reconstructing scan (sched::make_policy):
  // "static_dual" (the paper's dual branch) | "round_robin" | "greedy" |
  // "hedged". An unknown name throws std::invalid_argument.
  std::string placement = "static_dual";
};

struct ScanOptions {
  bool streaming = false;
  // Hand the scan to the scheduler for reconstruction; false runs
  // acquisition, new_file_832 and streaming only.
  bool reconstruct = true;
  // Archive raw + reconstruction to HPSS tape once an attempt at NERSC
  // completes (Section 4.2.3: long-term archival through Slurm/SFAPI).
  bool archive = true;
  // Completion deadline (<= 0: none); deadline scans are hedge-eligible
  // under a hedging policy.
  Seconds deadline = 0.0;
};

struct ScanOutcome {
  data::ScanMetadata scan;
  Status new_file_status = Status::success();
  // The placement and every recon attempt (unset when !reconstruct).
  std::optional<sched::ScanResult> sched;
  std::optional<StreamingReport> streaming;
  Seconds started_at = 0.0;
  Seconds finished_at = 0.0;
};

class Facility {
 public:
  explicit Facility(FacilityConfig config = {});

  sim::Engine& engine() { return eng_; }
  const FacilityConfig& config() const { return config_; }

  // --- world components (exposed for tests and benches) ---
  storage::StorageEndpoint& acq_server() { return acq_server_; }
  storage::StorageEndpoint& beamline_data() { return beamline_data_; }
  storage::StorageEndpoint& cfs() { return cfs_; }
  storage::StorageEndpoint& eagle() { return eagle_; }
  storage::StorageEndpoint& hpss() { return hpss_; }
  transfer::TransferService& globus() { return globus_; }
  hpc::SlurmCluster& perlmutter() { return sites_.perlmutter(); }
  hpc::GlobusComputeEndpoint& polaris() { return sites_.polaris(); }
  flow::FlowEngine& flows() { return flows_; }
  flow::RunDatabase& run_db() { return db_; }
  catalog::SciCatalog& scicat() { return scicat_; }
  access::TiledService& tiled() { return tiled_; }
  StreamingService& streaming() { return streaming_; }
  net::Link& esnet_nersc() { return sites_.esnet_nersc(); }
  sched::FacilityDirectory& directory() { return sites_.directory(); }
  sched::FederatedScheduler& scheduler() { return scheduler_; }

  // Bind every fault target: the sites, the LAN, Globus, the CFS / Eagle /
  // cloud stores, and the flow engine + run database.
  void bind_chaos(chaos::ChaosEngine& chaos);

  // Generate non-beamline Perlmutter load for `duration` (call once,
  // before driving scans, to model realistic realtime queue waits).
  void start_background_load(Seconds duration);

  // Start the scheduled pruning flows (Section 4.2.2) with the given
  // period; uses per-tier default retention policies.
  void start_pruning(Seconds period = hours(12));

  // Drive one scan end to end: acquisition -> file write -> new_file_832
  // -> scheduler placement. Resolves when the placement (and the streaming
  // preview, if requested) finishes.
  // (Wrapper over the coroutine impl: see flow/engine.hpp on GCC 12.)
  sim::Future<ScanOutcome> process_scan(data::ScanMetadata scan,
                                        ScanOptions options) {
    return process_scan_impl(std::move(scan), options);
  }

  // Stage a reconstructed multiscale volume for publication, then run the
  // FlowSpec-validated "publish_volume" flow (parameters = key) to move it
  // into the Tiled access service: catalogue ingest + registration happen
  // through the orchestrated, validated path rather than by poking the
  // service directly, so the serving front end only ever sees volumes that
  // entered through the flow.
  void stage_volume(const std::string& key,
                    std::shared_ptr<const data::MultiscaleVolume> volume);

  // Fire-and-forget variant for campaign driving at production cadence.
  void submit_scan(data::ScanMetadata scan, ScanOptions options);

  std::size_t scans_completed() const { return scans_completed_; }
  Bytes raw_bytes_ingested() const { return raw_bytes_ingested_; }
  std::vector<ScanOutcome> completed_outcomes() const { return outcomes_; }

 private:
  // One remote reconstruction branch, as data: every facility's recon
  // flow is the same four-task shape (move raw out, reconstruct, move
  // products back, register provenance) over different endpoints, labels,
  // and adapters. The site's directory row supplies the flow name and the
  // adapter; its name keys the work pool ("hpc-<site>"), the return label
  // ("<site>:recon_back") and the beamline-side path ("/recon/<site>/").
  struct ReconRoute {
    const sched::FacilityInfo* site = nullptr;  // directory row
    storage::StorageEndpoint* remote = nullptr;  // facility-side store
    std::string to_remote_task;  // task 1 name ("globus_to_cfs", ...)
    std::string recon_task;      // task 2 name ("sfapi_recon_job", ...)
    std::string out_label;       // transfer label ("nersc:raw_to_cfs", ...)
    // In-job CFS -> pscratch staging copy before the solver (NERSC only).
    bool stage_in_copy = false;
  };

  sim::Future<ScanOutcome> process_scan_impl(data::ScanMetadata scan,
                                             ScanOptions options);
  void register_flows();
  sim::Proc background_job_generator(Seconds until);
  sim::Future<Status> new_file_832(flow::FlowContext ctx);
  // The generic facility recon flow, parameterized by route. Pointer, not
  // reference: routes are Facility members and the coroutine frame
  // outlives the call (astcheck coroutine-ref-param).
  sim::Future<Status> recon_route_flow(flow::FlowContext ctx,
                                       const ReconRoute* route);
  sim::Future<Status> hpss_archive_flow(flow::FlowContext ctx);
  sim::Future<Status> publish_volume_flow(flow::FlowContext ctx);
  // Pointer, not reference: the endpoint is a Facility member and the
  // coroutine frame outlives the call (astcheck coroutine-ref-param).
  sim::Future<Status> prune_endpoint_flow(storage::StorageEndpoint* ep);

  const data::ScanMetadata& scan_for(const std::string& scan_id) const {
    return scans_.at(scan_id);
  }

  FacilityConfig config_;
  // First, so an unknown placement name throws before anything is built.
  std::unique_ptr<sched::PlacementPolicy> placement_policy_;
  sim::Engine eng_;
  Rng rng_;

  // Compute sites, their ESnet paths and the placement directory.
  sched::Sites sites_;

  // Storage.
  storage::StorageEndpoint acq_server_;
  storage::StorageEndpoint beamline_data_;
  storage::StorageEndpoint cfs_;
  storage::StorageEndpoint eagle_;
  storage::StorageEndpoint hpss_;
  storage::StorageEndpoint cloud_s3_;

  // Network (beamline-side; the WAN paths live in sites_).
  net::Link lan_;
  net::Link zmq_back_;

  // Movement.
  transfer::TransferService globus_;

  // Orchestration + access.
  flow::RunDatabase db_;
  flow::FlowEngine flows_;
  catalog::SciCatalog scicat_;
  access::TiledService tiled_;
  // Volumes handed to stage_volume, awaiting the publish_volume flow.
  std::map<std::string, std::shared_ptr<const data::MultiscaleVolume>>
      staged_volumes_;

  // Acquisition.
  beamline::Detector detector_;
  net::MirrorServer<beamline::FrameBatch> mirror_;
  beamline::FileWriterService file_writer_;
  StreamingService streaming_;

  // Scan bookkeeping.
  std::map<std::string, data::ScanMetadata> scans_;
  std::map<std::string, sim::Event<std::string>> write_done_;  // scan -> path
  std::map<std::string, std::string> raw_pids_;  // scan -> SciCat PID
  std::size_t scans_completed_ = 0;
  Bytes raw_bytes_ingested_ = 0;
  std::vector<ScanOutcome> outcomes_;

  // Federated scheduling (no simulation events at construction).
  std::array<ReconRoute, 3> routes_;  // nersc, alcf, cloud
  sched::FederatedScheduler scheduler_;
};

}  // namespace alsflow::pipeline
