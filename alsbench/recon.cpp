// recon_volume: real pixels on the host, the only workload where tomo and
// parallel do the work (the simulated workloads charge reconstruction
// through hpc::ComputeModel).
//
// Set-up: a 128^3 Shepp-Logan phantom is acquired at 192 angles by the
// simulated detector (Poisson counts seeded from --seed) and fanned out
// through the PVA mirror; the frames are kept, and normalized sinograms
// are built from them. One pass then replays the frames into a
// StreamingReconstructor (on_frame for every frame, then finalize), and
// reconstructs the volume with gridrec and with FBP over all 128 slices,
// and with SIRT (10 iterations) over a 16-slice slab. Closed loop: one
// caller over the global pool. Turnaround is the preview's: the host time
// of finalize after the last frame, sampled after every pass.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "beamline/detector.hpp"
#include "common.hpp"
#include "net/pubsub.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/engine.hpp"
#include "tomo/metrics.hpp"
#include "tomo/phantom.hpp"
#include "tomo/preprocess.hpp"
#include "tomo/recon.hpp"
#include "tomo/streaming.hpp"

extern char** environ;

namespace alsbench {

namespace {

using namespace alsflow;

constexpr int kSirtIterations = 10;
constexpr std::size_t kSetups = 3;
// Preview turnaround samples taken after each pass, spread over the run so
// a burst of host noise touches few of them; at least 3 passes leave 12
// or more beyond the p90 tail.
constexpr std::size_t kPreviewSamplesPerPass = 40;
constexpr std::size_t kMinPasses = 3;
// Correlation floors with the phantom, from the tomo and beamline tests:
// reconstructed volume slices (test_tomo_recon) and the detector-fed
// streaming preview (test_beamline).
constexpr double kVolumeCorrelationFloor = 0.75;
constexpr double kPreviewCorrelationFloor = 0.8;

struct Shape {
  std::size_t n;         // phantom edge = detector rows = columns
  std::size_t n_angles;  // projections over 180 degrees
  std::size_t slab;      // SIRT slices, centred
};

Shape shape(const Options& opt) {
  return opt.smoke ? Shape{32, 48, 4} : Shape{128, 192, 16};
}

struct Inputs {
  std::shared_ptr<const tomo::Volume> specimen;
  tomo::Geometry geo;
  std::vector<beamline::FrameBatch> batches;  // as the mirror delivered them
  tomo::Image dark, flat;
  std::vector<tomo::Image> sinograms;  // normalized, -log; one per row
};

Inputs make_inputs(const Options& opt, Recorder& rec) {
  const Shape s = shape(opt);
  Inputs in;
  in.geo = tomo::Geometry{s.n_angles, s.n, -1.0};
  in.specimen = std::make_shared<tomo::Volume>(tomo::shepp_logan_3d(s.n));

  data::ScanMetadata scan;
  scan.scan_id = "recon-volume";
  scan.sample_name = "shepp-logan";
  scan.n_angles = s.n_angles;
  scan.rows = s.n;
  scan.cols = s.n;
  scan.bit_depth = 16;
  scan.exposure_s = 0.05;
  {
    Recorder::Call c(rec, "beamline", "Detector::acquire_with_pixels",
                     "beamline.acquire_wall_s");
    sim::Engine eng;
    beamline::Detector detector(eng, beamline::Detector::Config{}, opt.seed);
    net::MirrorServer<beamline::FrameBatch> mirror(
        eng, detector.ioc_channel(), "pva-mirror");
    auto sub = mirror.channel().subscribe();
    auto acquired = detector.acquire_with_pixels(scan, in.specimen);
    eng.run();
    while (auto batch = sub->queue().try_pop()) {
      in.batches.push_back(std::move(*batch));
    }
    in.dark = detector.reference_dark(scan);
    in.flat = detector.reference_flat(scan);
  }

  in.sinograms.assign(s.n, tomo::Image(s.n_angles, s.n));
  for (const auto& batch : in.batches) {
    for (std::size_t k = 0; k < batch.count; ++k) {
      tomo::Image frame = (*batch.pixels)[k];
      tomo::normalize(frame, in.dark, in.flat);
      tomo::minus_log(frame);
      const std::size_t a = batch.first_angle + k;
      for (std::size_t z = 0; z < s.n; ++z) {
        const auto src = frame.row(z);
        std::copy(src.begin(), src.end(), in.sinograms[z].row(a).begin());
      }
    }
  }
  return in;
}

tomo::ReconOptions recon_options(tomo::Algorithm alg) {
  tomo::ReconOptions o;
  o.algorithm = alg;
  o.n_iterations = kSirtIterations;
  o.non_negative = alg == tomo::Algorithm::SIRT;
  return o;
}

std::vector<tomo::Image> slab(const std::vector<tomo::Image>& sinos,
                              std::size_t count) {
  const std::size_t z0 = (sinos.size() - count) / 2;
  return {sinos.begin() + std::ptrdiff_t(z0),
          sinos.begin() + std::ptrdiff_t(z0 + count)};
}

// Slices [z0, z0 + nz) of a volume as one tall image, for correlation.
tomo::Image stack(const tomo::Volume& v, std::size_t z0, std::size_t nz) {
  tomo::Image img(nz * v.ny(), v.nx());
  const std::size_t plane = v.ny() * v.nx();
  std::memcpy(img.data(), v.data() + z0 * plane, nz * plane * sizeof(float));
  return img;
}

std::vector<std::uint64_t> slice_hashes(const tomo::Volume& v) {
  std::vector<std::uint64_t> out;
  const std::size_t plane = v.ny() * v.nx();
  for (std::size_t z = 0; z < v.nz(); ++z) {
    std::uint64_t h = 14695981039346656037ull;
    fnv_mix(&h, v.data() + z * plane, plane * sizeof(float));
    out.push_back(h);
  }
  return out;
}

// Operations per slice counted from the geometry (a model, not a hardware
// counter): one multiply-add (2 ops) per pixel per angle for a projection
// or back-projection, 5 N log2 N per complex FFT of length N, and for
// gridrec 4 bilinear complex splats (32 ops) per frequency sample.
double ops_per_slice(tomo::Algorithm alg, const tomo::Geometry& geo,
                     std::size_t n) {
  const double a = double(geo.n_angles), px = double(n) * double(n);
  double p = 1.0;
  while (p < 2.0 * double(geo.n_det)) p *= 2.0;
  const double fft = 5.0 * p * std::log2(p);
  switch (alg) {
    case tomo::Algorithm::FBP:
      return a * (2.0 * fft + 2.0 * px);
    case tomo::Algorithm::Gridrec:
      return a * (fft + 32.0 * p) + 5.0 * p * p * std::log2(p * p);
    default:
      return kSirtIterations * 2.0 * (2.0 * px * a);
  }
}

struct Algo {
  const char* name;
  tomo::Algorithm alg;
  const char* metric;  // span metric: tomo.<name>.wall_s
  bool slab_only;
};
constexpr Algo kAlgos[] = {
    {"gridrec", tomo::Algorithm::Gridrec, "tomo.gridrec.wall_s", false},
    {"fbp", tomo::Algorithm::FBP, "tomo.fbp.wall_s", false},
    {"sirt", tomo::Algorithm::SIRT, "tomo.sirt.wall_s", true},
};

tomo::Volume reconstruct(const Inputs& in, const Algo& algo,
                         std::size_t slab_slices) {
  const auto& sinos =
      algo.slab_only ? slab(in.sinograms, slab_slices) : in.sinograms;
  return tomo::reconstruct_volume(sinos, in.geo, in.geo.n_det,
                                  recon_options(algo.alg));
}

// Runs this binary again with ALSFLOW_NUM_THREADS=1 and returns its
// "probe ..." line (empty on failure). The child rebuilds the same inputs
// from the same seed.
std::string run_one_thread_child(const Options& opt) {
  int fds[2];
  if (pipe(fds) != 0) return "";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);

  const std::string seed = std::to_string(opt.seed);
  std::vector<std::string> args = {"alsbench", "--workload", opt.workload,
                                   "--seed", seed, "--trace",
                                   opt.trace ? "1" : "0",
                                   "--one-thread-probe"};
  if (opt.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_store = {"ALSFLOW_NUM_THREADS=1"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ALSFLOW_NUM_THREADS=", 20) != 0) {
      env_store.emplace_back(*e);
    }
  }
  std::vector<char*> envp;
  for (auto& e : env_store) envp.push_back(e.data());
  envp.push_back(nullptr);

  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof buf)) > 0) out.append(buf, got);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) out.clear();
  }
  close(fds[0]);
  const auto at = out.rfind("probe ");
  return at == std::string::npos ? "" : out.substr(at);
}

}  // namespace

int run_recon_one_thread_probe(const Options& opt) {
  Recorder off(false);
  const Inputs in = make_inputs(opt, off);
  const std::size_t slab_slices = shape(opt).slab;
  std::vector<std::uint64_t> gridrec_hashes;
  double rates[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < 3; ++i) {
    // The untraced run needs only the gridrec volume, for byte identity.
    if (i > 0 && !opt.trace) break;
    const double t0 = now_s();
    const tomo::Volume v = reconstruct(in, kAlgos[i], slab_slices);
    rates[i] = double(v.nz()) / (now_s() - t0);
    if (i == 0) gridrec_hashes = slice_hashes(v);
  }
  std::printf("probe %.17g %.17g %.17g", rates[0], rates[1], rates[2]);
  for (std::uint64_t h : gridrec_hashes) {
    std::printf(" %016llx", (unsigned long long)h);
  }
  std::printf("\n");
  return 0;
}

void run_recon(const Options& opt, Recorder& rec, Report& report) {
  const std::size_t slab_slices = shape(opt).slab;

  // Set-up, repeated; the first inputs are kept.
  std::vector<double> setups;
  Inputs in;
  for (std::size_t i = 0; i < kSetups; ++i) {
    rec.set_active(opt.trace && i == 0);
    rec.begin_pass();
    const double t0 = now_s();
    Inputs made = make_inputs(opt, rec);
    setups.push_back(now_s() - t0);
    if (i == 0) in = std::move(made);
  }
  const double acquire_wall = rec.median_total("beamline.acquire_wall_s");
  const std::size_t n = in.geo.n_det;
  const std::size_t mid = in.specimen->nz() / 2;

  tomo::StreamingConfig scfg;
  scfg.geo = in.geo;
  scfg.n_rows = n;

  std::vector<double> walls, traced_walls, previews;
  std::vector<std::vector<double>> alg_walls(3);
  const double start = now_s();
  for (std::size_t p = 0;; ++p) {
    if (p >= kMinPasses && now_s() - start >= opt.seconds &&
        (!opt.trace || !walls.empty())) {
      break;
    }
    const bool traced = opt.trace && p % 2 == 0;
    rec.set_active(traced);
    rec.begin_pass();
    const double t0 = now_s();
    tomo::StreamingReconstructor stream(scfg);
    {
      Recorder::Call c(rec, "tomo", "StreamingReconstructor::on_frame",
                       "tomo.stream.ingest_wall_s");
      stream.set_reference(in.dark, in.flat);
      for (const auto& batch : in.batches) {
        for (std::size_t k = 0; k < batch.count; ++k) {
          stream.on_frame(batch.first_angle + k, (*batch.pixels)[k]);
        }
      }
    }
    tomo::OrthoPreview preview;
    {
      Recorder::Call c(rec, "tomo", "StreamingReconstructor::finalize",
                       "tomo.stream.finalize_wall_s");
      preview = stream.finalize();
    }
    tomo::Volume volumes[3];
    for (std::size_t i = 0; i < 3; ++i) {
      Recorder::Call c(rec, "tomo", "reconstruct_volume", kAlgos[i].metric);
      const double a0 = now_s();
      volumes[i] = reconstruct(in, kAlgos[i], slab_slices);
      if (!traced) alg_walls[i].push_back(now_s() - a0);
    }
    (traced ? traced_walls : walls).push_back(now_s() - t0);

    // Preview turnaround: finalize again after the last frame, untimed by
    // the pass.
    if (!traced) {
      for (std::size_t i = 0; i < kPreviewSamplesPerPass; ++i) {
        const double f0 = now_s();
        const tomo::OrthoPreview again = stream.finalize();
        previews.push_back(now_s() - f0);
      }
    }

    if (p > 0) continue;
    // Correctness, on the first pass.
    report.attempted = 1 + volumes[0].nz() + volumes[1].nz() + volumes[2].nz();
    const double preview_corr =
        tomo::pearson_correlation(preview.xy, in.specimen->slice_image(mid));
    report.per_layer["tomo.stream.correlation"] = preview_corr;
    report.check(preview_corr >= kPreviewCorrelationFloor,
                 "streaming preview correlation " +
                     std::to_string(preview_corr) + " below " +
                     std::to_string(kPreviewCorrelationFloor));
    for (std::size_t i = 0; i < 3; ++i) {
      const std::size_t nz = volumes[i].nz();
      const std::size_t z0 = kAlgos[i].slab_only ? (n - nz) / 2 : 0;
      const double corr = tomo::pearson_correlation(
          stack(volumes[i], 0, nz), stack(*in.specimen, z0, nz));
      report.per_layer[std::string("tomo.") + kAlgos[i].name +
                       ".correlation"] = corr;
      report.check(corr >= kVolumeCorrelationFloor,
                   std::string(kAlgos[i].name) + " volume correlation " +
                       std::to_string(corr) + " below " +
                       std::to_string(kVolumeCorrelationFloor));
    }

    // "probe <3 rates> <one hash per gridrec slice>" from the child.
    std::istringstream probe(run_one_thread_child(opt));
    std::string word;
    double rates_1t[3] = {0.0, 0.0, 0.0};
    probe >> word >> rates_1t[0] >> rates_1t[1] >> rates_1t[2];
    std::vector<std::uint64_t> hashes_1t;
    std::string hex;
    while (probe >> hex) {
      hashes_1t.push_back(std::strtoull(hex.c_str(), nullptr, 16));
    }
    const auto hashes = slice_hashes(volumes[0]);
    report.check(word == "probe" && hashes_1t.size() == hashes.size(),
                 "the 1-thread child run failed");
    std::size_t mismatched = 0;
    for (std::size_t z = 0; z < hashes.size() && z < hashes_1t.size(); ++z) {
      mismatched += hashes[z] != hashes_1t[z];
    }
    report.per_layer["parallel.gridrec_1t_mismatched_slices"] =
        double(mismatched);
    // Known program defect: gridrec's splat sums per-stripe grids, one
    // stripe per pool thread, so the rounding of a few voxels follows the
    // pool size. Reported on every run, not yet enforced (see NOTES.md).
    if (mismatched > 0) {
      report.note("KNOWN DEFECT: the gridrec volume at 1 thread differs from "
                  "the one at %zu threads in %zu of %zu slices",
                  parallel::ThreadPool::global().size(), mismatched,
                  hashes.size());
    }
    for (std::size_t i = 0; i < 3; ++i) {
      report.per_layer[std::string("tomo.") + kAlgos[i].name +
                       ".slices_per_s_1t"] = rates_1t[i];
    }
  }
  rec.set_active(false);

  report.note("passes %zu untraced, %zu traced; pass wall median %.4f s p90 "
              "%.4f s max %.4f s; preview p50 %.5f s p90 %.5f s over %zu; "
              "set-up median %.4f s over %zu; pool threads %zu",
              walls.size(), traced_walls.size(), median(walls),
              quantile(walls, 0.9), quantile(walls, 1.0),
              quantile(previews, 0.5), quantile(previews, 0.9),
              previews.size(), median(setups), setups.size(),
              parallel::ThreadPool::global().size());

  auto& e2e = report.end_to_end;
  e2e["setup_s"] = median(setups);
  e2e["wall_s"] = median(walls);
  e2e["turnaround_p50_s"] = quantile(previews, 0.5);
  e2e["turnaround_tail_s"] = quantile(previews, 0.9);

  if (!opt.trace) return;
  auto& layer = report.per_layer;
  layer["beamline.acquire_wall_s"] = acquire_wall;
  layer["tomo.stream.ingest_wall_s"] =
      rec.median_total("tomo.stream.ingest_wall_s");
  layer["tomo.stream.finalize_wall_s"] =
      rec.median_total("tomo.stream.finalize_wall_s");
  layer["parallel.threads"] = double(parallel::ThreadPool::global().size());
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string alg = kAlgos[i].name;
    const double wall = median(alg_walls[i]);
    const double slices = double(kAlgos[i].slab_only ? slab_slices : n);
    const double rate = slices / wall;
    layer["tomo." + alg + ".wall_s"] = rec.median_total(kAlgos[i].metric);
    layer["tomo." + alg + ".slices_per_s"] = rate;
    layer["tomo." + alg + ".gop_per_s_computed"] =
        ops_per_slice(kAlgos[i].alg, in.geo, n) * rate / 1e9;
    const double rate_1t = layer["tomo." + alg + ".slices_per_s_1t"];
    layer["parallel." + alg + ".speedup"] = rate_1t > 0 ? rate / rate_1t : 0;
  }
  layer["trace.overhead_ratio"] = median(traced_walls) / median(walls) - 1.0;
}

}  // namespace alsbench
