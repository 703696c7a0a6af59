#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 alsbench/test_alsbench.py

Builds the alsbench binary through run.py, then checks that the metric names and
units match BENCHMARK.json, that the seed argument is honoured, that bad
arguments are refused without a result, and that a tiny-scale (--smoke) run
of every workload passes in both modes.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("alsbench did not build")


def drive(*args):
    """Runs the binary; returns (exit code, stdout lines, parsed result)."""
    p = subprocess.run([BINARY, *args], capture_output=True, text=True,
                       timeout=170)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, lines, result


def smoke(workload, seed=1, trace=0):
    return drive("--workload", workload, "--seed", str(seed), "--seconds",
                 "0.2", "--trace", str(trace), "--smoke")


class Catalogue(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        code, lines, listed = drive("--list-metrics")
        self.assertEqual(code, 0)
        listed = json.loads("\n".join(lines))
        for mode in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in BENCHMARK[mode]]
            printed = [(m["name"], m["unit"]) for m in listed[mode]]
            self.assertEqual(declared, printed, mode)

    def test_end_to_end_bounds(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"]]
        self.assertIn("setup_s", names)
        for m in BENCHMARK["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertEqual(m["better"], "lower")
        setup = next(m for m in BENCHMARK["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in BENCHMARK["end_to_end"]))


class Arguments(unittest.TestCase):
    def test_refuses_bad_arguments_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", WORKLOADS[0], "--seed", "1",
                      "--seconds", "1", "--trace", "2"],
                     ["--workload", WORKLOADS[0], "--seed", "x",
                      "--seconds", "1", "--trace", "0"],
                     ["--workload", WORKLOADS[0]]):
            code, _, result = drive(*args)
            self.assertEqual(code, 2, args)
            self.assertIsNone(result, args)

    def test_seed_is_honoured(self):
        # Simulated-time metrics repeat exactly for a seed and move with it.
        _, _, a = smoke("fleet_outage", seed=5)
        _, _, b = smoke("fleet_outage", seed=5)
        _, _, c = smoke("fleet_outage", seed=6)
        key = "turnaround_p50_s"
        self.assertEqual(a["metrics"][key], b["metrics"][key])
        self.assertNotEqual(a["metrics"][key], c["metrics"][key])

    def test_seed_reaches_the_replica_digests(self):
        _, lines_a, _ = smoke("shift_campaign", seed=5)
        _, lines_b, _ = smoke("shift_campaign", seed=6)
        digests = [l for l in lines_a if l.startswith("# replica 0")]
        self.assertEqual(len(digests), 1)
        self.assertNotIn(digests[0], lines_b)


# Per-layer metrics each workload's traced run must report as nonzero: the
# layers it exists to exercise.
_FLEET = ["sim.events", "sim.events_per_wall_s", "net.esnet_nersc.bytes",
          "net.esnet_alcf.goodput_gbps", "sched.launches.nersc",
          "sched.useful_launch_ratio", "sched.launches_per_scan",
          "flow.runs", "flow.query_wall_s", "flow.stage_out.p50_sim_s",
          "flow.recon.p99_sim_s", "hpc.nersc.execute_mean_sim_s",
          "campaign.scans", "campaign.makespan_sim_s"]
LAYERS = {
    "fleet_overload": _FLEET,
    "fleet_outage": _FLEET + [
        "chaos.faults_applied", "telemetry.spans", "telemetry.export_wall_s",
        "monitor.assemble_wall_s", "monitor.stage.orchestrate_sim_s"],
    "shift_campaign": [
        "sim.events", "net.esnet_nersc.bytes", "flow.stage_out.p50_sim_s",
        "hpc.alcf.execute_mean_sim_s", "pipeline.new_file_832.p50_sim_s",
        "pipeline.nersc_recon_flow.success_rate",
        "pipeline.first_slice_p50_sim_s", "transfer.tasks", "transfer.bytes",
        "transfer.duration_p50_sim_s", "catalog.records",
        "storage.cfs.files", "monitor.assemble_wall_s",
        "monitor.stage.recon_sim_s", "telemetry.spans",
        "telemetry.export_wall_s"],
    "recon_volume": [
        "tomo.gridrec.wall_s", "tomo.gridrec.slices_per_s",
        "tomo.fbp.gop_per_s_computed", "tomo.sirt.correlation",
        "tomo.gridrec.slices_per_s_1t", "parallel.sirt.speedup",
        "tomo.stream.ingest_wall_s", "tomo.stream.finalize_wall_s",
        "tomo.stream.correlation", "parallel.threads",
        "beamline.acquire_wall_s"],
}


class Smoke(unittest.TestCase):
    def check_result(self, workload, trace):
        code, lines, result = smoke(workload, trace=trace)
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertIsNotNone(result)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        mode = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in BENCHMARK[mode]]
        self.assertEqual(list(result["metrics"]), names)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)
        self.assertTrue(any(l.startswith("# context ") for l in lines))
        return result

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 1)["metrics"]
                for name in LAYERS[workload] + ["trace.spans"]:
                    self.assertGreater(metrics[name]["value"], 0, name)

    def test_layers_a_workload_does_not_call_report_zero(self):
        _, _, overload = smoke("fleet_overload", trace=1)
        self.assertEqual(overload["metrics"]["telemetry.spans"]["value"], 0)
        _, _, recon = smoke("recon_volume", trace=1)
        self.assertEqual(recon["metrics"]["sim.events"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
