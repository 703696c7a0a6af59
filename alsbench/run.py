#!/usr/bin/env python3
"""Build and run the alsflow benchmark.

    python3 alsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds this directory's CMake package (which compiles the library from
../src in Release) into $CARGO_TARGET_DIR/alsbench, or .bench_build/alsbench
when the variable is unset, then runs the alsbench binary with the given arguments.
Build output goes to stderr. The binary's last line on stdout is the result
JSON; with --trace 1 it also writes its spans under .bench_out/. Exits
nonzero without printing a result when the build or the run fails.
"""
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "alsbench")


def build():
    """Configure (once) and build the alsbench binary; returns its path or None."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "alsbench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            print(f"alsbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"alsbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(bdir, "alsbench")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "alsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main(argv):
    binary = build()
    if binary is None:
        return 3
    cmd = [binary] + argv + ["--commit", commit_id(),
                             "--out-dir", os.path.join(ROOT, ".bench_out")]
    # Own process group, so the binary's 1-thread child (recon_volume) is
    # stopped with it.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *a: (stop(), sys.exit(5)))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print(f"alsbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        stop()
        return 5


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
