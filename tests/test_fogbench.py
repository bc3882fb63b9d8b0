"""Smoke runs of the benchmark's gated workloads on this checkout, plus
the ungated `fleet-storm-toy17`: the only workload that runs revocation,
reissue, purging and refused handshakes at scale under its own checks.
Traced runs of the simulator workloads check that the tracer's patches
of `Network`, `AuthorityHost.handle` and `wire.decode` still call
through.

Each workload runs for one second from a temporary copy of `fogbench/`
beside a link to `src/`, so its reports stay out of the checkout.  The
runner's own checks (equal keys, expected refusals, repeatable
`DelayStats`, constant scalar-multiplication counts) fail the run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATED = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(ROOT / "fogbench", root / "fogbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


def run_bench(bench_root, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "fogbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=bench_root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", GATED + ["fleet-storm-toy17"])
def test_gated_workload_runs_correctly(bench_root, workload):
    run_bench(bench_root, workload, trace=0)


def test_traced_placement_run(bench_root):
    metrics = run_bench(bench_root, "placement-cloud120", trace=1)["metrics"]
    # two traced experiments; a device's handshakes share its H1(id), so
    # each experiment hashes each of its 120 identities at most once per side
    assert metrics["curve.hash_to_point.calls"]["value"] <= 2 * 240
    assert metrics["experiments.ca_tasks"]["value"] == 2 * 13_586


def test_traced_gallery_run(bench_root):
    metrics = run_bench(bench_root, "gallery-toy17", trace=1)["metrics"]
    assert metrics["hosts.handle.calls"]["value"] > 0
    assert metrics["simnet.transcript_entries"]["value"] > 0
