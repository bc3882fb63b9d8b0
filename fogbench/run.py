"""fogca benchmark: run one workload on one seed and print one result.

    python3 fogbench/run.py --workload protocol-p256 --seed 2011 \
        --seconds 30 --trace 0

Run it from the root of a checkout: it imports `fogca` from `src/` of
that checkout and nowhere else, and exits with status 2 without a result
when the sources are not there.  `--trace 0` prints the end-to-end
metrics; `--trace 1` makes a separate traced run and prints the
per-layer metrics.  The last line of standard output is the JSON result;
the lines above it are a readable report.  A copy of the report and, for
traced runs, the spans go to `fogbench/results/`.  The exit status is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy's BLAS would otherwise start one thread per core at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

DEFAULT_SEED = 2011  # README: seed 6325 is held out for confirming claims

# Per-operation latencies: each workload prints the ones it measures.
DETAIL_KINDS = ("auth", "register", "peer", "round")


def load_package():
    """Import fogca from this checkout's src/, or exit 2."""
    if not (SRC / "fogca" / "__init__.py").is_file():
        print(f"error: no fogca sources under {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fogca
    if Path(fogca.__file__).resolve().parent != (SRC / "fogca").resolve():
        print(f"error: imported fogca from {fogca.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


BLOCK = 200  # samples per block: ten lie beyond the block's p95


def quantile(values, q: float):
    """Nearest-rank quantile: a measured sample, not a blend."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def p95(values):
    return quantile(values, 0.95)


def block_p95(values):
    """Median of the p95s of consecutive BLOCK-sample blocks (the whole
    run's p95 when it has fewer than two blocks).  A burst of contention
    from other tenants lifts the p95 of the blocks it falls in, not the
    median of all blocks."""
    blocks = [values[i:i + BLOCK]
              for i in range(0, len(values) - BLOCK + 1, BLOCK)]
    if len(blocks) < 2:
        return p95(values)
    return statistics.median(p95(b) for b in blocks)


def rate(rec):
    """Lower quartile of the per-window transaction rates; the whole
    run's rate when the run had fewer than two windows.  The host runs
    this process at a slower or a faster speed, about 30% apart; every
    run spends time at the slower one, the faster one comes and goes for
    seconds to minutes.  The slow side of a run's windows therefore
    reads the same from run to run, where the median flips with the share
    of the run that fell in the fast phase (README, Noise)."""
    if len(rec.rates) < 2:
        return rec.txns / rec.elapsed
    return quantile(rec.rates, 0.25)


def stamp(source_digest) -> dict:
    import cryptography
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd],
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest,
    }


def measure(workload, seed: int, seconds: float, repeats: int, recorder,
            tracer=None):
    """Set up `repeats` times (keeping the last state), warm up where the
    workload has a warm-up (untimed, outside `setup_s`), then run the
    workload for `seconds` (see workloads.Deadline).  Set-up and run are
    measured in CPU time (see workloads.cpu); returns the set-up times."""
    from workloads import Deadline
    setup_times = []
    ctx = None
    for _ in range(repeats):
        ctx = None  # let the previous state go before building the next
        t0 = time.thread_time()
        ctx = workload.setup(seed)
        setup_times.append(time.thread_time() - t0)
    warm_up = getattr(workload, "warm_up", None)
    if warm_up is not None:
        warm_up(ctx, recorder)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.thread_time()
        recorder.start()
        workload.run(ctx, recorder, Deadline(seconds))
        recorder.elapsed = time.thread_time() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return setup_times


def detail_metrics(rec, setup_times) -> dict:
    """The per-operation metrics that this workload measures, each
    with its unit and sample count."""
    d = {
        "setup_s": [statistics.median(setup_times), "s", len(setup_times)],
        "txn_per_s": [rec.txns / rec.elapsed, "1/s", rec.txns],
    }
    for kind in DETAIL_KINDS:
        samples = rec.samples.get(kind)
        if samples:
            d[f"{kind}_p50_ms"] = [statistics.median(samples) * 1e3, "ms",
                                   len(samples)]
            d[f"{kind}_p95_ms"] = [p95(samples) * 1e3, "ms", len(samples)]
    d["fail_ratio"] = [rec.failed / max(rec.attempted, 1), "ratio",
                       rec.attempted]
    if "experiment.incomplete" in rec.work:
        # placement: the simulated incomplete share, checked to repeat
        issued = max(rec.work["experiment.issued"])
        d["fail_ratio"] = [max(rec.work["experiment.incomplete"]) / issued,
                           "ratio", issued]
    d["peak_rss_mb"] = [peak_rss_mb(), "MB", 1]
    return d


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, rec, setup_times) -> dict:
    primary = rec.samples.get(workload.primary) or [0.0]
    return {
        "setup_s": [statistics.median(setup_times), "s"],
        "txn_per_s_p25": [rate(rec), "1/s"],
        "op_p75_ms": [quantile(primary, 0.75) * 1e3, "ms"],
        "op_p95_ms": [block_p95(primary) * 1e3, "ms"],
        "peak_rss_mb": [peak_rss_mb(), "MB"],
    }


def work_counts(rec) -> dict:
    return {name: sorted(values) for name, values in sorted(rec.work.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    from workloads import WORKLOADS, Recorder, source_digest
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    run_stamp = stamp(source_digest(ROOT))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": run_stamp}

    if args.trace:
        from tracing import Tracer
        untraced_kw, traced_kw = getattr(cls, "TRACE_PHASES", ({}, {}))
        plain = Recorder()
        measure(cls(**untraced_kw), args.seed, args.seconds / 2, 1, plain)
        rec = Recorder()
        tracer = Tracer(rec)
        measure(cls(**traced_kw), args.seed, args.seconds / 2, 1, rec, tracer)
        metrics = {k: list(v) for k, v in tracer.layer_metrics().items()}
        plain_tps, traced_tps = rate(plain), rate(rec)
        metrics["trace.overhead.txn_per_s"] = [traced_tps - plain_tps, "1/s"]
        metrics["trace.spans"] = [len(tracer.spans) + tracer.dropped_spans,
                                  "count"]
        for name in ("scalar_mul.auth", "scalar_mul.register"):
            seen = rec.work.get(name) or {0}
            metrics[f"work.{name}"] = [max(seen), "count"]
        messages = tracer.experiment_messages
        if messages:
            rec.check(all(m == messages[0] for m in messages),
                      "Network.accounting differs between repeats of one seed")
            rec.checked["messages_per_experiment"] = messages[0]
        rec.absorb(plain)
        report["untraced_txn_per_s"] = plain_tps
        report["traced_txn_per_s"] = traced_tps
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path, {"workload": args.workload,
                                        "seed": args.seed, **run_stamp})
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        rec = Recorder()
        setup_times = measure(cls(), args.seed, args.seconds,
                              cls.setup_repeats, rec)
        metrics = end_to_end(cls, rec, setup_times)
        report["detail"] = detail_metrics(rec, setup_times)

    report["work"] = work_counts(rec)
    report["checked"] = rec.checked
    report["failures"] = dict(rec.failures)
    correct = rec.failed == 0 and rec.attempted > 0
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print_report(report, metrics)
    print(json.dumps(result))
    return 0 if correct else 1


def print_report(report: dict, metrics: dict) -> None:
    s = report["stamp"]
    print(f"fogbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}")
    print(f"  nproc={s['nproc']} cpu={s['cpu']!r} python={s['python']} "
          f"cryptography={s['cryptography']} numpy={s['numpy']} "
          f"git={s['git_sha']} dirty={s['git_dirty']} "
          f"src={s['source_digest']}")
    rows = report.get("detail") or {k: v + [""] for k, v in metrics.items()}
    for name, (value, unit, n) in rows.items():
        count = f"n={n}" if n != "" else ""
        print(f"  {name:38s} {value:14.4f} {unit:6s} {count}")
    if "detail" in report:
        for name, (value, unit) in metrics.items():
            print(f"  gated {name:32s} {value:14.4f} {unit}")
    for name, values in report["work"].items():
        print(f"  work {name}: {values}")
    for what, count in report["failures"].items():
        print(f"  FAILED x{count}: {what}")


if __name__ == "__main__":
    sys.exit(main())
