"""The permcode benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; no install is needed, since src/ is put on
the path and the CLI is started as `python -m permcode.cli`.  Workloads,
their sizes and the default and held-out seeds are defined in workloads.py;
names, units and bounds of the metrics in BENCHMARK.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured untraced:

    setup_s      median wall time of a fresh interpreter importing permcode
                 (permcode.cli on cli-stream), over several starts
    peak_rss_mb  peak resident set of the largest process of the run: this
                 one or any child (a child's figure includes what it
                 inherited from this process when it was started)
    items_per_s  cases/s on the sweeps, words/s on long-words, lines/s on
                 cli-stream

With --trace 1 they are the per-layer metrics, read from the
spans of tracing.py, and trace.overhead_frac, the slow-down tracing causes
on a smaller instance of the same workload.  The lines before the last one
give the provenance of the result, fail_frac, and each workload's own
figures by name and unit (per-theorem times, codec percentiles, lines/s).

Exit status: 0 when every output was correct, 1 when the gate found a wrong
output, 2 when the package cannot be imported or the arguments are bad, 3
when the workload needs more CPUs than this process may use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, ROOT, SRC, WORKLOADS, subprocess_env

SETUP_STARTS = 9

# Metric names, units and bounds live in BENCHMARK.json; this file only
# computes the values.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def measure_setup(module: str) -> float:
    """Median wall time of a fresh interpreter that imports `module`."""
    cmd = [sys.executable, "-c", f"import {module}"]
    env = subprocess_env()
    samples = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        if i:  # the first start may write bytecode caches
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def provenance(seed: int) -> dict:
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = ["git", "-C", ROOT]
            sha = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "git_sha": sha,
        "dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def layer_metrics(tracer, outcome, overhead_frac: float) -> dict:
    records = tracer.records

    def calls(*keys):
        return sum(records[k][0] for k in keys if k in records)

    def own(*keys):
        return sum((records[k][2] for k in keys if k in records), 0.0)

    layers = outcome.layers
    pool = records.get("enumeration.pool", (0, 0.0, 0.0))
    values = {
        "slices.encode_calls": calls("slices.encode"),
        "slices.encode_s": own("slices.encode"),
        "slices.cases_s": own("slices.cases"),
        "inverse.decode_calls": calls("inverse.decode"),
        "inverse.decode_s": own("inverse.decode"),
        "lehmer.encode_s": own("lehmer.encode"),
        "lehmer.decode_s": own("lehmer.decode"),
        "lehmer.dumont_s": own("lehmer.dumont"),
        "core.check_calls": calls("core.check"),
        "core.check_s": own("core.check"),
        "core.checks_per_case": calls("core.check") / outcome.items,
        "core.stats_calls": calls("core.stats"),
        "core.stats_s": own("core.stats"),
        "core.invert_s": own("core.invert"),
        "enumeration.cases": layers.get("enumeration.cases", 0),
        "enumeration.self_s": own("enumeration.verify", "enumeration.block"),
        "enumeration.pools": pool[0],
        "enumeration.worker_cpu_s": layers.get("enumeration.worker_cpu_s", 0.0),
        "enumeration.parent_cpu_s": layers.get("enumeration.parent_cpu_s", 0.0),
        "enumeration.wait_s": pool[1],
        "enumeration.cores_used": layers.get("enumeration.cores_used", 0.0),
        "cli.lines": calls("cli.parse"),
        "cli.parse_s": own("cli.parse"),
        "cli.format_s": own("cli.format"),
        "cli.io_s": own("cli.io"),
        "trace.overhead_frac": overhead_frac,
    }
    return values


def traced_run(workload, seed: int, seconds: float):
    from tracing import Tracer

    probe = workload.shrink(workload.sizes)
    plain = workload.runner(**probe, seed=seed, seconds=0, tracer=None).busy_s
    traced = workload.runner(**probe, seed=seed, seconds=0, tracer=Tracer()).busy_s
    tracer = Tracer()
    outcome = workload.runner(
        **workload.sizes, seed=seed, seconds=seconds, tracer=tracer
    )
    return outcome, layer_metrics(tracer, outcome, traced / plain - 1.0)


def with_units(values: dict, group: str) -> dict:
    return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC[group]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be at least 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "permcode", "__init__.py")):
        print(f"error: no permcode package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import permcode  # noqa: F401  (fails here, before any result, if broken)

    workload = WORKLOADS[args.workload]
    cpus = len(os.sched_getaffinity(0))
    if cpus < workload.cpus:
        print(
            f"not run: {workload.name} needs {workload.cpus} usable CPUs, "
            f"this process may use {cpus}",
            file=sys.stderr,
        )
        return 3
    prov = provenance(args.seed)
    setup_s = measure_setup(workload.setup_module)
    if args.trace:
        outcome, values = traced_run(workload, args.seed, args.seconds)
        metrics = with_units(values, "per_layer")
    else:
        outcome = workload.runner(
            **workload.sizes, seed=args.seed, seconds=args.seconds, tracer=None
        )
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "items_per_s": outcome.items_per_s,
        }
        metrics = with_units(values, "end_to_end")

    print(f"workload {workload.name}, trace {args.trace}: {WHY[workload.name]}")
    print("provenance " + json.dumps(prov))
    shown = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "fail_frac": (outcome.failed / outcome.attempted, "ratio"),
        "attempted": (outcome.attempted, "count"),
        **outcome.detail,
        **metrics,
    }
    for name, (value, unit) in shown.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
