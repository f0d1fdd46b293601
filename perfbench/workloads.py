"""The benchmark's workloads: sizes, seeded inputs, timed loops and gates.

Every workload is a closed loop driven by one client process: the next
call starts when the previous one returned.  None uses more than two
processes.  Each runner takes its sizes, the seed, the run length and an
optional Tracer, and returns an Outcome; while a tracer is given, the
runner installs it around its timed calls only.

Sizes were chosen from timings of the first benchmarked commit on a
2-core box: a run of every workload ends within about a minute.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import factorial

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1606
# Not used while the benchmark was tuned; kept for confirming later claims.
HELDOUT_SEED = 7913

# Exhaustive sweeps stay at or under the package's default cap of 10.
MAX_SWEEP_N = 10
CLI_TIMEOUT_S = 120
clock = time.perf_counter


@dataclass
class Outcome:
    """What one run measured.

    items counts the workload's unit of work (cases, words or lines) and
    items_per_s its rate.  detail holds the workload's own end-to-end
    figures as name -> (value, unit); layers holds per-layer figures the
    runner measures itself rather than through spans.
    """

    items: int
    items_per_s: float
    busy_s: float
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    runner: Callable[..., Outcome]
    sizes: dict
    shrink: Callable[[dict], dict]  # sizes of the tracing-overhead probe
    setup_module: str = "permcode"
    cpus: int = 1


@contextmanager
def session(tracer: tracing.Tracer | None):
    """The package functions to call, traced while the block runs."""
    if tracer is None:
        yield tracing.api()
        return
    tracer.install()
    try:
        yield tracing.api(tracer)
    finally:
        tracer.uninstall()


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return env


def cpu_times() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[-1]


# ---------------------------------------------------------------------------
# correctness gates: expectations the benchmark computes on its own


def eulerian_row(n: int) -> list[int]:
    """A(n, k) for k = 0..n-1 by A(m, k) = (k+1) A(m-1, k) + (m-k) A(m-1, k-1)."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < m - 1 else 0)
            + (m - k) * (row[k - 1] if k else 0)
            for k in range(m)
        ]
    return row


def is_subexcedant(word) -> bool:
    return all(0 <= v < i for i, v in enumerate(word, start=1))


def fmt(word) -> str:
    return " ".join(map(str, word))


def stats_line(perm) -> str:
    """The `stats --kind perm` batch line, formatted from library results."""
    import permcode

    sets = " ".join("{" + fmt(part) + "}" for part in permcode.perm_stats(perm))
    return f"{sets} | {fmt(permcode.slice_cases(perm))}"


# ---------------------------------------------------------------------------
# sweeps

# (Report.check, verifier, cases per n!, metric)
VERIFIERS = (
    ("2", "verify_five_tuples", 1, "five_tuples_s"),
    ("bijection", "verify_bijection", 2, "bijection_s"),
    ("corollary2", "verify_asc_row_exchange", 1, "corollary2_s"),
    ("eulerian", "verify_eulerian_marginals", 2, "eulerian_s"),
)


def sweep_report_ok(report, check: str, n: int, per_n_fact: int) -> bool:
    if not (report.passed and report.check == check):
        return False
    if report.cases != per_n_fact * factorial(n):
        return False
    if check == "eulerian":
        expected = {str(k): a for k, a in enumerate(eulerian_row(n))}
        return report.table == expected
    return True


def run_sweep(*, n: int, jobs: int, seed: int, seconds: float, tracer=None) -> Outcome:
    """Whole sweeps of the four verifiers, repeated until `seconds` pass.

    The domain is exhaustive, so no input depends on the seed.
    """
    if not 1 <= n <= MAX_SWEEP_N:
        raise ValueError(f"sweep n must be in 1..{MAX_SWEEP_N}, got {n}")
    times: dict[str, list[float]] = {metric: [] for *_, metric in VERIFIERS}
    cases = attempted = failed = 0
    busy = 0.0
    cpu0 = cpu_times()
    start = clock()
    with session(tracer) as lib:
        while True:
            for check, name, per_n_fact, metric in VERIFIERS:
                t0 = clock()
                report = getattr(lib, name)(n, jobs=jobs)
                dt = clock() - t0
                busy += dt
                times[metric].append(dt)
                cases += report.cases
                attempted += 1
                failed += not sweep_report_ok(report, check, n, per_n_fact)
            if clock() - start >= seconds:
                break
    wall = clock() - start
    cpu1 = cpu_times()
    detail = {"cases_per_s": (cases / busy, "1/s")}
    detail.update((m, (statistics.median(t), "s")) for m, t in times.items())
    detail["sweeps"] = (len(times["five_tuples_s"]), "count")
    return Outcome(
        items=cases,
        items_per_s=cases / busy,
        busy_s=busy,
        attempted=attempted,
        failed=failed,
        detail=detail,
        layers={
            "enumeration.cases": cases,
            "enumeration.parent_cpu_s": cpu1[0] - cpu0[0],
            "enumeration.worker_cpu_s": cpu1[1] - cpu0[1],
            "enumeration.cores_used": (cpu1[0] - cpu0[0] + cpu1[1] - cpu0[1]) / wall,
        },
    )


# ---------------------------------------------------------------------------
# long words


def run_long_words(
    *, n: int, min_words: int, seed: int, seconds: float, tracer=None
) -> Outcome:
    """Seeded random permutations of length n through both codes.

    Runs until `seconds` pass and at least min_words words are done.
    """
    rng = random.Random(seed)
    encode, decode, lehmer = [], [], []
    busy = 0.0
    failed = 0
    start = clock()
    with session(tracer) as lib:
        while len(encode) < min_words or clock() - start < seconds:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            perm = tuple(perm)
            t0 = clock()
            code = lib.slice_encode(perm)
            t1 = clock()
            back = lib.slice_decode(code)
            t2 = clock()
            lcode = lib.lehmer_encode(perm)
            lback = lib.lehmer_decode(lcode)
            t3 = clock()
            left, right = lib.perm_stats(perm), lib.seq_stats(code)
            t4 = clock()
            encode.append(t1 - t0)
            decode.append(t2 - t1)
            lehmer.append(t3 - t2)
            busy += t4 - t0
            failed += not (
                back == perm
                and lback == perm
                and left == right
                and is_subexcedant(code)
                and is_subexcedant(lcode)
            )
    words = len(encode)
    ms = 1000.0
    return Outcome(
        items=words,
        items_per_s=words / busy,
        busy_s=busy,
        attempted=words,
        failed=failed,
        detail={
            "encode_ms.p50": (statistics.median(encode) * ms, "ms"),
            "encode_ms.p90": (p90(encode) * ms, "ms"),
            "decode_ms.p50": (statistics.median(decode) * ms, "ms"),
            "decode_ms.p90": (p90(decode) * ms, "ms"),
            "lehmer_ms.p50": (statistics.median(lehmer) * ms, "ms"),
            "words_per_s": (words / busy, "1/s"),
            "words": (words, "count"),
        },
    )


# ---------------------------------------------------------------------------
# CLI batch mode


def cli_inputs(lines: int, min_n: int, max_n: int, seed: int):
    """(arguments, stdin text, expected output lines) for each command."""
    import permcode

    rng = random.Random(seed)
    perms = []
    for _ in range(lines):
        perm = list(range(1, rng.randint(min_n, max_n) + 1))
        rng.shuffle(perm)
        perms.append(tuple(perm))
    codes = [permcode.slice_encode(p) for p in perms]
    perm_text = "".join(fmt(p) + "\n" for p in perms)
    return [
        (["encode"], perm_text, [fmt(c) for c in codes]),
        (["decode"], "".join(fmt(c) + "\n" for c in codes), [fmt(p) for p in perms]),
        (["stats", "--kind", "perm"], perm_text, [stats_line(p) for p in perms]),
    ]


def run_cli(
    *,
    lines: int,
    min_n: int,
    max_n: int,
    min_rounds: int,
    seed: int,
    seconds: float,
    tracer=None,
) -> Outcome:
    """Rounds of encode, decode and stats over one seeded batch of words,
    each piped through a fresh `python -m permcode.cli`, until `seconds` pass
    and at least min_rounds rounds are done.  A traced run starts the CLI
    through cli_traced.py and merges the span records it reports."""
    commands = cli_inputs(lines, min_n, max_n, seed)
    if tracer is None:
        prefix = [sys.executable, "-m", "permcode.cli"]
    else:
        prefix = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py")]
    env = subprocess_env()
    per_command: dict[str, list[float]] = {args[0]: [] for args, _, _ in commands}
    rates = []
    busy = 0.0
    attempted = failed = 0
    start = clock()
    while len(rates) < min_rounds or clock() - start < seconds:
        round_s = 0.0
        for args, text, expected in commands:
            t0 = clock()
            proc = subprocess.run(
                prefix + args,
                input=text,
                capture_output=True,
                text=True,
                env=env,
                cwd=ROOT,
                timeout=CLI_TIMEOUT_S,
            )
            dt = clock() - t0
            round_s += dt
            per_command[args[0]].append(dt)
            errors = proc.stderr
            if tracer is not None:
                errors, _, last = proc.stderr.rstrip("\n").rpartition("\n")
                try:
                    tracer.merge(json.loads(last))
                except ValueError:
                    errors = proc.stderr
            got = proc.stdout.splitlines()
            attempted += len(expected)
            if proc.returncode or errors.strip():
                failed += len(expected)
            else:
                bad = sum(a != b for a, b in zip(got, expected))
                bad += abs(len(got) - len(expected))
                failed += min(bad, len(expected))
        busy += round_s
        rates.append(len(commands) * lines / round_s)
    lines_per_s = statistics.median(rates)
    detail = {"lines_per_s": (lines_per_s, "1/s"), "rounds": (len(rates), "count")}
    detail.update(
        (f"{name}_s", (statistics.median(t), "s")) for name, t in per_command.items()
    )
    return Outcome(
        items=len(rates) * len(commands) * lines,
        items_per_s=lines_per_s,
        busy_s=busy,
        attempted=attempted,
        failed=failed,
        detail=detail,
    )


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-serial",
            run_sweep,
            {"n": 9, "jobs": 1},
            lambda s: {**s, "n": s["n"] - 1},
        ),
        Workload(
            "sweep-jobs2",
            run_sweep,
            {"n": 9, "jobs": 2},
            lambda s: {**s, "n": s["n"] - 1},
            cpus=2,
        ),
        Workload(
            "long-words",
            run_long_words,
            {"n": 2000, "min_words": 100},
            lambda s: {**s, "min_words": max(1, s["min_words"] // 10)},
        ),
        Workload(
            "cli-stream",
            run_cli,
            {"lines": 10_000, "min_n": 8, "max_n": 64, "min_rounds": 3},
            lambda s: {**s, "lines": max(1, s["lines"] // 5), "min_rounds": 1},
            setup_module="permcode.cli",
        ),
    )
}
