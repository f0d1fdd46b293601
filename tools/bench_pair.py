"""Benchmark a change against its parent commit and write BENCH_<slug>.json.

    python3 tools/bench_pair.py --parent REF --slug SLUG [--pairs 10]
        [--seconds 10] [--workloads W,...] [--heldout-pairs 10]
        [--sizes 9,2000,10000,100000,1000000] [--timeout 900] [--out FILE]
    python3 tools/bench_pair.py --smoke --parent-tree DIR --out FILE

Run it from the root of the change's checkout.  The parent is checked out
with `git worktree add` into a temporary directory, removed at the end;
--parent-tree names an existing checkout to use instead.

Three parts, both sides each time, alternating which runs first (pair i
runs the parent first when i is even):

* end to end: the unchanged perfbench/run.py, --pairs runs per side and
  workload at the default seed, then --heldout-pairs long-words runs at
  the held-out seed 7913;
* per word: slice_encode, slice_decode, lehmer_encode and lehmer_decode
  timed on one seeded random permutation and on the adversarial one
  (n, n - 2, ..., then the other parity upward) of each size in --sizes,
  and on their codes;
* for each end-to-end metric: median and quartiles per side, the ratio
  of the medians, and the pairs the change won, "better" being read from
  BENCHMARK.json.

Wall time is bounded by the flags: at most 2 * (pairs * workloads +
heldout-pairs) benchmark runs and 2 * sizes timing processes, each killed
after --timeout seconds and recorded as timed out.  --smoke runs one
long-words pair, one held-out pair of 1 s each and sizes 9 and 300.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HELDOUT_SEED = 7913
WORKLOADS = ("sweep-serial", "sweep-jobs2", "long-words", "cli-stream")
SIZES = (9, 2000, 10_000, 100_000, 1_000_000)
SIDES = ("parent", "change")
DETAIL = re.compile(r"^(\S+) = (\S+) (\S+)$")

# Run in a fresh interpreter with the side's src/ on the path: times the
# four codecs per word, at each of argv[1:]'s sizes, as JSON on stdout.
TIMER = r"""
import json, random, sys, time
import permcode as P

def per_call(fn, arg, n):
    # calls of about 0.2 s per sample, median of 5 samples; 1 call past 10^4
    calls, samples = (max(1, 20_000 // n), 5) if n <= 10_000 else (1, 1)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        times.append((time.perf_counter() - t0) / calls)
    times.sort()
    return times[len(times) // 2]

out = {}
for n in map(int, sys.argv[1:]):
    rng = random.Random(1606 + n)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    words = {
        "random": tuple(perm),
        "adversarial": (*range(n, 0, -2), *range(1 + n % 2, n, 2)),
    }
    for kind, p in words.items():
        code, lehmer = P.slice_encode(p), P.lehmer_encode(p)
        assert P.slice_decode(code) == p and P.lehmer_decode(lehmer) == p
        out.setdefault(kind, {})[str(n)] = {
            "slice_encode": per_call(P.slice_encode, p, n),
            "slice_decode": per_call(P.slice_decode, code, n),
            "lehmer_encode": per_call(P.lehmer_encode, p, n),
            "lehmer_decode": per_call(P.lehmer_decode, lehmer, n),
        }
print(json.dumps(out))
"""


def git(*args: str, cwd: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def src_sha256(root: str) -> str:
    """One hash over the paths and bytes of the .py files under src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run(cmd: list[str], cwd: str, timeout: float, env: dict | None = None):
    """(returncode or "timeout", stdout, wall seconds) of one process."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return "timeout", "", time.perf_counter() - t0
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def bench_run(root: str, workload: str, seed: int | None, seconds: float, timeout: float) -> dict:
    """The end-to-end metrics and the printed figures of one perfbench run,
    at the benchmark's default seed when seed is None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    code, out, wall = run(cmd, root, timeout)
    lines = out.strip().splitlines()
    result = {"exit": code, "wall_s": round(wall, 3)}
    if code != 0 or not lines:
        return result
    last = json.loads(lines[-1])
    result.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    result.update({k: v["value"] for k, v in last["metrics"].items()})
    for line in lines[:-1]:
        match = DETAIL.match(line)
        if match and match[1] not in result:
            try:
                result[match[1]] = float(match[2])
            except ValueError:
                pass
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the median ratio and the wins."""
    out = {}
    for name, direction in better.items():
        pairs = [(r["parent"].get(name), r["change"].get(name)) for r in runs]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        sign = 1 if direction == "higher" else -1
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        out[name] = {
            "parent": parent,
            "change": change,
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "pairs": len(pairs),
        }
    return out


def paired(roots: dict, workload: str, seed: int | None, pairs: int, args, better: dict) -> dict:
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        row = {"pair": i, "first": order[0]}
        for side in order:
            row[side] = bench_run(roots[side], workload, seed, args.seconds, args.timeout)
        print(f"{workload} seed {seed or 'default'} pair {i}: "
              + ", ".join(f"{s} {row[s].get('items_per_s')}" for s in SIDES),
              file=sys.stderr, flush=True)
        runs.append(row)
    return {"seed": seed or "default", "runs": runs, "summary": summarize(runs, better)}


def per_word(roots: dict, args) -> dict:
    """Codec seconds per word, per side, word kind and size."""
    out = {side: {} for side in SIDES}
    for i, n in enumerate(args.sizes):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            env = {**os.environ, "PYTHONPATH": os.path.join(roots[side], "src")}
            code, stdout, _ = run([sys.executable, "-c", TIMER, str(n)],
                                  roots[side], args.timeout, env)
            if code != 0:
                for kind in ("random", "adversarial"):
                    out[side].setdefault(kind, {})[str(n)] = {"exit": code}
                continue
            for kind, rows in json.loads(stdout).items():
                out[side].setdefault(kind, {}).update(rows)
            print(f"per word n={n} {side} done", file=sys.stderr, flush=True)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="git ref of the parent")
    parser.add_argument("--parent-tree", help="existing checkout of the parent")
    parser.add_argument("--slug", default="pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--heldout-pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="seconds before one run or timing process is killed")
    parser.add_argument("--out", help="default: BENCH_<slug>.json")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        args.pairs, args.heldout_pairs, args.seconds = 1, 1, 1.0
        args.workloads, args.sizes = "long-words", "9,300"
    args.workloads = [w for w in args.workloads.split(",") if w]
    args.sizes = [int(n) for n in args.sizes.split(",") if n]
    if unknown := set(args.workloads) - set(WORKLOADS):
        parser.error(f"unknown workloads: {sorted(unknown)}")
    if min(args.pairs, args.heldout_pairs) < 0 or args.seconds < 0 or args.timeout <= 0:
        parser.error("pairs and seconds must be nonnegative, timeout positive")
    args.out = args.out or f"BENCH_{args.slug}.json"
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    change = os.getcwd()
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    worktree = None
    if args.parent_tree:
        parent = os.path.abspath(args.parent_tree)
    else:
        worktree = parent = tempfile.mkdtemp(prefix="bench-parent-")
        os.rmdir(worktree)
        git("worktree", "add", "--detach", worktree, args.parent, cwd=change)
    try:
        roots = {"parent": parent, "change": change}
        report = {
            "slug": args.slug,
            "parent_ref": args.parent,
            "host": {
                "machine": platform.machine(),
                "system": platform.system(),
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
            },
            "settings": {
                "pairs": args.pairs,
                "heldout_pairs": args.heldout_pairs,
                "seconds": args.seconds,
                "workloads": args.workloads,
                "sizes": args.sizes,
                "timeout_s": args.timeout,
            },
            "src_sha256": {side: src_sha256(root) for side, root in roots.items()},
            "end_to_end": {},
        }
        for workload in args.workloads:
            report["end_to_end"][workload] = paired(
                roots, workload, None, args.pairs, args, better
            )
        if args.heldout_pairs:
            report["heldout_long_words"] = paired(
                roots, "long-words", HELDOUT_SEED, args.heldout_pairs, args, better
            )
        report["per_word_s"] = per_word(roots, args)
    finally:
        if worktree is not None:
            git("worktree", "remove", "--force", worktree, cwd=change)
            shutil.rmtree(worktree, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
