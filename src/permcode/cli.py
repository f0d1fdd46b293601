"""Command-line front end.

Subcommands:

* encode / decode: permutation <-> code, for the slice code (default) or
  the Lehmer code;
* stats: the five set-valued statistics plus the per-position case
  classification;
* trace: the full slice and profile history of a permutation;
* verify: whole-domain checks for one n (see permcode.enumeration);
* table: the joint (des, ides) / (asc, row) distribution for one n.

Words are passed as one quoted argument ("6 2 5 8 7 3 1 4"); without the
argument, words are read from standard input, one per line, yielding one
output line per input line (bad lines go to stderr with their line
number).  Exit status: 0 on success, 1 when a verifier found a
counterexample, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Callable, Sequence

from .core import (
    InvalidWordError,
    UsageError,
    check_permutation,
    check_subexcedant,
    format_positions,
    format_word,
    parse_word,
    perm_stats,
    seq_stats,
)
from .enumeration import (
    DEFAULT_CAP,
    double_eulerian,
    verify_asc_row_exchange,
    verify_bijection,
    verify_eulerian_marginals,
    verify_five_tuples,
)
from .inverse import _decode
from .lehmer import _lehmer_decode, _lehmer_encode
from .slices import _code_cases, _slice_cases, _slice_encode, profiles, slices

__all__ = ["main"]

_STAT_NAMES = {
    "perm": ("Des", "Ides", "LrM", "Lrm", "RlM"),
    "seq": ("Asc", "Row", "Pos0", "Max", "Rlm"),
}


# The renderers get words _run_word_command has checked, so they call the
# codec kernels, which do not check them again.


def _encode_word(args: argparse.Namespace, word) -> list[str]:
    coder = _slice_encode if args.code == "b" else _lehmer_encode
    return [format_word(coder(word))]


def _decode_word(args: argparse.Namespace, word) -> list[str]:
    coder = _decode if args.code == "b" else _lehmer_decode
    return [format_word(coder(word))]


def _stats(args: argparse.Namespace, word) -> tuple:
    if args.kind == "perm":
        return perm_stats(word), _slice_cases(word)
    return seq_stats(word), _code_cases(word)


def _stats_lines(args: argparse.Namespace, word) -> list[str]:
    stats, cases = _stats(args, word)
    lines = [
        f"{name} = {format_positions(part)}"
        for name, part in zip(_STAT_NAMES[args.kind], stats)
    ]
    lines.append(f"cases = {format_word(cases)}")
    return lines


def _stats_batch_line(args: argparse.Namespace, word) -> list[str]:
    stats, cases = _stats(args, word)
    sets = " ".join(format_positions(part) for part in stats)
    return [f"{sets} | {format_word(cases)}"]


def _trace_lines(args: argparse.Namespace, word) -> list[str]:
    out = []
    for sl in slices(word):
        body = ",".join(
            f"([{lo},{hi}],{label})" for lo, hi, label in sl.intervals
        )
        out.append(f"U_{sl.step} = {body}")
    for pr in profiles(word):
        body = ",".join(f"[{lo},{hi}]" for lo, hi in pr.intervals)
        out.append(f"P_{pr.step} = {body}")
    return out


def _run_word_command(
    args: argparse.Namespace,
    check: Callable,
    render: Callable,
    batch_render: Callable | None = None,
) -> int:
    if args.word is not None:
        word = parse_word(args.word)
        check(word)
        print("\n".join(render(args, word)))
        return 0
    failed = False
    first_block = True
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            word = parse_word(line)
            check(word)
            lines = (batch_render or render)(args, word)
        except InvalidWordError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            failed = True
            continue
        if batch_render is None and not first_block:
            print()
        first_block = False
        print("\n".join(lines))
    return 2 if failed else 0


def _cmd_encode(args: argparse.Namespace) -> int:
    return _run_word_command(args, check_permutation, _encode_word, _encode_word)


def _cmd_decode(args: argparse.Namespace) -> int:
    return _run_word_command(args, check_subexcedant, _decode_word, _decode_word)


def _cmd_stats(args: argparse.Namespace) -> int:
    check = check_permutation if args.kind == "perm" else check_subexcedant
    return _run_word_command(args, check, _stats_lines, _stats_batch_line)


def _cmd_trace(args: argparse.Namespace) -> int:
    return _run_word_command(args, check_permutation, _trace_lines)


_CHECKS = {
    "2": verify_five_tuples,
    "bijection": verify_bijection,
    "corollary2": verify_asc_row_exchange,
    "eulerian": verify_eulerian_marginals,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(_CHECKS) if args.theorem == "all" else [args.theorem]
    reports = [
        _CHECKS[name](args.n, cap=args.cap, jobs=args.jobs) for name in names
    ]
    if args.format == "json":
        payload = [r.json_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        for report in reports:
            print(report.text())
    return 0 if all(r.passed for r in reports) else 1


def _matrix(counts: Counter, n: int) -> list[list[int]]:
    """The n x n matrix of counts keyed by (d, e) pairs, indexed [d][e]."""
    return [[counts[d, e] for e in range(n)] for d in range(n)]


def _polynomial(counts: Counter) -> str:
    """Generating polynomial with the display shift (d, e) -> (d+1, e+1).

    >>> _polynomial(Counter({(0, 0): 1, (1, 1): 4, (2, 2): 1}))
    'u*v + 4*u^2*v^2 + u^3*v^3'
    """
    terms = []
    for (d, e), cnt in sorted(counts.items()):
        coeff = "" if cnt == 1 else f"{cnt}*"
        u = "u" if d == 0 else f"u^{d + 1}"
        v = "v" if e == 0 else f"v^{e + 1}"
        terms.append(f"{coeff}{u}*{v}")
    return " + ".join(terms) if terms else "0"


def _cmd_table(args: argparse.Namespace) -> int:
    counts = double_eulerian(args.n, side=args.side, cap=args.cap)
    matrix = _matrix(counts, args.n)
    total = sum(counts.values())
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "side": args.side,
                    "total": total,
                    "matrix": matrix,
                    "polynomial": _polynomial(counts),
                },
                indent=2,
            )
        )
    else:
        print(f"n = {args.n}, side = {args.side}, total = {total}")
        width = max(len(str(c)) for row in matrix for c in row)
        width = max(width, len(str(args.n - 1)))
        header = " ".join(f"{e:>{width}}" for e in range(args.n))
        corner = "d\\e"
        print(f"{corner:>{width + 2}} {header}")
        for d, row in enumerate(matrix):
            cells = " ".join(f"{c:>{width}}" for c in row)
            print(f"{d:>{width + 2}} {cells}")
        print(_polynomial(counts))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permcode",
        description="Subexcedant codes for permutations and their statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "word",
            nargs="?",
            help="quoted word, e.g. '6 2 5 8 7 3 1 4'; omit to read lines from stdin",
        )
        return cmd

    encode = add_word_command("encode", "permutation -> code")
    decode = add_word_command("decode", "code -> permutation")
    for cmd in (encode, decode):
        cmd.add_argument(
            "--code",
            choices=("b", "lehmer"),
            default="b",
            help="which code to use (default: the slice code b)",
        )
    encode.set_defaults(handler=_cmd_encode)
    decode.set_defaults(handler=_cmd_decode)

    stats = add_word_command("stats", "five set-valued statistics plus cases")
    stats.add_argument(
        "--kind",
        choices=("perm", "seq"),
        required=True,
        help="interpret the word as a permutation or a subexcedant sequence",
    )
    stats.set_defaults(handler=_cmd_stats)

    trace = add_word_command("trace", "slice and profile history of a permutation")
    trace.set_defaults(handler=_cmd_trace)

    verify = sub.add_parser("verify", help="whole-domain checks for one n")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument(
        "--theorem",
        choices=("2", "bijection", "corollary2", "eulerian", "all"),
        default="all",
        help="which check to run (default: all)",
    )
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--cap", type=int, default=DEFAULT_CAP)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(handler=_cmd_verify)

    table = sub.add_parser("table", help="joint distribution table for one n")
    table.add_argument("--n", type=int, required=True)
    table.add_argument("--side", choices=("perms", "seqs"), default="perms")
    table.add_argument("--format", choices=("json", "text"), default="text")
    table.add_argument("--cap", type=int, default=DEFAULT_CAP)
    table.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InvalidWordError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
