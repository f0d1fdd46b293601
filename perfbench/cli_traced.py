"""Run the permcode CLI with its layer crossings traced.

Usage: python perfbench/cli_traced.py <permcode.cli arguments>

Behaves like `python -m permcode.cli` with the same arguments, then writes
the span records as one JSON line to standard error.  Reading standard
input counts as cli.io, like printing.
"""

import json
import sys

from tracing import Tracer


class _Lines:
    def __init__(self, next_line) -> None:
        self._next_line = next_line

    def __iter__(self):
        return self

    def __next__(self) -> str:
        return self._next_line()


def main() -> int:
    tracer = Tracer()
    tracer.install()
    import permcode.cli

    sys.stdin = _Lines(tracer.wrap(sys.stdin.__next__, "cli.io"))
    code = permcode.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
