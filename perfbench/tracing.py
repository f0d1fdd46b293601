"""Per-layer spans for a traced benchmark run.

The layers are the package's modules.  A traced run replaces, in each
permcode module, the public names it imported from another permcode module
with timing wrappers, and wraps the calls the benchmark itself makes into
the package the same way.  Calls a module makes to its own functions stay
unseen, so every span marks a crossing between two layers.

Spans nest: each record holds [calls, total seconds, self seconds], where
self time is the span's duration minus the time of the spans it caused.
Nothing under src/ changes; the wrappers are installed into module globals
and removed again by Tracer.uninstall.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

# module -> {imported name: span key}.  "print" is not imported by
# permcode.cli; installing it shadows the builtin so output time is seen.
CROSSINGS = {
    "permcode.enumeration": {
        "slice_encode": "slices.encode",
        "slice_decode": "inverse.decode",
        "perm_stats": "core.stats",
        "seq_stats": "core.stats",
        "descent_set": "core.stats",
        "ascent_set": "core.stats",
        "inverse_descent_set": "core.stats",
        "last_value_set": "core.stats",
        "invert": "core.invert",
        "dumont_stat": "lehmer.dumont",
    },
    "permcode.inverse": {
        "check_subexcedant": "core.check",
        "lehmer_decode": "lehmer.decode",
        "code_cases": "slices.cases",
    },
    "permcode.slices": {
        "check_permutation": "core.check",
        "check_subexcedant": "core.check",
    },
    "permcode.lehmer": {
        "check_permutation": "core.check",
        "check_subexcedant": "core.check",
        "last_value_set": "core.stats",
    },
    "permcode.cli": {
        "parse_word": "cli.parse",
        "format_word": "cli.format",
        "format_positions": "cli.format",
        "check_permutation": "core.check",
        "check_subexcedant": "core.check",
        "perm_stats": "core.stats",
        "seq_stats": "core.stats",
        "slice_encode": "slices.encode",
        "slice_decode": "inverse.decode",
        "lehmer_encode": "lehmer.encode",
        "lehmer_decode": "lehmer.decode",
        "slice_cases": "slices.cases",
        "code_cases": "slices.cases",
        "print": "cli.io",
    },
}

# The package functions the benchmark calls itself, and their span keys.
BENCH_CALLS = {
    "verify_five_tuples": "enumeration.verify",
    "verify_bijection": "enumeration.verify",
    "verify_asc_row_exchange": "enumeration.verify",
    "verify_eulerian_marginals": "enumeration.verify",
    "slice_encode": "slices.encode",
    "slice_decode": "inverse.decode",
    "lehmer_encode": "lehmer.encode",
    "lehmer_decode": "lehmer.decode",
    "perm_stats": "core.stats",
    "seq_stats": "core.stats",
}

_MISSING = object()

# The tracer installed in this process.  A forked pool worker inherits the
# installed wrappers and reaches their records through this name.
_active: Tracer | None = None


def api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The package functions the benchmark calls, wrapped when tracing."""
    import permcode

    funcs = {name: getattr(permcode, name) for name in BENCH_CALLS}
    if tracer is not None:
        funcs = {
            name: tracer.wrap(fn, BENCH_CALLS[name]) for name, fn in funcs.items()
        }
    return SimpleNamespace(**funcs)


class Tracer:
    """Span records keyed by layer.function, plus the installed wrappers."""

    def __init__(self) -> None:
        self.records: dict[str, list] = {}
        # child-time accumulators of the open spans; [0] is the root
        self._stack: list[float] = [0.0]
        self._saved: list[tuple[dict, str, object]] = []

    def _record(self, key: str) -> list:
        return self.records.setdefault(key, [0, 0.0, 0.0])

    def wrap(self, fn, key: str):
        rec = self._record(key)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                stack[-1] += dt

        return traced

    def begin(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def end(self, key: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        rec = self._record(key)
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - self._stack.pop()
        self._stack[-1] += dt

    def reset(self) -> None:
        for rec in self.records.values():
            rec[:] = [0, 0.0, 0.0]
        del self._stack[1:]
        self._stack[0] = 0.0

    def snapshot(self) -> dict[str, tuple]:
        return {key: tuple(rec) for key, rec in self.records.items() if rec[0]}

    def merge(self, snapshot: dict[str, tuple]) -> None:
        for key, (calls, total, own) in snapshot.items():
            rec = self._record(key)
            rec[0] += calls
            rec[1] += total
            rec[2] += own

    def install(self) -> None:
        """Wrap every crossing in CROSSINGS and the pool constructor.

        A name the module no longer imports is skipped, so the spans follow
        the package as its imports change.
        """
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is installed already")
        for modname, names in CROSSINGS.items():
            module = importlib.import_module(modname)
            for name, key in names.items():
                if name == "print":
                    self._patch(module, name, self.wrap(builtins.print, key))
                elif hasattr(module, name):
                    self._patch(module, name, self.wrap(getattr(module, name), key))
        enumeration = sys.modules["permcode.enumeration"]
        if hasattr(enumeration, "ProcessPoolExecutor"):
            self._patch(
                enumeration, "ProcessPoolExecutor", functools.partial(_TracedPool, self)
            )
        _active = self

    def _patch(self, module, name: str, value) -> None:
        self._saved.append((vars(module), name, vars(module).get(name, _MISSING)))
        setattr(module, name, value)

    def uninstall(self) -> None:
        global _active
        for namespace, name, old in reversed(self._saved):
            if old is _MISSING:
                del namespace[name]
            else:
                namespace[name] = old
        self._saved.clear()
        _active = None


class _TracedPool:
    """A ProcessPoolExecutor whose lifetime is a span and whose workers
    send their span records back with each result."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        self._tracer = tracer
        self._pool = ProcessPoolExecutor(*args, **kwargs)

    def __enter__(self) -> "_TracedPool":
        self._t0 = self._tracer.begin()
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.end("enumeration.pool", self._t0)

    def map(self, fn, *iterables):
        for result, snapshot in self._pool.map(
            functools.partial(_traced_call, fn), *iterables
        ):
            self._tracer.merge(snapshot)
            yield result


def _traced_call(fn, *args):
    """Run one block in a pool worker; return its result and span records."""
    tracer = _active
    tracer.reset()
    result = tracer.wrap(fn, "enumeration.block")(*args)
    return result, tracer.snapshot()
