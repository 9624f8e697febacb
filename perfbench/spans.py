"""Per-layer spans recorded from outside the package.

Each layer is a public function or method of an ``inferbench`` module,
named ``<module>.<qualname>`` (``objective.total_loss``,
``backend.Vocabulary.encode``). :meth:`Tracer.install` replaces every
module-level binding of the function, in every loaded ``inferbench``
module, with a wrapper that records a span while the tracer is active.
The package imports many names with ``from .x import y``; patching only
the defining module would lose those calls without any error.

Spans are aggregated per (name, parent) as they close, because one
``gradcheck`` op makes ~2e5 ``tokenize`` calls: per-call records would
not fit in memory. A span's self time is its duration minus the time
its child spans cover; calls nest on one thread, so that is the sum of
the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


def _accept(result) -> tuple[int, int]:
    """non_optimal slots accepted / top-k decode attempts."""
    rows = result.provenance
    return sum(not p["dropped"] for p in rows), sum(p["attempts"] for p in rows)


def _fallback(result) -> tuple[int, int]:
    """token_replace sets that fell back to the argmax position / sets."""
    return int(any(p["fallback"] for p in result.provenance)), 1


# stat -> result -> (numerator, denominator); ``calls`` and ``self_s``
# come from the span itself
RESULT_STATS = {
    "tokens": lambda result: (len(result), 1),
    "accept_ratio": _accept,
    "fallback_ratio": _fallback,
}


class Tracer:
    """Span recorder shared by the wrappers it installs."""

    def __init__(self):
        self.active = False
        self._stack: list[tuple[str, list[float]]] = []
        self.spans: dict[tuple[str, str | None], list[float]] = {}
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.absent: list[str] = []
        self.layers: dict[str, list[str]] = {}

    def reset(self) -> None:
        self.spans = {}
        self.stats.clear()

    def install(self, layers: dict[str, list[str]]) -> None:
        """Wrap each ``<module>.<qualname>`` in ``layers`` (name -> extra
        stats). A name the package no longer defines is recorded in
        ``absent`` and reports zero calls."""
        self.layers.update(layers)
        for name, stats in layers.items():
            extra = [s for s in stats if s not in ("calls", "self_s")]
            unknown = [s for s in extra if s not in RESULT_STATS]
            if unknown:
                raise ValueError(f"{name}: no rule for stats {unknown}")
            module_name, *path = name.split(".")
            module = importlib.import_module(f"inferbench.{module_name}")
            owner = module
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, extra)
            if owner is module:
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded_name.startswith("inferbench") and loaded is not None:
                        for attr, value in list(vars(loaded).items()):
                            if value is original:
                                setattr(loaded, attr, wrapper)
            else:
                setattr(owner, path[-1], wrapper)

    def _wrap(self, name: str, fn, stats: list[str]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            children = [0.0]
            stack.append((name, children))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1][0] += duration
                agg = tracer.spans.get((name, parent))
                if agg is None:
                    agg = tracer.spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - children[0]
            for stat in stats:
                num, den = RESULT_STATS[stat](result)
                acc = tracer.stats[(name, stat)]
                acc[0] += num
                acc[1] += den
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Root span (one op); the wrappers record only inside it."""
        children = [0.0]
        self.active = True
        self._stack.append((name, children))
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.active = False
            self.spans[(name, None)] = [1, duration, duration - children[0]]

    def layer_values(self, name: str, stat: str) -> float:
        """Per-op value of one stat of one layer, summed over parents."""
        if stat == "calls":
            return sum(v[0] for (n, _), v in self.spans.items() if n == name)
        if stat == "self_s":
            return sum(v[2] for (n, _), v in self.spans.items() if n == name)
        num, den = self.stats.get((name, stat), (0, 0))
        if stat == "tokens":
            return num
        return num / den if den else 0.0

    def snapshot(self) -> dict:
        """Every ``<layer>.<stat>`` value since the last reset, plus each
        (name, parent) aggregate."""
        return {
            "values": {
                f"{name}.{stat}": self.layer_values(name, stat)
                for name, stats in self.layers.items() for stat in stats
            },
            "spans": [
                {"name": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (n, p), v in sorted(self.spans.items(), key=lambda kv: -kv[1][2])
            ],
        }

