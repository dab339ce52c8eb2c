"""Spans around the program's public functions, installed from outside it.

A ``Tracer`` replaces each traced function with a wrapper that records a span
(name, start, end, parent) and restores the originals when the ``installed``
block ends.  A function is patched under every name that holds it in any
loaded ``rulefill`` module, because a caller looks a name up in its own
module: ``rulefill.cli.impute_dataset`` and ``rulefill.bench.impute_dataset``
are both the imputer's function.  Methods are patched on their class.  A
target the program no longer defines is recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """``qualname`` in ``module`` (``"func"`` or ``"Class.method"``) traced as ``span``.

    ``observe(tracer, args, result)`` runs after each call that returns, to
    add counts at the same boundary.
    """

    module: str
    qualname: str
    span: str
    observe: object = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay."""
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every target for the duration of the block, then restore."""
        self.absent = []
        try:
            for target in targets:
                self._install(target)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _install(self, target: Target) -> None:
        module = sys.modules.get(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            if original is None:
                self.absent.append(f"{target.module}.{target.qualname}")
                return
            self._patch(owner, attr, self.wrap(target.span, original, target.observe))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{target.module}.{target.qualname}")
            return
        wrapped = self.wrap(target.span, original, target.observe)
        package = target.module.partition(".")[0]
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, key, wrapped)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: total time ``s``, self time ``self_s`` and ``calls``.

    ``s`` counts only the outermost span of a name, so a function that
    reaches itself again is not counted twice.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["s"] += end - start
    return table


def outermost_time(spans, prefix: str) -> float:
    """Time covered by spans whose name starts with ``prefix``, nesting counted once."""
    total = 0.0
    for name, start, end, parent in spans:
        if not name.startswith(prefix):
            continue
        ancestor = parent
        while ancestor is not None and not spans[ancestor][0].startswith(prefix):
            ancestor = spans[ancestor][3]
        if ancestor is None:
            total += end - start
    return total
