"""Outside-in layer trace: wraps the program's functions where their callers see them.

Each target is ``module.attr`` or ``module.Class.attr``: the name the calling
module looks up at call time (``distnav.planner.fit_preference`` is the
planner's reference to the GP fit). A wrapper records one span per call, with
name, start, end and parent, plus counts taken from the call's arguments or
result. Spans stay in memory until the benchmark reads them. A call nested
directly inside a span of the same name passes through unrecorded, so a
method that calls itself through ``self`` is timed once, at its outer call.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans, None at top level
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed duration of direct children
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _resolve(target: str):
    """(owner, attribute) for a dotted target, or None when it no longer exists."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Installs span-recording wrappers; ``enabled`` switches recording on and off."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, target: str, span: str, counter: Callable | None = None) -> bool:
        """Wrap ``target`` so each call records a span named ``span``.

        ``counter(args, kwargs, result)`` returns a dict of counts to attach.
        A target that does not resolve is skipped with a warning on stderr.
        """
        found = _resolve(target)
        if found is None:
            print(f"bench: warning: {target} not found; {span} is not traced", file=sys.stderr)
            self.missing.append(span)
            return False
        owner, attr = found
        # read a class attribute raw, so the wrapper binds to instances like the original
        original = vars(owner).get(attr, getattr(owner, attr))

        def wrapper(*args, **kwargs):
            stack = self._stack
            if not self.enabled or (stack and self.spans[stack[-1]].name == span):
                return original(*args, **kwargs)
            rec = Span(span, stack[-1] if stack else None, time.perf_counter())
            self.spans.append(rec)
            stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                stack.pop()
                if rec.parent is not None:
                    self.spans[rec.parent].child_s += rec.duration
            if counter is not None:
                rec.counts = counter(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def clear(self) -> None:
        self.spans.clear()

    def has_ancestor(self, rec: Span, name: str) -> bool:
        parent = rec.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds and summed counts."""
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(float)})
        for rec in self.spans:
            agg = out[rec.name]
            agg["calls"] += 1
            agg["total_s"] += rec.duration
            agg["self_s"] += rec.self_s
            for key, value in rec.counts.items():
                agg["counts"][key] += value
        return out
