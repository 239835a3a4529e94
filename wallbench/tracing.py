"""Spans recorded around calls into the program's layers, from outside.

:class:`Tracer` replaces chosen functions — methods on built instances
and module attributes the layers call through — with wrappers that
record one span each: name, start, end, parent span and the benchmark's
unit id (a call or a gateway window).  Spans stay in memory until the
run ends; :meth:`Tracer.restore` puts every original function back.
A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """Wraps functions and records their calls as nested spans."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []  # [name, start, end, parent, unit]
        self.notes: "dict[str, float]" = defaultdict(float)
        self.unit = 0
        self._stack: "list[int]" = []
        self._undo: list = []
        self._wrapped: set = set()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Trace ``owner.attr`` as span ``name`` (once per owner and attr).

        ``note(notes, args, result)`` may add counts taken from the
        arguments or the result, such as candidate counts or shapes.
        """
        key = (id(owner), attr)
        if key in self._wrapped:
            return
        self._wrapped.add(key)
        original = getattr(owner, attr)
        own = attr in vars(owner)
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.unit])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if note is not None:
                note(tracer.notes, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()
        self._wrapped.clear()

    def profile(self) -> "Profile":
        """Per-name call counts, busy and self seconds over every span."""
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        profile = Profile()
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            profile.calls[name] += 1
            profile.busy[name] += duration
            profile.self_time[name] += duration - children[index]
            if children[index] > duration:
                profile.overfull += 1
            if parent >= 0:
                profile.child_calls[(spans[parent][0], name)] += 1
        return profile

    def write(self, path: Path) -> None:
        """Write every span to a gzipped text file.

        The first line is a JSON header naming the fields and the span
        names; each further line is one span: name index, start and end
        in microseconds from the first span's start, parent line (-1 for
        a root) and unit id.
        """
        names = sorted({span[0] for span in self.spans})
        index_of = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["name", "start_us", "end_us", "parent", "unit"], "names": names}) + "\n")
            out.writelines(
                f"{index_of[name]} {(start - origin) * 1e6:.1f} {(end - origin) * 1e6:.1f} {parent} {unit}\n"
                for name, start, end, parent, unit in self.spans
            )


class Profile:
    """Aggregates of one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy: "defaultdict[str, float]" = defaultdict(float)
        self.self_time: "defaultdict[str, float]" = defaultdict(float)
        self.child_calls: Counter = Counter()
        # Spans whose children add up to more than their own wall time.
        self.overfull = 0
