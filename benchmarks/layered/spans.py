"""In-memory span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's own files, around the calls
into each layer (the program is not instrumented).  A span is one row
``[name, start, duration, parent, count]``; ``parent`` is the index of
the enclosing span (-1 for the root).  Calls that happen once per
message or per datagram are *folded*: every call of one name under one
parent shares a row whose duration is the sum and whose ``count`` is
the number of calls, so a run of a million messages stays a few
thousand rows.

A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_NAME, _START, _DUR, _PARENT, _COUNT = range(5)


class Spans:
    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack: list[int] = []
        self._folded: dict[tuple[int, str], int] = {}

    # -- recording -----------------------------------------------------
    def begin(self, name: str, count: int = 1) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.rows))
        self.rows.append([name, time.perf_counter(), 0.0, parent, count])

    def add(self, name: str, duration: float, count: int) -> None:
        """A finished child of the open span, timed by the caller."""
        self.rows.append(
            [name, time.perf_counter() - duration, duration,
             self._stack[-1], count]
        )

    def end(self) -> None:
        row = self.rows[self._stack.pop()]
        row[_DUR] = time.perf_counter() - row[_START]

    def end_to(self, depth: int) -> None:
        """Close open spans until only ``depth`` remain open."""
        while len(self._stack) > depth:
            self.end()

    @property
    def depth(self) -> int:
        return len(self._stack)

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def folded(self, name: str, fn):
        """Wrap ``fn`` so each call adds to one row per enclosing span."""
        rows, stack, index = self.rows, self._stack, self._folded
        clock = time.perf_counter

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            at = index.get((parent, name))
            if at is None:
                at = index[(parent, name)] = len(rows)
                rows.append([name, clock(), 0.0, parent, 0])
            # Nested calls (a send from inside a delivery) must see this
            # row as their parent, or their time is counted twice.
            stack.append(at)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row = rows[at]
                row[_DUR] += clock() - start
                row[_COUNT] += 1
                stack.pop()

        return timed

    # -- reading -------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total and self seconds, and call count."""
        child_time = [0.0] * len(self.rows)
        for row in self.rows:
            if row[_PARENT] >= 0:
                child_time[row[_PARENT]] += row[_DUR]
        out: dict[str, dict[str, float]] = {}
        for row, children in zip(self.rows, child_time):
            entry = out.setdefault(
                row[_NAME], {"total": 0.0, "self": 0.0, "count": 0}
            )
            entry["total"] += row[_DUR]
            entry["self"] += row[_DUR] - children
            entry["count"] += row[_COUNT]
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start", "duration", "parent",
                                "count"],
                    "spans": self.rows,
                },
                handle,
            )
