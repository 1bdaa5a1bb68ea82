"""In-memory span recording and the attribute patches that feed it.

A span is the list ``[name, start, end, parent, op, error]``: ``parent``
is the index of the enclosing span (-1 at top level), ``op`` is whatever
the caller last assigned to ``Tracer.op``, and ``error`` is
``"<ExceptionType>: <message>"`` for a call that raised. Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ecrlab"  # the package whose modules ``Patches.everywhere`` rebinds


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._open = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open, self.op, None])
        self._open = index
        return index

    def end(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        if error is not None:
            span[5] = f"{type(error).__name__}: {error}"
        self._open = span[3]

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recorded as a span; ``name`` may be a function of
        the call's arguments, ``after`` sees each successful result."""

        def traced(*args, **kwargs):
            index = self.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, exc)
                raise
            self.end(index)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """Return ``fn`` counting its calls under ``name`` without a span."""

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


class Patches:
    """Attribute and mapping replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def set_item(self, mapping, key, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def everywhere(self, original, replacement) -> int:
        """Rebind ``original`` to ``replacement`` under every name any
        loaded module of ``PACKAGE`` holds it by, so that both the defining
        module and the modules that imported the name see the wrapper."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    hits += 1
        return hits

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
