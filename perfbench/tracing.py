"""Span tracing by wrapping the package's public functions from outside.

A wrapper replaces a function under every name that refers to it in every
loaded ``cspdigraph`` module, so a call made through any import path is
recorded.  Spans (name, start, end, parent) are kept in flat arrays,
which hold a million spans in tens of megabytes, and are written to disk
only after the traced pass.  Self time is a span's duration minus the
durations of its direct children; calls run on one thread, so children
never overlap each other and always lie inside their parent.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """A function that calls ``fn`` inside a span called ``name``.

        ``on_result(tracer, result)`` runs after the span closes, so the
        work it does is charged to the parent and not to ``name``.
        """
        name_id = self._name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def install_function(self, module_name: str, attr: str, name: str, on_result=None):
        """Wrap ``module_name.attr`` wherever a loaded package module binds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, original, on_result)
        package = module_name.split(".")[0]
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def install_method(self, cls, attr: str, name: str, on_result=None):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- derived figures ---------------------------------------------------

    def summary(self) -> dict[str, tuple[float, int]]:
        """Self time and call count for every span name seen."""
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            dur = ends[i] - starts[i]
            nid = names[i]
            self_s[nid] += dur
            calls[nid] += 1
            p = parents[i]
            if p >= 0:
                self_s[names[p]] -= dur
        return {n: (self_s[i], calls[i]) for i, n in enumerate(self.names)}

    def root_time(self) -> float:
        """Total duration of spans that have no parent."""
        total = 0.0
        starts, ends = self.span_start, self.span_end
        for i, p in enumerate(self.span_parent):
            if p < 0:
                total += ends[i] - starts[i]
        return total

    def write(self, directory: Path, stem: str) -> None:
        """Spans as raw arrays (native byte order) plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
        }
        index = {
            "spans": len(self.span_name),
            "names": self.names,
            "byteorder": sys.byteorder,
            "fields": {},
        }
        for field, arr in fields.items():
            path = directory / f"{stem}.{field}.bin"
            with open(path, "wb") as fh:
                arr.tofile(fh)
            index["fields"][field] = {"file": path.name, "typecode": arr.typecode}
        (directory / f"{stem}.spans.json").write_text(json.dumps(index, indent=1) + "\n")
