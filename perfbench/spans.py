"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are appended to flat arrays
while the run executes and are aggregated, or written to disk, only when it
ends.  Self time is a span's duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.

``install`` rebinds public functions of the ``ultrariesz`` package to
recording wrappers in every module namespace that holds them, so a call
made from inside the package (``riesz_kernel`` as seen by ``transforms``
and ``cli``, ``tanh_sinh_segment`` as seen by ``kernels``) is recorded
too.  Nothing in the package's source changes; ``uninstall`` restores the
original objects.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Recorder:
    """Collects spans and plain counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        index = len(self.start)
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, log: list | None = None):
        """``fn`` recording one span per call; ``log`` also keeps the
        arguments of every call, for counts computed after the run."""
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if log is not None:
                log.append((args, kwargs))
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        return recorded

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        if not self.names:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
        own = duration - child
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=duration, minlength=size)
        self_s = np.bincount(names, weights=own, minlength=size)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "ultrariesz" or name.startswith("ultrariesz."))
    ]


def install(replacements: list[tuple[object, object]]) -> list[tuple[object, str, object]]:
    """Rebind every package-level name bound to one of the originals in
    ``replacements`` (pairs of original and wrapper).  Returns the undo list."""
    by_id = {id(original): (original, wrapper) for original, wrapper in replacements}
    undo = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            pair = by_id.get(id(value))
            if pair is not None and pair[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, pair[1])
    return undo


def patch_attributes(owner, names: dict[str, object]) -> list[tuple[object, str, object]]:
    """Replace attributes of one object (a class); returns the undo list."""
    undo = []
    for attr, wrapper in names.items():
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
