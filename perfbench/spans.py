"""Outside-in span recorder for the traced run.

The recorder wraps public calls of the program from the benchmark's own
files: it replaces a class attribute (a method) or a module attribute
(a function bound by ``from ... import``) with a wrapper that records
one span per call — layer, start, end and the enclosing span — into
flat in-memory arrays.  Nothing inside the program changes, and
:meth:`SpanRecorder.uninstall` puts every original back.

Self time is a span's duration minus the time its child spans cover.
Spans nest strictly (the benchmark drives the service from one thread),
so the children of a span never overlap and cover the sum of their
durations.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT = -1


class SpanRecorder:
    """Records spans and boundary counters while installed."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._codes: Dict[str, int] = {}
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def code(self, layer: str) -> int:
        if layer not in self._codes:
            self._codes[layer] = len(self.layers)
            self.layers.append(layer)
        return self._codes[layer]

    def wrap(self, layer: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span under ``layer`` per call.

        ``observe(counts, result, args)`` runs after the span closes and
        may add boundary counters derived from the call's result.
        """
        code = self.code(layer)
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            index = len(starts)
            layers.append(code)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = started
                stack.pop()
            if observe is not None:
                observe(counts, result, args)
            return result

        return recorded

    def patch(self, owner: object, attribute: str, layer: str,
              observe: Optional[Callable] = None, consume: bool = False) -> None:
        """Replace ``owner.attribute`` with a recording wrapper.

        The attribute must be defined on ``owner`` itself (not
        inherited), so a renamed or moved target fails loudly here.
        ``consume`` is for generator functions: the wrapper returns the
        generated items as a list, so the span covers producing them.
        """
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(layer, raw.__func__, observe))
        elif consume:
            replacement = self.wrap(
                layer, functools.wraps(raw)(lambda *a, **k: list(raw(*a, **k))), observe)
        else:
            replacement = self.wrap(layer, raw, observe)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, layers=np.array(self.layers), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of its children."""
    duration = end - start
    covered = np.bincount(parent + 1, weights=duration, minlength=len(duration) + 1)
    return duration - covered[1:]


def layer_totals(layers: List[str], layer: np.ndarray, parent: np.ndarray,
                 start: np.ndarray, end: np.ndarray) -> Dict[str, Tuple[int, float]]:
    """``{layer: (calls, self seconds)}`` over every recorded span."""
    own = self_times(parent, start, end)
    calls = np.bincount(layer, minlength=len(layers))
    seconds = np.bincount(layer, weights=own, minlength=len(layers))
    return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(layers)}


def covered_seconds(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> float:
    """Wall time covered by root spans (the sum of every span's self time)."""
    roots = parent == ROOT
    return float((end[roots] - start[roots]).sum())
