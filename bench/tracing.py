"""Spans around the engine's public functions, recorded from outside it.

A :class:`Tracer` wraps each public function of the chosen ``cola_forge``
modules and rebinds every name in every ``cola_forge`` module namespace that
refers to the original, so calls made through ``from .x import f`` imports
are seen too. Each call records a span (id, parent id, name, start, end).
Parents follow a per-thread stack; the sweep thread pool is replaced by a
subclass whose ``submit`` hands the submitting span to the worker thread, so
cells run in the pool are children of the sweep that submitted them.

Spans stay in memory; :func:`aggregate` turns them into per-function calls,
total time and self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("linalg", "initializers", "adapter", "training", "harness", "cli")
PACKAGE = "cola_forge"
# Inputs of these functions are fingerprinted so repeats can be counted.
DIGESTED = frozenset({"linalg.svd"})


def public_functions() -> dict[str, object]:
    """``{"layer.func": function}`` for every function in each layer's ``__all__``."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


def _digest(array) -> str:
    data = np.ascontiguousarray(array, dtype=np.float64)
    return hashlib.blake2b(data.tobytes() + repr(data.shape).encode(),
                           digest_size=16).hexdigest()


class Tracer:
    """Records spans for the named public functions while installed.

    ``names`` selects ``"layer.func"`` keys of :func:`public_functions`;
    ``None`` selects all of them. Use as a context manager: entering rebinds
    the names, leaving restores the originals.
    """

    def __init__(self, names=None):
        funcs = public_functions()
        if names is not None:
            missing = set(names) - set(funcs)
            if missing:
                raise KeyError(f"no public function(s) {sorted(missing)}")
            funcs = {k: funcs[k] for k in names}
        self._originals = funcs
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.digests: dict[str, list[str]] = defaultdict(list)

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]  # 0 is the root
        return stack

    def _wrap(self, name: str, fn):
        digested = name in DIGESTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
                if digested:
                    self.digests[name].append(_digest(args[0]))

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]

                def run_with_parent():
                    tracer._local.stack = [parent]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.stack = None

                return super().submit(run_with_parent)

        return TracedPool

    # -- installation -----------------------------------------------------

    def _rebind(self, replacements: dict[int, object]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, new)

    def __enter__(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer is already installed")
        replacements = {id(fn): self._wrap(name, fn)
                        for name, fn in self._originals.items()}
        replacements[id(ThreadPoolExecutor)] = self._pool_class()
        self._rebind(replacements)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, n, start, end in self.spans if n == name]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total seconds ``s`` and ``self_s``.

    Self time is the span's duration minus the part of its interval that its
    child spans cover; children running in parallel pool threads are counted
    once where they overlap. Totals add durations across threads, so a layer
    busy in two pool threads at once can total more than the wall time.
    Also returns, under the key ``"<layer>"``, each layer's calls, self time
    and outermost time (spans with no ancestor in the same layer).
    """
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span_id, parent, name, start, end in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())
                   if e > start and s < end]
        self_s = (end - start) - _covered(clipped)
        layer = name.split(".", 1)[0]
        for key in (name, layer):
            out[key]["calls"] += 1
            out[key]["self_s"] += self_s
        out[name]["s"] += end - start
        ancestor = by_id.get(parent)
        while ancestor is not None and not ancestor[2].startswith(layer + "."):
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            out[layer]["s"] += end - start
    return dict(out)
