"""Timing wrappers the traced run installs around public entry points.

The program records spans of its own (``repro.obs.tracing``) at the
plan, prepare, kernel and serve seams.  The layers it does not cover
are timed here from outside, by replacing a public method or property
on its class for the length of the traced run and putting it back
afterwards.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
from contextlib import contextmanager
import time
import weakref
from collections import defaultdict

_clock = time.perf_counter


class SharedCounter:
    """Named integers that forked worker processes can add to.

    Allocated before the fork, so the children inherit the same shared
    memory; the array's lock makes each add atomic across processes.
    """

    def __init__(self, names) -> None:
        self._index = {n: i for i, n in enumerate(names)}
        self._values = mp.get_context("fork").Array("q", len(self._index))

    def add(self, name: str, n: int = 1) -> None:
        with self._values.get_lock():
            self._values[self._index[name]] += n

    def read(self) -> dict:
        with self._values.get_lock():
            return {n: self._values[i] for n, i in self._index.items()}


class Probes:
    """Installs wrappers; collects their samples (ms) by metric name.

    Samples are kept only while :attr:`on` is set, so one set of
    wrappers serves a traced set-up and a traced pass while the
    untraced pass between them records nothing.
    """

    def __init__(self) -> None:
        self.on = False
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._undo: list = []

    def _keep(self, metric: str, t0: float) -> None:
        if self.on:
            self.samples[metric].append((_clock() - t0) * 1e3)

    @contextmanager
    def timer(self, metric: str):
        """Time the body of a ``with`` block."""
        t0 = _clock()
        try:
            yield
        finally:
            self._keep(metric, t0)

    def time_method(self, cls, name: str, metric: str) -> None:
        """Time every call of ``cls.name``."""
        original = cls.__dict__[name]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                self._keep(metric, t0)

        self._replace(cls, name, original, timed)

    def time_first_get(self, cls, name: str, metric: str) -> None:
        """Time the first read of property ``cls.name`` per instance
        (the read that materialises; later reads hit its cache)."""
        original = cls.__dict__[name]
        seen = weakref.WeakSet()

        def fget(obj):
            if obj in seen:
                return original.fget(obj)
            seen.add(obj)
            t0 = _clock()
            try:
                return original.fget(obj)
            finally:
                self._keep(metric, t0)

        self._replace(cls, name, original, property(fget, doc=original.__doc__))

    def count_cache_lookups(self, cls, counter: SharedCounter) -> None:
        """Count hits and misses of ``ResultCache.get`` into ``counter``
        (in this process and in any process forked after this call)."""
        original = cls.__dict__["get"]

        @functools.wraps(original)
        def get(cache, key):
            got = original(cache, key)
            counter.add("miss" if got is None else "hit")
            return got

        self._replace(cls, "get", original, get)

    def _replace(self, cls, name, original, wrapper) -> None:
        setattr(cls, name, wrapper)
        self._undo.append((cls, name, original))

    def restore(self) -> None:
        while self._undo:
            cls, name, original = self._undo.pop()
            setattr(cls, name, original)
