"""Spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules, as a
module attribute, by a wrapper that records one span per call: name, start,
end, the enclosing span and, for the spans that report it, the growth of
``ru_maxrss``.  Two kinds of
reference escape that replacement and are rebound where they are looked up:
names bound by ``from ... import`` in another layer module (``canonical``'s
``block_assignments``), and functions held in module-level dicts
(``cli.COMMANDS``).  Spans stay in memory until the run ends.

Hooks compute counters from a call's arguments and result (states, nnz,
form sizes).  Their time is taken off the span clock, so it shows in no
span's duration.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time
from array import array

import numpy as np


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """``hooks`` maps a span name to ``hook(tracer, args, result)``; ``rss``
    names the spans whose ``ru_maxrss`` growth is recorded (two system calls
    per call, so only where it is reported)."""

    def __init__(self, hooks=None, rss=()):
        self.hooks = hooks or {}
        self.rss = set(rss)
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rss_kb = array("q")
        self.counters = {}
        self._stack = [-1]
        self._paused = 0.0

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn):
        nid = self._name_id(name)
        hook = self.hooks.get(name)
        with_rss = name in self.rss
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end, rss_kb = (
            self.name_id, self.parent, self.start, self.end, self.rss_kb)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            rss_kb.append(_maxrss_kb() if with_rss else 0)
            stack.append(idx)
            start.append(clock() - self._paused)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock() - self._paused
                if with_rss:
                    rss_kb[idx] = _maxrss_kb() - rss_kb[idx]
                stack.pop()
            if hook is not None:
                t0 = clock()
                hook(self, args, out)
                self._paused += clock() - t0
            return out

        return traced

    def install(self, modules):
        """Wrap the public functions of ``modules`` ({layer: module})."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                    setattr(mod, attr, wrapped[obj])
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrapped:
                            obj[key] = wrapped[val]

    def arrays(self):
        """Spans as numpy arrays, with each span's self time."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=float)
               - np.frombuffer(self.start, dtype=float))
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": parent, "dur": dur, "self": dur - covered,
                "rss_kb": np.frombuffer(self.rss_kb, dtype=np.int64)}

    def save(self, path):
        """Write every span to ``path`` (numpy .npz)."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 rss_kb=np.frombuffer(self.rss_kb, dtype=np.int64))
