"""Function-wrapping span tracer for the benchmark's traced runs.

A :class:`Tracer` records one span per call of a wrapped function: its
name, start, end and the span that was open when it began (its parent).
Spans stay in memory, in flat arrays, until :meth:`Tracer.write` saves
them.  :meth:`Tracer.layer_times` derives each name's busy time (the
outermost spans of that name) and self time (duration minus the direct
children's durations) from the spans.

:class:`Patches` installs the wrappers and takes them out again.  Three
properties of the program decide where a wrapper may go:

* ``Run.create`` pickles the simulation, and ``Run.execute`` works on
  the unpickled copy, so a wrapper set on an instance never runs (and
  a closure would not pickle).  Methods are patched on classes.
* The block driver picks its code path by identity tests such as
  ``type(policy).dispatch_round is not Policy.dispatch_round``.  A
  method is therefore patched on the class whose ``__dict__`` defines
  it (the owner in the MRO), which leaves every such test unchanged.
* ``SCDPolicy`` binds its solver from ``PROBABILITY_ALGORITHMS`` when
  it is constructed, so the names in :mod:`repro.core.scd` are patched
  before any policy is built.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

__all__ = ["Tracer", "Patches"]


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = [-1]
        #: Extra per-name counts (jobs resolved, bytes written...).
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self._start)

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[[tuple, dict, object], float] | None = None,
    ) -> Callable:
        """Return ``fn`` recording a span ``name`` around every call.

        ``count(args, kwargs, result)``, when given, adds its value to
        the counter ``name`` after each call.
        """
        nid = self._id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._open
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                counters[name] = counters.get(name, 0) + count(args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as parallel arrays (name id, parent index, start, end)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per name: ``calls``, ``busy`` (outermost spans) and ``self`` seconds."""
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        child_time = np.zeros(duration.size)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        # A span is outermost for its name when no ancestor carries the
        # same name; nested same-name spans would count twice in busy.
        outermost = np.ones(duration.size, dtype=bool)
        ancestor = parent.copy()
        while (live := ancestor >= 0).any():
            outermost[live] &= name[ancestor[live]] != name[live]
            ancestor[live] = parent[ancestor[live]]
        out = {}
        for nid, label in enumerate(self.names):
            mine = name == nid
            out[label] = {
                "calls": float(np.count_nonzero(mine)),
                "busy": float(duration[mine & outermost].sum()),
                "self": float(self_time[mine].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        """Save every span (and the name table and counters) as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            counter_names=np.array(list(self.counters)),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
            **self.arrays(),
        )


class Patches:
    """Wrap methods and module names with a tracer; undo on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._seen: set[tuple[int, str]] = set()

    def method(self, cls: type, attr: str, name: str, count=None) -> None:
        """Wrap ``cls.attr`` on the class in ``cls``'s MRO that defines it."""
        owner = next(k for k in cls.__mro__ if attr in vars(k))
        if (id(owner), attr) in self._seen:
            return
        self._seen.add((id(owner), attr))
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.tracer.wrap(name, original, count))

    def name(self, module, attr: str, name: str) -> None:
        """Wrap the module-level name ``module.attr``."""
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, self.tracer.wrap(name, original))

    def item(self, mapping: dict, key: str, name: str) -> None:
        """Wrap the function stored at ``mapping[key]``."""
        original = mapping[key]
        self._undo.append((mapping, key, original))
        mapping[key] = self.tracer.wrap(name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()
        self._seen.clear()
