"""Spans around qfp's layers, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records one span per call: its name, start, end, parent span
and the exception it ended with, if any.  A function is rebound in every
``qfp`` module that binds it (``solve_amplitude`` lives in ``qfp.analysis``
and is imported into ``qfp.leakage``), because calls inside the package
resolve through those module globals.  ``restore`` puts every original
back.  Spans stay in memory until the pass ends; untraced passes install
nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("codes", "constellations", "analysis", "leakage", "oracle",
          "montecarlo", "cli")

# Private functions traced as well: each call is one evaluation of the delta
# objective inside optimize_delta_for_qil.
PRIVATE = {"leakage._coherent_family_qil"}


class Tracer:
    """Span recorder for one pass.  ``install`` and ``restore`` bracket it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the layers' functions and the ``qfp`` command bodies."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qfp.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qfp" and not mod_name.startswith("qfp."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))
        for command in sys.modules["qfp.cli"].main.commands.values():
            body = command.callback
            command.callback = self._wrap(f"cli.{command.name}", body)
            self._patched.append((command, "callback", body))

    def restore(self) -> None:
        """Put back every name ``install`` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, one entry per span."""
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def save(self, path: str, **meta) -> None:
        """Write every span, with the name table and ``meta``, to ``path``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(),
                            meta=np.array(json.dumps(meta)))

    def table(self) -> dict[str, dict]:
        """Per-name calls, total and self seconds and exception counts."""
        rows = span_table(self.names, **self.arrays())
        for idx, exc in self.errors.items():
            row = rows[self.names[self.name_id[idx]]]
            row["errors"][exc] = row["errors"].get(exc, 0) + 1
        return rows


def span_table(names: list[str], name_id: np.ndarray, parent: np.ndarray,
               start: np.ndarray, end: np.ndarray) -> dict[str, dict]:
    """Aggregate spans by name.

    A span's self time is its duration minus the durations of its direct
    children; spans run on one thread, so children never overlap.  A parent
    index of -1 marks a root span.
    """
    count = len(names)
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=duration.size)
    self_time = duration - child_time
    calls = np.bincount(name_id, minlength=count)
    total = np.bincount(name_id, weights=duration, minlength=count)
    own = np.bincount(name_id, weights=self_time, minlength=count)
    return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(own[i]), "errors": {}}
            for i, name in enumerate(names)}
