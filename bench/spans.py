"""Span tracer for the traced run: wraps every public entdyn function where it is bound.

Each call records a span (name, start, end, parent span, task id, whether
it raised) into append-only array columns kept in memory. A
span's layer is the module that defines the function. Self time is a
span's duration minus its child spans' durations, so time spent inside
numpy or scipy is charged to the entdyn function that called it.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "evolution", "feedback", "generators", "quantum", "linalg")


def public_functions(package: str = "entdyn") -> dict[int, tuple[str, object]]:
    """Map id(function) -> (span name, function) for each layer's public functions."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


class Tracer:
    """Patches entdyn for the duration of a ``with`` block and records spans.

    The patch covers every module attribute in the package that refers to a
    public function, so ``entdyn.linalg.expm``, ``entdyn.evolution.expm``
    and ``entdyn.expm``-style re-exports all reach the same wrapper.
    """

    def __init__(self, package: str = "entdyn"):
        self.package = package
        functions = public_functions(package)
        self.names = [name for name, _ in functions.values()]
        self.task_id = -1
        self.name_id = array("i")
        self.task = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list[int] = []
        self._wrappers = {
            key: self._wrap(fn, nid) for nid, (key, (_, fn)) in enumerate(functions.items())
        }
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, nid: int):
        name_id, task, parent, start, end, raised = (
            self.name_id, self.task, self.parent, self.start, self.end, self.raised
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            task.append(tracer.task_id)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def __enter__(self):
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()
        return False

    def columns(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, one entry per span, in call order."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "task": np.array(self.task, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "raised": np.array(self.raised, dtype=np.int8),
        }

    def function_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors (spans that raised), self and total seconds."""
        cols = self.columns()
        n = cols["name_id"].size
        k = len(self.names)
        duration = cols["end"] - cols["start"]
        nested = cols["parent"] >= 0
        child = np.bincount(cols["parent"][nested], weights=duration[nested], minlength=n)
        own = duration - child
        calls = np.bincount(cols["name_id"], minlength=k)
        errors = np.bincount(cols["name_id"], weights=cols["raised"], minlength=k)
        self_s = np.bincount(cols["name_id"], weights=own, minlength=k)
        total_s = np.bincount(cols["name_id"], weights=duration, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "errors": int(errors[i]),
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
            }
            for i, name in enumerate(self.names)
        }
