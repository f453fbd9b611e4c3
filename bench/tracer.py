"""In-memory span tracer around the public functions of spectral_cascade.

The package imports its helpers with ``from .x import f``, so one function
is reachable through several module bindings: ``solve_xi`` lives in
``graph_transform`` but ``cascade_decompose`` calls it through
``spectral_cascade.cascade.solve_xi``.  ``install`` therefore replaces the
function on every module of the package that binds it, and patches public
methods on the classes that define them.  ``uninstall`` restores every
binding it replaced.

Each call records one span: name, start, end and the span that was open
when it began.  Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "spectral_cascade"

# Modules that do measurable work; ``blocks`` and ``errors`` do not.
LAYERS = ("scenario", "cascade", "graph_transform", "model", "linalg",
          "oracle", "verify", "serialize", "cli")

_MARK = "__bench_traced__"


def _layer_targets():
    """Yield (span name, function, owning class or None) for every layer."""
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", obj, None
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield f"{layer}.{obj.__name__}.{meth}", fn, obj


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers() -> list:
    """Names of every package binding that currently holds a tracing wrapper."""
    found = []
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{obj.__name__}.{m}"
                          for m, fn in vars(obj).items() if hasattr(fn, _MARK)]
    return found


class Tracer:
    """Records spans of the layer functions while installed.

    ``hooks`` maps a span name to ``hook(args, kwargs, result)``; its return
    value is kept as the span's metadata (for example the oracle's digit
    spread, or the bytes an artifact took on disk).
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed: set = set()
        self.meta: dict = {}
        self._stack: list = []
        self._patched: list = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for name, fn, owner in _layer_targets():
            wrapper = self._wrap(fn, name)
            if owner is not None:
                self._patched.append((owner, name.rsplit(".", 1)[1], fn))
                setattr(owner, name.rsplit(".", 1)[1], wrapper)
                continue
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = self.hooks.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, failed, meta = self._stack, self.failed, self.meta
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed.add(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    meta[idx] = hook(args, kwargs, result)
                except Exception:  # a broken hook must not change the workload
                    meta[idx] = None
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- analysis -----------------------------------------------------

    def arrays(self):
        """(name ids, parents, starts, ends) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct child spans cover."""
        _, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered

    def nearest(self, ancestor: str) -> np.ndarray:
        """Index of each span's nearest enclosing span named ``ancestor``, or -1."""
        target = self._ids.get(ancestor, -2)
        out = np.full(len(self.name_id), -1, dtype=np.int64)
        name_id, parent = self.name_id, self.parent
        for i in range(len(out)):
            p = parent[i]
            if p >= 0:
                out[i] = p if name_id[p] == target else out[p]
        return out

    def save(self, path) -> None:
        ids, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=ids,
                            parent=parent, start=start, end=end,
                            failed=np.array(sorted(self.failed), dtype=np.int64))
