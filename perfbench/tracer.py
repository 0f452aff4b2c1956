"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces, in each module's namespace, every function that
the module imports from another layer with a wrapper that records a span:
name, start, end and the enclosing span.  So ``cli.shape_operator`` and
``classify.frame_shape_at`` are wrapped where their callers look them up.
Methods and properties of the classes of the five geometry layers are wrapped
on the class, which covers calls such as ``x.first + y.first`` and every
``ModelVector`` construction.  A few functions are also wrapped in their own
module: the benchmark's entry points and the boundaries whose counts are
reported (for example ``unit_normal`` calls made by ``shape_operator``).

Spans are kept in flat arrays and written out once, after the traced run.
A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import enum
import functools
import importlib
import time
import types
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "prodform_geo"
LAYERS = ("spaceform", "ambient", "hypersurface", "jacobi", "classify", "cli")

#: wrapped in their own module too: benchmark entry points and counted boundaries
OWN_MODULE = {
    "cli": ("run", "render_json", "_atomic_write"),
    "jacobi": (
        "frame_shape_at",
        "parallel_immersion",
        "transported_frame",
        "q_matrix",
        "q_matrix_prime",
        "parallel_shape",
    ),
    "hypersurface": ("shape_operator", "unit_normal", "tangent_basis"),
    "ambient": ("product_metric",),
}

#: spans counted as report rendering and writing rather than as cli work
RENDER = ("cli.render_json", "cli._atomic_write")

#: attribute forwards cheaper than the span that would time them
UNWRAPPED = ("spaceform.ModelVector.kappa", "ambient.ProductPoint.kappa1", "ambient.ProductPoint.kappa2")

#: special methods wrapped on classes; other wrapped members are public names
SPECIAL_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__call__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        for a in (self._name, self._parent, self._start, self._end):
            del a[:]
        self._stack[:] = [-1]

    def _wrap(self, fn, span_name: str):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        name, parent, start, end, stack = (
            self._name,
            self._parent,
            self._start,
            self._end,
            self._stack,
        )
        perf = time.perf_counter

        def span(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf()
                stack.pop()

        return functools.update_wrapper(span, fn)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}

        def wrapper_for(fn, span_name):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, span_name)
            return wrappers[id(fn)]

        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith(PACKAGE + "."):
                    home = obj.__module__.rsplit(".", 1)[1]
                    if home != layer or attr in OWN_MODULE.get(layer, ()):
                        self._patch(mod, attr, wrapper_for(obj, f"{home}.{obj.__name__}"))
                elif (
                    layer != "cli"
                    and isinstance(obj, type)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, (BaseException, enum.Enum))
                ):
                    self._install_class(layer, obj, wrapper_for)

    def _install_class(self, layer: str, cls: type, wrapper_for) -> None:
        for attr, member in list(vars(cls).items()):
            span_name = f"{layer}.{cls.__name__}.{attr}"
            if span_name in UNWRAPPED or (attr.startswith("_") and attr not in SPECIAL_METHODS):
                continue
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, wrapper_for(member, span_name))
            elif isinstance(member, property) and member.fget is not None:
                wrapped = property(wrapper_for(member.fget, span_name), member.fset, member.fdel, member.__doc__)
                self._patch(cls, attr, wrapped)
            elif isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(wrapper_for(member.__func__, span_name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self._name, dtype=np.int32), minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self seconds per span name and per layer (render spans apart from cli)."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        per_name = {n: float(t) for n, t in zip(self.names, own)}
        per_layer = dict.fromkeys(LAYERS + ("cli.render",), 0.0)
        for n, t in per_name.items():
            per_layer["cli.render" if n in RENDER else n.split(".", 1)[0]] += t
        return per_name, per_layer

    def write(self, path: Path) -> None:
        """Write the recorded spans as arrays: name ids, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self._name, dtype=np.int32),
                parent=np.frombuffer(self._parent, dtype=np.int32),
                start=np.frombuffer(self._start, dtype=np.float64),
                end=np.frombuffer(self._end, dtype=np.float64),
            )
