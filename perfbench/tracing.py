"""Span tracer that wraps gatefid's public functions from outside the package.

``Tracer.install`` wraps every public function defined in each layer module
and replaces *every* binding of it across the loaded ``gatefid`` modules, so
call sites that imported the name (``from .linalg import as_matrix``) are
traced as well as attribute calls (``moments.variance``). Modules are looked
up through ``importlib``/``sys.modules`` because the package attribute
``gatefid.optimize`` is the tuner function, not the module. ``remove`` puts
every original object back.

Spans (name, start, end, parent, operation id) are appended to flat arrays
while the run goes and are aggregated or written out after it ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from dataclasses import dataclass
from typing import Callable

PACKAGE = "gatefid"
LAYERS = ("linalg", "sampling", "moments", "qubit_dist", "optimize", "verify", "serialize", "cli")
MARK = "__perfbench_traced__"

# hook(counters, args, kwargs, result) runs after a wrapped call returns.
CounterHook = Callable[[dict, tuple, dict, object], None]


def public_functions(module: types.ModuleType) -> dict[str, types.FunctionType]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


def package_modules(package: str = PACKAGE) -> list[types.ModuleType]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def traced_bindings(package: str = PACKAGE) -> list[str]:
    """``module.attr`` names currently bound to a tracer wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in package_modules(package)
        for attr, value in vars(mod).items()
        if getattr(value, MARK, False)
    ]


class Tracer:
    def __init__(self, hooks: dict[str, CounterHook] | None = None, clock=time.perf_counter_ns):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = {}
        self.op_id = -1
        self._hooks = dict(hooks or {})
        self._clock = clock
        self._stack: list[int] = []
        self._replaced: list[tuple[types.ModuleType, str, object]] = []

    def install(self, layers=LAYERS, package: str = PACKAGE) -> None:
        if self._replaced:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in layers:
            module = importlib.import_module(f"{package}.{layer}")
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in package_modules(package):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._replaced.append((module, attr, value))

    def remove(self) -> None:
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        hook = self._hooks.get(name)
        stack, clock = self._stack, self._clock
        name_id, start, end, parent, op = self.name_id, self.start, self.end, self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def write(self, path) -> None:
        """Write the spans as a NumPy ``.npz``: one array per span field.

        ``names[name_id[i]]`` is span i's function, ``start``/``end`` are
        nanoseconds, ``parent`` is the enclosing span's index (-1 at the top)
        and ``op`` the operation it belongs to.
        """
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            **{
                field: np.frombuffer(getattr(self, field), dtype=getattr(self, field).typecode)
                for field in ("name_id", "start", "end", "parent", "op")
            },
        )


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be listed in order of entry (so children of one parent appear
    in increasing start order), as ``Tracer`` records them.
    """
    own = [e - s for s, e in zip(start, end)]
    covered_until: dict[int, int] = {}
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], covered_until.get(p, start[i]))
        if end[i] > lo:
            own[p] -= end[i] - lo
        covered_until[p] = max(covered_until.get(p, end[i]), end[i])
    return own


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def aggregate(tracer: Tracer) -> dict[str, SpanStats]:
    """Calls, inclusive time and self time per span name."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out = {name: SpanStats() for name in tracer.names}
    for i, nid in enumerate(tracer.name_id):
        st = out[tracer.names[nid]]
        st.calls += 1
        st.total_ns += tracer.end[i] - tracer.start[i]
        st.self_ns += selfs[i]
    return out
