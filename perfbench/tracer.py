"""Spans and counters around subwordlab's public functions, from outside.

``Tracer.install`` wraps every public function of the library modules and
patches each namespace that binds it: the defining module, every module that
imported it by name, the package, extra namespaces such as the sweep script,
and module-level dicts (``experiments.EXPERIMENTS``).  Construction of
``CoxeterSystem`` gets a span too.  ``Element.__mul__`` and the arithmetic of
``GoldenInt`` are counted, not spanned: they run millions of times.
``Tracer.uninstall`` puts every original back.

A span is (name, start, end, parent).  Spans stay in memory, in columns, and
``write`` saves them at the end.  Self time (a span's duration minus that of
its child spans) and the counter deltas inside each span are summed per span
name as the spans close.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from array import array
from time import perf_counter

from subwordlab import cli, coxeter, experiments, multicluster, quivers, ring, sorting, subword

import subwordlab

MODULES = (coxeter, ring, sorting, subword, multicluster, quivers, experiments, cli)

GOLDEN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span columns
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # per span name
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.muls_inside: list[int] = []
        self.items: list[int] = []
        # counters
        self.muls = 0
        self.golden_ops = 0
        self.complex_keys: set = set()
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.muls_inside.append(0)
            self.items.append(0)
        return self._ids[name]

    def _span(self, name: str, func, on_result=None):
        tracer = self
        sid = self._name_id(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.span_start)
            tracer.span_name.append(sid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            muls = tracer.muls
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.span_end[index] = end
                tracer.calls[sid] += 1
                tracer.self_s[sid] += duration - frame[1]
                tracer.muls_inside[sid] += tracer.muls - muls
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(sid, args, kwargs, result)
            return result

        return wrapper

    def _count_items(self, sid, args, kwargs, result):
        self.items[sid] += len(result)

    def _complex_key(self, sid, args, kwargs, result):
        self.complex_keys.add(
            (result.system.descriptor.name(), tuple(result.word), result.target.image)
        )

    def _counted_golden(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args):
            tracer.golden_ops += 1
            return func(*args)

        return wrapper

    def _counted_mul(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(a, b):
            tracer.muls += 1
            return func(a, b)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self, namespaces=()) -> None:
        """Wrap the library; ``namespaces`` are further modules binding its functions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "subword.enumerate_facets_dfs": self._count_items,
            "subword.all_faces": self._count_items,
            "subword.subword_complex": self._complex_key,
        }
        wrappers = {}
        for module in MODULES:
            for name, value in vars(module).items():
                if (
                    name.startswith("_")
                    or isinstance(value, type)
                    or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__
                    or inspect.isgeneratorfunction(value)
                ):
                    continue
                span = f"{_short(module.__name__)}.{name}"
                wrappers[id(value)] = (value, self._span(span, value, hooks.get(span)))
        for namespace in (subwordlab, *MODULES, *namespaces):
            for name, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(namespace, name, entry[1])
                elif isinstance(value, dict) and namespace in MODULES:
                    for key, item in list(value.items()):
                        entry = wrappers.get(id(item))
                        if entry is not None and entry[0] is item:
                            self._set(value, key, entry[1])
        init = self._span("coxeter.CoxeterSystem", coxeter.CoxeterSystem.__init__)
        self._set(coxeter.CoxeterSystem, "__init__", init)
        self._set(coxeter.Element, "__mul__", self._counted_mul(coxeter.Element.__mul__))
        for op in GOLDEN_OPS:
            self._set(ring.GoldenInt, op, self._counted_golden(ring.GoldenInt.__dict__[op]))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, int, int]:
        """(calls, self seconds, multiplications inside, items returned)."""
        sid = self._ids.get(name)
        if sid is None:
            return 0, 0.0, 0, 0
        return self.calls[sid], self.self_s[sid], self.muls_inside[sid], self.items[sid]

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, seconds in zip(self.names, self.self_s):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + seconds
        return out

    def write(self, path) -> None:
        """Save the spans as gzip-compressed JSON columns."""
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(payload, handle, separators=(",", ":"))
