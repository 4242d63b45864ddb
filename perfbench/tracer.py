"""Span tracing of dimfox's layers, installed from outside the package.

`Tracer.install()` wraps every public function of each layer module and
the `IntLattice.add/reduce/canonical` methods, then rebinds every alias of
a wrapped function that any dimfox module holds (for example
`verify.span_product`, imported from groupring).  Each call becomes a span
with its name, start, end, parent span and case id.  Spans are kept in
flat in-memory arrays and summarised, or written out, when the run ends.

`FiniteGroup.mul/comm/power` stay unwrapped: they run tens of millions of
times, so their cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("groups", "intlinalg", "abelian", "groupring", "formulas", "verify")
LATTICE_METHODS = ("add", "reduce", "canonical")
BOOKKEEPING = "trace.bookkeeping"


def _row_count(span) -> int:
    return len(span.canonical())


def _entry_bits_z(span) -> int | None:
    """Largest entry bit length of a Z-span's stored lattice rows."""
    ring = getattr(span, "ring", None)
    rows = getattr(getattr(span, "lattice", None), "rows", None)
    if ring is None or rows is None or ring.modulus != 0:
        return None
    return max((max(map(abs, row)).bit_length() for row in rows if row), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "module.function" per name id
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # 1 when no span of the same name is open
        self.stack = [-1]
        self.case = -1
        self.suspended = False
        self.counters: dict[str, int] = {}
        self.entry_bits_z = 0
        self.wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self.rebound: list[tuple] = []  # (owner, attribute, original)
        self._open: list[int] = []  # open spans per name id
        self._bookkeeping_id = self._name_id(BOOKKEEPING, "trace")

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self._open.append(0)
        return len(self.names) - 1

    # -- recording --------------------------------------------------------

    def _open_span(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_case.append(self.case)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_outer.append(self._open[nid] == 0)
        self._open[nid] += 1
        self.stack.append(idx)
        return idx

    def _close_span(self, nid: int, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self._open[nid] -= 1
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def _bookkeep(self, hook, args, result) -> None:
        """Run a measurement hook inside its own span, outside the caller's self time."""
        nid = self._bookkeeping_id
        self.suspended = True
        idx = self._open_span(nid)
        t0 = time.perf_counter()
        try:
            hook(self, args, result)
        finally:
            self._close_span(nid, idx, t0, time.perf_counter())
            self.suspended = False

    def _make_wrapper(self, name: str, layer: str, fn, hook=None, count_true: str | None = None):
        """Wrap fn in a span; `hook` runs in a bookkeeping span after the call,
        `count_true` names a counter bumped whenever fn returns a true value."""
        nid = self._name_id(name, layer)
        clock = time.perf_counter
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            idx = tracer._open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(nid, idx, t0, clock())
            if count_true is not None and result:
                counters[count_true] = counters.get(count_true, 0) + 1
            if hook is not None:
                tracer._bookkeep(hook, args, result)
            return result

        return wrapper

    # -- hooks: counts read at the layer boundary --------------------------

    def _count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @staticmethod
    def _hook_span_product(tracer, args, result):
        tracer._count("span_product.rows_in", _row_count(args[0]) + _row_count(args[1]))
        Tracer._hook_span_out(tracer, args, result)

    @staticmethod
    def _hook_translate_closure(tracer, args, result):
        tracer._count("translate_closure.rows_in", _row_count(args[0]))
        Tracer._hook_span_out(tracer, args, result)

    @staticmethod
    def _hook_span_out(tracer, args, result):
        bits = _entry_bits_z(result)
        if bits is not None:
            tracer._count("entry_bits.observed", 1)
            tracer.entry_bits_z = max(tracer.entry_bits_z, bits)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        import dimfox.intlinalg as intlinalg

        hooks = {
            "groupring.span_product": self._hook_span_product,
            "groupring.translate_closure": self._hook_translate_closure,
        }
        for layer in LAYERS:
            mod = sys.modules[f"dimfox.{layer}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook = hooks.get(name)
                if hook is None and "ModuleSpan" in str(inspect.signature(obj).return_annotation):
                    hook = self._hook_span_out
                self.wrapped[id(obj)] = (obj, self._make_wrapper(name, layer, obj, hook))
        for meth in LATTICE_METHODS:
            orig = intlinalg.IntLattice.__dict__.get(meth)
            if orig is None:  # reported as absent
                continue
            useful = "IntLattice.add.useful" if meth == "add" else None
            wrapper = self._make_wrapper(f"intlinalg.IntLattice.{meth}", "intlinalg", orig, count_true=useful)
            self.wrapped[id(orig)] = (orig, wrapper)
            setattr(intlinalg.IntLattice, meth, wrapper)
            self.rebound.append((intlinalg.IntLattice, meth, orig))
        for mod in self._dimfox_modules():
            for attr, obj in list(vars(mod).items()):
                pair = self.wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(mod, attr, pair[1])
                    self.rebound.append((mod, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.rebound):
            setattr(owner, attr, orig)
        self.rebound.clear()

    @staticmethod
    def _dimfox_modules():
        return [m for n, m in sorted(sys.modules.items()) if n == "dimfox" or n.startswith("dimfox.")]

    def unwrapped_aliases(self) -> list[str]:
        """Every reference a dimfox module still holds to a wrapped original."""
        originals = {i: pair[0] for i, pair in self.wrapped.items()}

        def is_original(obj) -> bool:
            return id(obj) in originals and originals[id(obj)] is obj

        leaks = []
        for mod in self._dimfox_modules():
            for attr, obj in vars(mod).items():
                if is_original(obj):
                    leaks.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    leaks += [f"{mod.__name__}.{attr}.{c}" for c, v in vars(obj).items() if is_original(v)]
                if inspect.isfunction(obj):
                    defaults = (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values())
                    leaks += [f"{mod.__name__}.{attr} default" for d in defaults if is_original(d)]
        return sorted(set(leaks))

    # -- summary -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "case": np.frombuffer(self.span_case, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "outer": np.frombuffer(self.span_outer, dtype=np.int8).copy(),
        }

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {"names": self.names, "layers": self.layer_of, **extra}
        np.savez_compressed(path, meta=np.array(json.dumps(meta, default=str)), **self.arrays())


class TraceSummary:
    """Self and total times per function, layer and case, from the span arrays."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        nn = len(self.names)
        name, parent, case = a["name"], a["parent"], a["case"]
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        outer = a["outer"].astype(bool)
        self.calls = np.bincount(name, minlength=nn)
        self.self_s = np.bincount(name, weights=self_t, minlength=nn)
        self.total_s = np.bincount(name[outer], weights=dur[outer], minlength=nn)
        layers = sorted(set(tracer.layer_of))
        self.layers = layers
        layer_idx = np.array([layers.index(l) for l in tracer.layer_of], dtype=np.int64)
        span_layer = layer_idx[name]
        self.layer_self = {l: float(self_t[span_layer == i].sum()) for i, l in enumerate(layers)}
        roots = ~has_parent
        self.root_s = float(dur[roots].sum())
        ncase = int(case.max()) + 1 if len(case) else 0
        self.case_layer = np.zeros((max(ncase, 0), len(layers)))
        if ncase:
            np.add.at(self.case_layer, (case, span_layer), self_t)
        self.case_root = np.bincount(case[roots], weights=dur[roots], minlength=ncase) if ncase else np.zeros(0)
        # time entering a layer straight from the verify drivers
        parent_layer = np.full(len(name), -1)
        parent_layer[has_parent] = span_layer[parent[has_parent]]
        from_verify = has_parent & (parent_layer == layers.index("verify")) & (span_layer != parent_layer)
        self.entry_from_verify = {
            l: float(dur[from_verify & (span_layer == i)].sum()) for i, l in enumerate(layers)
        }

    def index(self, short: str) -> int | None:
        for i, n in enumerate(self.names):
            if n.split(".", 1)[1] == short:
                return i
        return None
