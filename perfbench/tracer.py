"""Spans around specflow's public functions, recorded from outside.

`Tracer` replaces each traced function by a wrapper that records a span
(name, start, end, parent) in flat arrays and runs a counter hook on the
result.  Modules import by name (``flow.axis_margin``, ``cli.fredholm_index``,
``edgebif.char_eval``), so every module-level alias of a traced function is
patched, and the ``transform``/``l1_bound`` methods are patched on each
``KernelSpec`` subclass that defines them.  ``numpy.linalg.svd`` and
``numpy.linalg.lstsq`` get spans too; they are attributed to the module of
their enclosing span.  Only the groups the caller asks `summary` to split
out (say ``griddisc.svd``) are taken out of the enclosing span's self time;
every other dense call stays in it.  Leaving the ``with`` block restores
every original.

The wrappers only observe: arguments and results pass through unchanged,
so traced answers are identical to untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# -- counter hooks: (counters, span name, args, result) ----------------------

def _points_arg1(c, name, args, result):
    c[name + ".points"] += int(np.size(args[1]))


def _samples(c, name, args, result):
    c[name + ".samples"] += int(result.samples)


def _crossings(c, name, args, result):
    c["flow.crossings"] += len(result)


def _matrix_mb(c, name, args, result):
    mb = result.matrix.nbytes / 1e6
    c["griddisc.matrix_mb_computed"] = max(c["griddisc.matrix_mb_computed"], mb)


def _unreliable(c, name, args, result):
    c[name + ".unreliable"] += int(not result.reliable)


def _newton_iters(c, name, args, result):
    c[name.split(".")[0] + ".newton_iters"] += int(result.iterations)


def _newton_iters_tuple(c, name, args, result):
    c[name.split(".")[0] + ".newton_iters"] += int(result[3].iterations)


# (module, attribute, span name, counter hook or None)
_FUNCTIONS = [
    ("charmatrix", "delta_eval", "charmatrix.delta_eval", _points_arg1),
    ("charmatrix", "axis_margin", "charmatrix.axis_margin", None),
    ("charmatrix", "axis_cutoff", "charmatrix.axis_cutoff", None),
    ("charmatrix", "is_hyperbolic", "charmatrix.is_hyperbolic", _samples),
    ("charmatrix", "char_eval", "charmatrix.char_eval", None),
    ("symbols", "combine_symbols", "symbols.combine_symbols", None),
    ("roots", "count_roots", "roots.count_roots", None),
    ("roots", "locate_roots", "roots.locate_roots", None),
    ("flow", "find_crossings", "flow.find_crossings", _crossings),
    ("flow", "fredholm_index", "flow.fredholm_index", None),
    ("griddisc", "assemble", "griddisc.assemble", _matrix_mb),
    ("griddisc", "assemble_adjoint", "griddisc.assemble_adjoint", _matrix_mb),
    ("griddisc", "nullity", "griddisc.nullity", _unreliable),
    ("griddisc", "index_estimate", "griddisc.index_estimate", None),
    ("conslaw", "shock_profile", "conslaw.shock_profile", _newton_iters),
    ("conslaw", "zero_speed_selection", "conslaw.zero_speed_selection",
     _newton_iters_tuple),
    ("edgebif", "edge_scaling", "edgebif.edge_scaling", None),
    ("edgebif", "edge_eigenvalue", "edgebif.edge_eigenvalue", _newton_iters),
    ("edgebif", "diffusive_check", "edgebif.diffusive_check", None),
    ("edgebif", "dispersion_root", "edgebif.dispersion_root", None),
    ("configio", "load_config", "configio.load_config", None),
    ("configio", "kernel_from_json", "configio.from_json", None),
    ("configio", "symbol_from_json", "configio.from_json", None),
    ("configio", "family_from_json", "configio.from_json", None),
    ("configio", "shock_model_from_json", "configio.from_json", None),
    ("configio", "edge_model_from_json", "configio.from_json", None),
    ("cli", "run", "cli.run", None),
]

# (module, class, method, span name, counter hook or None)
_METHODS = [
    ("symbols", "Symbol", "khat", "symbols.khat", _points_arg1),
    ("symbols", "OperatorFamily", "at", "symbols.family_at", None),
]

LINALG = ("svd", "lstsq")


def _linalg_gflop(fname, args, kwargs):
    """Textbook flop count of one dense call, from the matrix shape.

    Thin SVD with vectors (R-SVD): 14 m n^2 + 8 n^3 for m >= n; singular
    values only: 4 m n^2 - 4/3 n^3; SVD-based least squares (gelsd),
    which never forms the vectors: 4 m n^2 - 4/3 n^3 plus 4 m n per
    right-hand side.  Complex data counts four real flops per operation.
    """
    A = np.asarray(args[0])
    if A.ndim < 2:
        return 0.0
    batch = int(np.prod(A.shape[:-2])) if A.ndim > 2 else 1
    m, n = max(A.shape[-2:]), min(A.shape[-2:])
    if fname == "svd":
        if kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
            flops = 14.0 * m * n * n + 8.0 * n ** 3
        else:
            flops = 4.0 * m * n * n - 4.0 / 3.0 * n ** 3
    else:
        b = np.asarray(args[1]) if len(args) > 1 else np.zeros(m)
        nrhs = 1 if b.ndim < 2 else b.shape[-1]
        flops = 4.0 * m * n * n - 4.0 / 3.0 * n ** 3 + 4.0 * m * n * nrhs
    if np.iscomplexobj(A):
        flops *= 4.0
    return batch * flops / 1e9


class Tracer:
    """Context manager that patches specflow and records spans in memory."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = Counter()
        self.linalg_gflop = {}           # span id -> computed GFLOP
        self._restore = []

    # -- span recording ---------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name):
        """A span opened by the caller: ``with tracer.span("task"): ...``."""
        return _OpenSpan(self, self._name_id(name))

    def _open(self, nid):
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        nid = self._name_id(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[name + ".failed"] += 1
                raise
            finally:
                self._close(sid)
            if hook is not None:
                hook(counters, name, args, result)
            return result

        return traced

    def _wrap_linalg(self, fn, fname):
        nid = self._name_id("linalg." + fname)
        gflop = self.linalg_gflop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                gflop[sid] = _linalg_gflop(fname, args, kwargs)

        return traced

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        from specflow import kernels

        def module(mod):
            return importlib.import_module("specflow." + mod)

        replace = {}
        for mod, attr, name, hook in _FUNCTIONS:
            original = getattr(module(mod), attr)
            replace[id(original)] = (original, self._wrap(original, name, hook))
        loaded = [m for k, m in sorted(sys.modules.items())
                  if k == "specflow" or k.startswith("specflow.")]
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        for mod, cls, meth, name, hook in _METHODS:
            owner = getattr(module(mod), cls)
            self._set(owner, meth, self._wrap(owner.__dict__[meth], name, hook))
        for owner in vars(kernels).values():
            if isinstance(owner, type) and issubclass(owner, kernels.KernelSpec):
                for meth in ("transform", "l1_bound"):
                    if meth in owner.__dict__:
                        self._set(owner, meth, self._wrap(
                            owner.__dict__[meth], "kernels." + meth, None))

        for fname in LINALG:
            self._set(np.linalg, fname,
                      self._wrap_linalg(getattr(np.linalg, fname), fname))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    # -- results ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent span id, start, end."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self, split_linalg=()):
        """Per span name: calls, total and self seconds; linalg by module.

        Dense calls are grouped as ``<module of enclosing span>.<svd|lstsq>``.
        A group in `split_linalg` counts as a child of its enclosing span;
        the time of any other group stays in the enclosing span's self time.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        linalg_key = {sid: self._linalg_key(sid, name, parent)
                      for sid in self.linalg_gflop}
        is_child = parent >= 0
        for sid, key in linalg_key.items():
            is_child[sid] = is_child[sid] and key in split_linalg
        child = np.zeros(len(dur))
        np.add.at(child, parent[is_child], dur[is_child])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_s, minlength=k)
        out = {nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(selfs[i])}
               for i, nm in enumerate(self.names)}

        linalg = {}
        for sid, gflop in self.linalg_gflop.items():
            rec = linalg.setdefault(linalg_key[sid],
                                    {"calls": 0, "s": 0.0, "gflop_computed": 0.0})
            rec["calls"] += 1
            rec["s"] += float(dur[sid])
            rec["gflop_computed"] += gflop
        return out, linalg

    def _linalg_key(self, sid, name, parent):
        p = parent[sid]
        owner = self.names[name[p]].split(".")[0] if p >= 0 else "none"
        return owner + "." + self.names[name[sid]].split(".")[1]


class _OpenSpan:
    def __init__(self, tracer, nid):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._sid = self._tracer._open(self._nid)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._sid)
        return False
