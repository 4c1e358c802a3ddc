"""JSON configuration parsing for symbols, families and models.

Complex scalars are encoded as [re, im]; plain numbers are real.
Matrices are nested lists.  Kernels, symbols and families follow the
schemas documented in the README; validation errors carry the offending
key path and map to CLI exit code 2.  Expression strings are checked
against a small arithmetic grammar before they are compiled.
"""

from __future__ import annotations

import ast
import functools
import inspect
import json

import numpy as np

from .conslaw import ShockModel
from .edgebif import EdgeModel
from .errors import ConfigurationError
from .kernels import (ExpPolyKernel, SampledKernel, SumKernel, _positive,
                      exponential_kernel, gaussian_kernel,
                      one_sided_exponential_kernel)
from .symbols import OperatorFamily, ShiftTerm, Symbol

__all__ = [
    "load_config", "symbol_from_json", "pencil_from_json", "family_from_json",
    "shock_model_from_json", "edge_model_from_json", "kernel_from_json",
]

_SAFE_FUNCS = {
    "tanh": np.tanh, "exp": np.exp, "sin": np.sin, "cos": np.cos,
    "sqrt": np.sqrt, "abs": np.abs, "pi": np.pi, "cosh": np.cosh,
    "sinh": np.sinh,
}


_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def _fail(path, msg):
    raise ConfigurationError(f"{path}: {msg}")


def _parser(parse):
    """Report malformed values met while parsing as ConfigurationError at `path`.

    Key, attribute, type and value errors mean the JSON has a missing key,
    a list where an object belongs, or a value of the wrong kind; an
    arithmetic error means a number too large for a float.
    """
    @functools.wraps(parse)
    def wrapped(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except ConfigurationError:
            raise
        except (ArithmeticError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            bound = inspect.signature(parse).bind(*args, **kwargs)
            bound.apply_defaults()
            _fail(bound.arguments["path"],
                  f"malformed value ({type(exc).__name__}: {exc})")
    return wrapped


def _expression(text, names, path):
    """Compile a config expression after checking its syntax tree.

    Allowed: int and float constants, the variables in `names`, the names
    of _SAFE_FUNCS, calls of its functions, + - * / ** and unary + -.
    Anything else, attribute access and subscripts included, is a
    ConfigurationError.  Int constants are evaluated as floats.
    """
    if not isinstance(text, str):
        _fail(path, f"expected an expression string, got {text!r}")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        _fail(path, f"invalid expression {text!r}: {exc.msg}")

    def allowed(node):
        if isinstance(node, ast.Constant):
            return type(node.value) in (int, float)
        if isinstance(node, ast.Name):
            return node.id in names or node.id in _SAFE_FUNCS
        if isinstance(node, ast.BinOp):
            return (isinstance(node.op, _OPERATORS)
                    and allowed(node.left) and allowed(node.right))
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, _OPERATORS) and allowed(node.operand)
        if isinstance(node, ast.Call):
            return (isinstance(node.func, ast.Name)
                    and callable(_SAFE_FUNCS.get(node.func.id))
                    and not node.keywords
                    and all(allowed(a) for a in node.args))
        return False

    if not allowed(tree.body):
        _fail(path, f"expression {text!r} is outside the allowed grammar")
    # int constants become floats, so an oversized power overflows into an
    # ArithmeticError instead of growing a big integer without bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            try:
                node.value = float(node.value)
            except OverflowError:
                _fail(path, f"integer literal in {text[:40]!r} is too large "
                            "for a float")
    return compile(tree, "<config>", "eval")


def _evaluate(code, env, path):
    """Value of a checked expression; arithmetic failures are config errors."""
    try:
        return eval(code, {"__builtins__": {}}, env)
    except (ArithmeticError, TypeError, ValueError) as exc:
        _fail(path, f"expression evaluation failed: {exc}")


def _complex_entry(v, path):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    _fail(path, f"expected a number or [re, im] pair, got {v!r}")


def _matrix(v, path, n=None):
    if not isinstance(v, list):
        _fail(path, "expected a matrix (list of rows)")
    M = np.array([[_complex_entry(x, path) for x in row] for row in v])
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        _fail(path, f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        _fail(path, "matrix entries must be finite")
    if n is not None and M.shape[0] != n:
        _fail(path, f"expected dimension {n}, got {M.shape[0]}")
    if np.abs(M.imag).max() == 0:
        M = M.real
    return M


@_parser
def kernel_from_json(spec, n, path="kernel"):
    if spec is None:
        return None
    family = spec.get("family")
    if family == "exponential":
        return exponential_kernel(float(spec["a"]), _matrix(spec["M"], path + ".M", n))
    if family == "one_sided_exponential":
        return one_sided_exponential_kernel(
            float(spec["a"]), _matrix(spec["M"], path + ".M", n),
            side=int(spec.get("side", 1)))
    if family == "gaussian":
        return gaussian_kernel(float(spec["sigma"]), _matrix(spec["M"], path + ".M", n))
    if family == "exp_poly":
        terms = [(int(t.get("side", 1)), float(t["rate"]), int(t.get("power", 0)),
                  _matrix(t["C"], path + ".terms.C", n))
                 for t in spec["terms"]]
        return ExpPolyKernel(n, terms)
    if family == "sampled":
        samples = np.array([[[_complex_entry(x, path + ".samples") for x in row]
                             for row in mat] for mat in spec["samples"]])
        return SampledKernel(float(spec["h"]), samples, float(spec["eta0"]),
                             tol_tail=float(spec.get("tol_tail", 1e-6)))
    if family == "sum":
        return SumKernel([(1.0, kernel_from_json(p, n, path + ".parts"))
                          for p in spec["parts"]])
    _fail(path, f"unknown kernel family {family!r}")


@_parser
def symbol_from_json(spec, path="symbol"):
    try:
        n = int(spec["n"])
        eta = float(spec["eta"])
    except KeyError as exc:
        _fail(path, f"missing key {exc}")
    kernel = kernel_from_json(spec.get("kernel"), n, path + ".kernel")
    shifts = []
    for k, sh in enumerate(spec.get("shifts", [])):
        shifts.append(ShiftTerm(float(sh["xi"]),
                                _matrix(sh["A"], f"{path}.shifts[{k}].A", n)))
    try:
        return Symbol(n, kernel, tuple(shifts), eta)
    except Exception as exc:
        _fail(path, str(exc))


@_parser
def pencil_from_json(spec, path="pencil"):
    """lambda -> Symbol, with lambda * lambda_matrix added to the shift at 0."""
    base = symbol_from_json(spec, path)
    lam_mat = _matrix(spec["lambda_matrix"], path + ".lambda_matrix",
                      base.n).astype(complex)

    def at(lam):
        shifts = dict((s.xi, s.A) for s in base.shifts)
        shifts[0.0] = shifts.get(0.0, 0.0) + lam * lam_mat
        return Symbol(base.n, base.kernel,
                      tuple(ShiftTerm(xi, A) for xi, A in sorted(shifts.items())),
                      base.eta)

    return at


def _rule_family(spec, path):
    n = int(spec["n"])
    eta = float(spec["eta"])
    kernel = kernel_from_json(spec.get("kernel"), n, path + ".kernel")
    epath = path + ".shift_matrix_exprs"
    compiled = [[_expression(e, ("rho",), f"{epath}[{i}][{j}]")
                 for j, e in enumerate(row)]
                for i, row in enumerate(spec["shift_matrix_exprs"])]
    rho_min = float(spec.get("rho_min", -10.0))
    rho_max = float(spec.get("rho_max", 10.0))

    def rule(rho):
        env = dict(_SAFE_FUNCS, rho=rho)
        A = np.array([[float(_evaluate(c, env, epath)) for c in row]
                      for row in compiled])
        return Symbol(n, kernel, (ShiftTerm(0.0, A),), eta)

    return OperatorFamily.from_rule(rule, rho_min, rho_max)


@_parser
def family_from_json(spec, path="family"):
    pspec = spec.get("path")
    if pspec is None:
        _fail(path, "missing 'path' section")
    kind = pspec.get("type")
    if kind == "affine":
        s0 = symbol_from_json(pspec["s0"], path + ".path.s0")
        s1 = symbol_from_json(pspec["s1"], path + ".path.s1")
        return OperatorFamily.affine_homotopy(
            s0, s1, rho_min=float(pspec.get("rho_min", -10.0)),
            rho_max=float(pspec.get("rho_max", 10.0)))
    if kind == "tabulated":
        pts = [(float(p["rho"]), symbol_from_json(p["symbol"], path + ".path"))
               for p in pspec["points"]]
        return OperatorFamily.tabulated(pts)
    if kind == "rule":
        return _rule_family(pspec, path + ".path")
    _fail(path, f"unknown path type {kind!r}")


def _array(v, shape, path):
    """A float array of the given shape, else a ConfigurationError at `path`."""
    arr = np.array(v, dtype=float)
    if arr.shape != shape:
        _fail(path, f"expected shape {shape}, got {arr.shape}")
    return arr


def _source_from_json(spec, n, path="source"):
    kind = spec.get("type")
    if kind == "gaussian":
        vec = _array(spec["vector"], (n,), path + ".vector")
        width = _positive(path + ".width", spec.get("width", 1.0))
        center = float(spec.get("center", 0.0))

        def H(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-((x - center) / width) ** 2)[:, None] * vec[None, :]
        return H
    if kind == "moment":
        # x * gaussian in a single component: odd first-moment source
        vec = _array(spec["vector"], (n,), path + ".vector")
        width = _positive(path + ".width", spec.get("width", 1.0))

        def H(x):
            x = np.asarray(x, dtype=float)
            return (x * np.exp(-(x / width) ** 2))[:, None] * vec[None, :]
        return H
    if kind == "expr":
        comp = [_expression(e, ("x",), f"{path}.exprs[{j}]")
                for j, e in enumerate(spec["exprs"])]
        if len(comp) != n:
            _fail(path, f"need {n} component expressions")

        def H(x):
            x = np.asarray(x, dtype=float)
            env = dict(_SAFE_FUNCS)
            out = np.zeros((len(x), n))
            for j, c in enumerate(comp):
                env["x"] = x
                out[:, j] = _evaluate(c, env, f"{path}.exprs[{j}]")
            return out
        return H
    _fail(path, f"unknown source type {kind!r}")


@_parser
def shock_model_from_json(spec, path="shock"):
    n = int(spec["n"])
    kernel = kernel_from_json(spec.get("kernel"), n, path + ".kernel")
    if kernel is None:
        _fail(path, "a shock model needs a convolution kernel")
    flux = spec.get("flux", {})
    dF = _matrix(flux["dF"], path + ".flux.dF", n)
    dG = _matrix(flux["dG"], path + ".flux.dG", n)
    F2, G2 = (_array(flux[k], (n, n, n), f"{path}.flux.{k}") if k in flux
              else None for k in ("F2", "G2"))
    source = _source_from_json(spec["source"], n, path + ".source")
    return ShockModel(
        n=n, kernel=kernel, dF=dF, dG=dG, source=source, F2=F2, G2=G2,
        eps_max=_positive(path + ".eps_max", spec.get("eps_max", 0.05)),
        eta=_positive(path + ".eta", spec.get("eta", 0.25)))


def _potential_from_json(spec, path):
    kind = spec.get("type", "gaussian")
    if kind == "gaussian":
        amp = float(spec.get("amplitude", 1.0))
        width = _positive(path + ".width", spec.get("width", 1.0))
        center = float(spec.get("center", 0.0))

        def V(x):
            x = np.asarray(x, dtype=float)
            return amp * np.exp(-((x - center) / width) ** 2)
        return V
    if kind == "expr":
        c = _expression(spec["expr"], ("x",), path + ".expr")

        def V(x):
            x = np.asarray(x, dtype=float)
            env = dict(_SAFE_FUNCS, x=x)
            return np.asarray(_evaluate(c, env, path + ".expr"), dtype=float)
        return V
    _fail(path, f"unknown potential type {kind!r}")


@_parser
def edge_model_from_json(spec, path="edge"):
    n = int(spec["n"])
    B = _matrix(spec["B"], path + ".B", n)
    kernel = kernel_from_json(spec.get("kernel"), n, path + ".kernel")
    dirac = _matrix(spec["dirac"], path + ".dirac", n) if "dirac" in spec else None
    pert = spec.get("perturbation", {})
    V = _potential_from_json(pert.get("V", {}), path + ".perturbation.V")
    P = (_matrix(pert["matrix"], path + ".perturbation.matrix", n)
         if "matrix" in pert else None)
    pk = kernel_from_json(pert.get("kernel"), n, path + ".perturbation.kernel") \
        if "kernel" in pert else None
    if P is None and pk is None:
        _fail(path, "perturbation needs 'matrix' or 'kernel'")
    return EdgeModel(
        n=n, B=B, kernel=kernel, dirac=dirac, V=V, P=P, pert_kernel=pk,
        eta=_positive(path + ".eta", spec.get("eta", 0.5)),
        weight_eta=_positive(path + ".weight_eta", spec.get("weight_eta", 0.5)))


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}")
