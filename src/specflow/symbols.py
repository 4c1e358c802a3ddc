"""Constant-coefficient symbols and parametrized families of them.

A Symbol bundles a matrix convolution kernel, a finite list of Dirac
shift terms and a declared strip half-width eta.  It represents the
constant-coefficient operator

    T U = dU/dxi - K * U - sum_j A_j U(. - xi_j)

through its transform data.  An OperatorFamily maps a real parameter to
Symbols, with identified limits at the interval ends; it models both
xi-dependent operators and homotopies between constant ones.

The paper's standing hypotheses are enforced where they are used: a
Symbol refuses a strip wider than its kernel's (StripViolation) and
evaluation points off its strip (`check_strip`), and the flow certifies
both limits hyperbolic before it counts crossings (EndpointNotHyperbolic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StripViolation
from .kernels import KernelSpec, SumKernel, _check_strip

__all__ = [
    "ShiftTerm", "Symbol", "OperatorFamily", "weight_shift", "combine_symbols",
]


@dataclass(frozen=True)
class ShiftTerm:
    """A Dirac term A * U(. - xi)."""
    xi: float
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", float(self.xi))
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=complex)))


@dataclass(frozen=True)
class Symbol:
    """Constant-coefficient nonlocal symbol on a strip |Re nu| < eta."""

    n: int
    kernel: KernelSpec | None
    shifts: tuple[ShiftTerm, ...]
    eta: float
    shift_norms: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        shifts = tuple(s if isinstance(s, ShiftTerm) else ShiftTerm(*s)
                       for s in self.shifts)
        object.__setattr__(self, "shifts", shifts)
        if self.n < 1:
            raise ConfigurationError(f"dimension n must be at least 1, got {self.n}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ConfigurationError(f"eta must be finite and positive, got {self.eta}")
        if self.kernel is not None:
            if self.kernel.n != self.n:
                raise ConfigurationError("kernel dimension mismatch")
            if self.eta >= self.kernel.strip:
                raise StripViolation(
                    f"eta = {self.eta:g} must be < kernel strip {self.kernel.strip:g}")
        xis = [s.xi for s in shifts]
        if len(set(xis)) != len(xis):
            raise ConfigurationError("shift offsets must be pairwise distinct")
        for s in shifts:
            if s.A.shape != (self.n, self.n):
                raise ConfigurationError("shift matrix dimension mismatch")
            if not (np.isfinite(s.xi) and np.all(np.isfinite(s.A))):
                raise ConfigurationError("shift offsets and matrices must be finite")
        norms = tuple(float(np.linalg.norm(s.A, 2)) for s in shifts)
        object.__setattr__(self, "shift_norms", norms)

    def check_strip(self, nu):
        """Raise StripViolation unless every |Re nu| is below eta."""
        _check_strip(nu, self.eta)

    # -- evaluation -----------------------------------------------------

    def khat(self, nu, order=0):
        nu = np.asarray(nu, dtype=complex)
        if self.kernel is None:
            return np.zeros(nu.shape + (self.n, self.n), dtype=complex)
        return self.kernel.transform(nu, order)

    def shift_sum(self, nu, order=0):
        """sum_j A_j (-xi_j)^order exp(-nu xi_j), broadcast over nu."""
        nu = np.asarray(nu, dtype=complex)
        out = np.zeros(nu.shape + (self.n, self.n), dtype=complex)
        for s in self.shifts:
            out += ((-s.xi) ** order * np.exp(-nu * s.xi))[..., None, None] * s.A
        return out


def weight_shift(symbol, gamma):
    """Conjugation by exp(gamma xi) at the symbol level.

    The kernel is multiplied pointwise by exp(gamma zeta), the shift
    matrix at 0 gains gamma*I and every other shift matrix is scaled by
    exp(gamma xi_j).  Characteristic roots translate right by gamma.
    """
    gamma = float(gamma)
    if abs(gamma) >= symbol.eta:
        raise StripViolation(
            f"|gamma| = {abs(gamma):g} must be < eta = {symbol.eta:g}")
    if gamma == 0.0:
        return symbol
    kernel = None if symbol.kernel is None else symbol.kernel.weight_shift(gamma)
    shifts = []
    has_zero = False
    for s in symbol.shifts:
        if s.xi == 0.0:
            shifts.append(ShiftTerm(0.0, s.A + gamma * np.eye(symbol.n)))
            has_zero = True
        else:
            shifts.append(ShiftTerm(s.xi, s.A * np.exp(gamma * s.xi)))
    if not has_zero:
        shifts.insert(0, ShiftTerm(0.0, gamma * np.eye(symbol.n)))
    return Symbol(symbol.n, kernel, tuple(shifts), symbol.eta - abs(gamma))


def combine_symbols(s0, s1, w0, w1):
    """Entrywise affine combination w0*s0 + w1*s1 on the narrower strip."""
    if s0.n != s1.n:
        raise ConfigurationError("dimension mismatch")
    terms = [(w, s.kernel) for w, s in ((w0, s0), (w1, s1))
             if s.kernel is not None and w != 0.0]
    kernel = SumKernel(terms) if terms else None
    table = {}
    for w, sym in ((w0, s0), (w1, s1)):
        if w == 0.0:
            continue
        for t in sym.shifts:
            table[t.xi] = table.get(t.xi, 0) + w * t.A
    shifts = tuple(ShiftTerm(xi, A) for xi, A in sorted(table.items()))
    return Symbol(s0.n, kernel, shifts, min(s0.eta, s1.eta))


class OperatorFamily:
    """Parameter-dependent symbol rho -> Symbol with identified limits.

    Three evaluation rules are supported: an affine homotopy between two
    symbols driven by sigma(rho) = (1 + tanh rho)/2, a tabulated path
    with entrywise linear interpolation, and an arbitrary user rule.
    `differentiable` marks rules smooth enough for crossing speeds.
    """

    def __init__(self, rho_min, rho_max, evaluate, s_minus, s_plus,
                 differentiable=True):
        if not rho_min < rho_max:
            raise ConfigurationError("need rho_min < rho_max")
        self.rho_min = float(rho_min)
        self.rho_max = float(rho_max)
        self._evaluate = evaluate
        self.s_minus = s_minus
        self.s_plus = s_plus
        self.differentiable = differentiable
        if s_minus.n != s_plus.n:
            raise ConfigurationError("endpoint dimensions differ")
        self.n = s_minus.n

    def at(self, rho):
        rho = float(np.clip(rho, self.rho_min, self.rho_max))
        return self._evaluate(rho)

    @classmethod
    def affine_homotopy(cls, s0, s1, rho_min=-10.0, rho_max=10.0):
        def evaluate(rho):
            sig = 0.5 * (1.0 + np.tanh(rho))
            return combine_symbols(s0, s1, 1.0 - sig, sig)
        return cls(rho_min, rho_max, evaluate, s0, s1)

    @classmethod
    def tabulated(cls, points):
        pts = sorted(points, key=lambda p: p[0])
        if len(pts) < 2:
            raise ConfigurationError("a tabulated path needs at least two points")
        rhos = np.array([p[0] for p in pts])
        syms = [p[1] for p in pts]

        def evaluate(rho):
            k = int(np.clip(np.searchsorted(rhos, rho) - 1, 0, len(rhos) - 2))
            t = (rho - rhos[k]) / (rhos[k + 1] - rhos[k])
            t = float(np.clip(t, 0.0, 1.0))
            return combine_symbols(syms[k], syms[k + 1], 1.0 - t, t)

        return cls(rhos[0], rhos[-1], evaluate, syms[0], syms[-1],
                   differentiable=False)

    @classmethod
    def from_rule(cls, rule, rho_min, rho_max):
        return cls(rho_min, rho_max, rule, rule(rho_min), rule(rho_max))
