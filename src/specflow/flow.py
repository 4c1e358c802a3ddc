"""Crossing detection, crossing numbers and Fredholm indices.

The Fredholm index of an operator with hyperbolic limits is the
difference W(s_plus) - W(s_minus) of the limits' certified axis windings
(`fredholm_index`).  The spectral flow of a family lists its crossings:
values rho_j where the symbol loses hyperbolicity.  The net number of
characteristic roots moving from the left half-plane to the right across
all crossings is the crossing number, and the index equals its negative.
Crossings are found as zeros of the nonnegative hyperbolicity margin,
refined by golden-section.  The axis roots at a crossing are the
margin's own refined dips; on either side of it, two winding counts per
axis frequency (left and right half-boxes) give the side counts, and the
boxes shrink until two consecutive halvings agree.  The crossings are
audited against the certified axis windings W of `is_hyperbolic`: their
net contribution must equal W(s_minus) - W(s_plus).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charmatrix import (_axis_dips, _dips, axis_margin, char_eval,
                         is_hyperbolic)
from .errors import (ConfigurationError, ContourThroughRoot,
                     CrossingsUnresolved, EndpointNotHyperbolic,
                     InconclusiveCount)
from .roots import Rectangle, _rho_derivative, count_roots
from .symbols import OperatorFamily, weight_shift

__all__ = [
    "Crossing", "FlowResult", "find_crossings", "crossing_number",
    "fredholm_index", "weighted_index", "cocycle_check",
]

_MIN_TRIGGER = 1e-4     # local margin minima below this are always refined
_CROSSING_TOL = 1e-8    # refined minima below this count as crossings
# golden-section bracket width; far below the required 1e-6 parameter
# accuracy so that transversal crossings refine to margins under the
# classification cutoff even for steep margin slopes
_GOLDEN_TOL = 1e-12
_RESAMPLE_POINTS = 65   # margin samples across a bracket that fails the audit


@dataclass
class Crossing:
    """Bookkeeping of one hyperbolicity failure along the path."""
    rho: float
    axis_roots: list[tuple[float, int]]     # (ell, multiplicity)
    M: int                                   # total axis multiplicity
    M_right_minus: int
    M_right_plus: int
    simple: bool
    speed: float | None = None               # Re nu_dot for simple crossings

    @property
    def contribution(self):
        return self.M_right_plus - self.M_right_minus


@dataclass
class FlowResult:
    crossings: list[Crossing]
    cross: int
    index: int
    diagnostics: dict = field(default_factory=dict)


def _margins(family, rhos):
    """Axis margin of the family at each rho: the flow's one margin sampler."""
    return np.array([axis_margin(family.at(r))[0] for r in rhos])


def _golden_minimize(f, a, b, tol):
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _sampled_zeros(family, xs, vs, depth):
    """Margin zeros near the dips of the margin samples vs at xs, in scan order.

    Zeros are resolved to 1e-6; closer ones (ties from symmetric
    sampling) are the same zero.
    """
    found = []
    for k in _dips(vs, _MIN_TRIGGER):
        for z in _bracket_zeros(family, xs[k - 1], xs[k + 1], depth):
            if not any(abs(z - w) < 2e-6 for w in found):
                found.append(z)
    return found


def _bracket_zeros(family, lo, hi, depth):
    """Margin zeros inside a bracket that may hold several local minima.

    Golden section assumes a unimodal bracket; a shallow dip next to an
    actual zero defeats it.  When refinement fails to certify a crossing
    the bracket is re-sampled at finer resolution and each sub-minimum
    is pursued recursively.
    """
    x, m = _golden_minimize(lambda r: _margins(family, (r,))[0], lo, hi,
                            _GOLDEN_TOL)
    if m < _CROSSING_TOL:
        return [x]
    if depth <= 0:
        return []
    xs = np.linspace(lo, hi, 33)
    return _sampled_zeros(family, xs, _margins(family, xs), depth - 1)


def _axis_roots_at(symbol):
    """Axis roots as (ell, multiplicity) at a non-hyperbolic symbol.

    Frequencies are the dips of the axis margin (`_axis_dips`) that reach
    below 1e-7; each gets its own small counting rectangle for the
    multiplicity.  This avoids subdividing a box whose roots sit exactly
    on every cut line.
    """
    freqs = []
    for sig, ell in _axis_dips(symbol, all_zeros=True):
        if sig < 1e-7 and not any(abs(ell - q) < 1e-6 for q in freqs):
            freqs.append(ell)
    freqs.sort()
    sep = min((abs(a - b) for a in freqs for b in freqs if a != b),
              default=np.inf)
    r = min(0.05, sep / 3.0) if np.isfinite(sep) else 0.05
    w = min(r, 0.45 * symbol.eta)
    out = []
    for ell in freqs:
        box = Rectangle(-w, w, ell - r, ell + r)
        out.append((float(ell), count_roots(symbol, box)))
    return out


def _side_counts(family, rho, ells, d_loc, r_loc):
    """(M_left, M_right): winding counts in the half-boxes [-d_loc, 0] and
    [0, d_loc] around each axis frequency, never jittered across the axis."""
    sym = family.at(rho)
    return tuple(sum(count_roots(sym, Rectangle(lo, hi, ell - r_loc, ell + r_loc),
                                 _allow_jitter=False) for ell in ells)
                 for lo, hi in ((-d_loc, 0.0), (0.0, d_loc)))


def _crossing_at(family, rho_j, grid_step):
    """Classify the crossing at rho_j: axis roots and side counts."""
    sym = family.at(rho_j)
    axis = _axis_roots_at(sym)
    if not axis:
        return None  # refined minimum was not an actual crossing
    M = sum(m for _, m in axis)
    ells = [ell for ell, _ in axis]
    min_sep = min((abs(a - b) for a in ells for b in ells if a != b),
                  default=np.inf)

    d_loc = min(0.2, 0.45 * sym.eta)
    r_loc = min(0.2, 0.3 * min_sep if np.isfinite(min_sep) else 0.2)
    d_rho = min(0.5 * grid_step, 0.05)

    history = []
    for _ in range(14):
        try:
            lm, rm = _side_counts(family, rho_j - d_rho, ells, d_loc, r_loc)
            lp, rp = _side_counts(family, rho_j + d_rho, ells, d_loc, r_loc)
        except (ContourThroughRoot, InconclusiveCount):
            d_loc *= 0.5
            r_loc *= 0.5
            d_rho *= 0.25
            continue
        consistent = (lm + rm == M) and (lp + rp == M)
        history.append((rm, rp, consistent))
        if len(history) >= 2 and history[-1] == history[-2] and consistent:
            simple = M == 1
            speed = None
            if simple and family.differentiable:
                speed = _crossing_speed(family, rho_j, 1j * ells[0])
            return Crossing(rho=rho_j, axis_roots=axis, M=M,
                            M_right_minus=rm, M_right_plus=rp,
                            simple=simple, speed=speed)
        # the parameter offset shrinks faster than the counting boxes so
        # the displaced roots are eventually contained
        d_loc *= 0.5
        r_loc *= 0.5
        d_rho *= 0.25
    raise CrossingsUnresolved(
        f"side counts near rho = {rho_j:.6g} did not stabilize")


def _crossing_speed(family, rho_j, nu_axis):
    """Re nu_dot at a simple crossing by implicit differentiation."""
    ce = char_eval(family.at(rho_j), nu_axis, orders=(0, 1))
    if ce.d1 is None or ce.d1 == 0:
        return None
    return float(np.real(-_rho_derivative(family, rho_j, nu_axis) / ce.d1))


def _check_dimensions(s_minus, s_plus):
    if s_minus.n != s_plus.n:
        raise ConfigurationError(
            f"limit symbols must share dimension, got {s_minus.n} and {s_plus.n}")


def _limit_windings(s_minus, s_plus):
    """Certified windings (W_minus, W_plus) of two limits; a limit that
    `is_hyperbolic` does not certify raises EndpointNotHyperbolic."""
    windings = []
    for name, sym in (("minus", s_minus), ("plus", s_plus)):
        res = is_hyperbolic(sym)
        if not res.hyperbolic:
            raise EndpointNotHyperbolic(f"limit symbol at {name} infinity")
        windings.append(res.winding)
    return windings


def find_crossings(family, scan_points=400):
    """All crossings of the family, ordered by parameter value.

    The hyperbolicity margin is sampled on a uniform grid; local minima
    below the trigger threshold are refined by golden-section and kept
    when the refined margin certifies a loss of hyperbolicity.  The
    crossings are then audited against the limits' certified windings
    (see `_audit`).  Requires hyperbolic limits and at least 2 scan
    points; crossings at the scan boundary are rejected.
    """
    if scan_points < 2:
        raise ConfigurationError(
            f"a crossing scan needs at least 2 points, got {scan_points}")
    w_minus, w_plus = _limit_windings(family.s_minus, family.s_plus)

    rhos = np.linspace(family.rho_min, family.rho_max, scan_points)
    vals = _margins(family, rhos)
    grid_step = rhos[1] - rhos[0]
    # padding each end with its neighbour's sample makes an end sample
    # below its neighbour a dip: a zero can hide between the two, and
    # the edge check below rejects it loudly
    zeros = _sampled_zeros(family, np.r_[rhos[0], rhos, rhos[-1]],
                           np.r_[vals[1], vals, vals[-2]], depth=2)
    edge = 2 * grid_step
    for rho_j in zeros:
        if rho_j < family.rho_min + edge or rho_j > family.rho_max - edge:
            raise EndpointNotHyperbolic(
                f"crossing at rho = {rho_j:.4g} sits at the scan boundary")
    return _audit(family, _classified(family, zeros, grid_step),
                  rhos, w_minus, w_plus)


def _classified(family, zeros, step):
    """Crossings at the given margin zeros, ordered by parameter value."""
    found = (_crossing_at(family, rho_j, step) for rho_j in zeros)
    return sorted((cr for cr in found if cr is not None), key=lambda c: c.rho)


def _resample_bracket(family, lo, hi):
    """Every crossing in [lo, hi), from a dense resample of the margin.

    The samples reach one step past each end, so a zero next to a bracket
    end still shows up as an interior dip.
    """
    step = (hi - lo) / (_RESAMPLE_POINTS - 1)
    xs = np.linspace(lo - step, hi + step, _RESAMPLE_POINTS + 2)
    zeros = _sampled_zeros(family, xs, _margins(family, xs), depth=2)
    return _classified(family, [z for z in zeros if lo <= z < hi], step)


def _audit(family, crossings, rhos, w_minus, w_plus):
    """Crossings whose net contribution matches the certified axis windings.

    The index must equal W(s_plus) - W(s_minus), the limits' windings.
    On a mismatch, certified windings at the scan points `rhos` bisect for
    a bracket whose winding change differs from its crossings'
    contributions; that bracket is resampled and its crossings replaced.
    A bracket the resample cannot reconcile, or a scan point without a
    certified winding, raises CrossingsUnresolved, so a wrong integer is
    never returned.
    """
    last = len(rhos) - 1
    windings = {0: w_minus, last: w_plus}

    def defect(k):
        # winding change over [rho_min, rhos[k]] plus the net contribution
        # of the crossings found there; zero when they agree
        if k not in windings:
            windings[k] = is_hyperbolic(family.at(rhos[k])).winding
            if windings[k] is None:
                raise CrossingsUnresolved(
                    f"no certified winding at scan point rho = {rhos[k]:.6g}")
        return windings[k] - w_minus + sum(c.contribution for c in crossings
                                           if c.rho < rhos[k])

    # each pass reconciles one bracket and leaves the others as they were
    while defect(last) != 0:
        lo, hi = 0, last
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if defect(mid) == 0:
                lo = mid
            else:
                hi = mid
        kept = [c for c in crossings if not rhos[lo] <= c.rho < rhos[hi]]
        crossings = sorted(kept + _resample_bracket(family, rhos[lo], rhos[hi]),
                           key=lambda c: c.rho)
        if defect(hi) != 0:
            raise CrossingsUnresolved(
                f"crossings in [{rhos[lo]:.6g}, {rhos[hi]:.6g}] do not add up "
                f"to the winding change {windings[hi] - windings[lo]}")
    return crossings


def crossing_number(family, scan_points=400):
    """Net left-to-right axis crossings and the resulting index."""
    crossings = find_crossings(family, scan_points)
    cross = sum(c.contribution for c in crossings)
    return FlowResult(
        crossings=crossings,
        cross=cross,
        index=-cross,
        diagnostics={
            "scan_points": scan_points,
            "rho_range": (family.rho_min, family.rho_max),
            "n_crossings": len(crossings),
        },
    )


def fredholm_index(s_minus, s_plus):
    """Index of the operator with the given limits, W(s_plus) - W(s_minus).

    The index depends only on the limit symbols: it is the difference of
    their certified axis windings (`is_hyperbolic`), the number every
    spectral flow between them is audited against.  Limits that are not
    certified hyperbolic raise EndpointNotHyperbolic; limits of different
    dimensions raise ConfigurationError.
    """
    _check_dimensions(s_minus, s_plus)
    w_minus, w_plus = _limit_windings(s_minus, s_plus)
    return w_plus - w_minus


def weighted_index(symbol, gamma_minus, gamma_plus):
    """Index of the constant-coefficient operator between two-sided weights.

    Conjugating by the smooth weight exp of gamma(xi)*sqrt(xi^2+1)-type
    profiles turns the weighted problem into an asymptotically constant
    one with limits given by the shifted symbols; the index is theirs.
    """
    return fredholm_index(weight_shift(symbol, gamma_minus),
                          weight_shift(symbol, gamma_plus))


def cocycle_check(s0, s1, s2):
    """Spectral-flow indices of the three pairings and whether they add up.

    Each leg runs the flow along the affine homotopy of its pair, so this
    checks the additivity of the flow itself.
    """
    def leg(a, b):
        _check_dimensions(a, b)
        return crossing_number(OperatorFamily.affine_homotopy(a, b)).index

    i01, i12, i02 = leg(s0, s1), leg(s1, s2), leg(s0, s2)
    return i01, i12, i02, (i01 + i12 == i02)
