"""Root counting, location and continuation for det Delta inside the strip.

Counting uses the argument principle along rectangle contours with
adaptive phase sampling: every contour segment is bisected until its
phase increment is below pi/2, so the winding number is unambiguous.
Location quadrisects rectangles until leaves hold a single root (Newton
polished) or collapse onto a multiple root.
Continuation follows a simple root across a parameter interval with an
Euler predictor from implicit differentiation and a Newton corrector.
Every refinement of a root is one `newton_root` run, a Newton iteration
on d or d' whose steps are halved to stay inside a given rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charmatrix import char_eval, det_values
from .errors import (ConfigurationError, ContourThroughRoot,
                     InconclusiveCount, LostTrack, NotARoot)

__all__ = [
    "Rectangle", "RootSet", "RootTrajectory", "count_roots", "locate_roots",
    "newton_root", "track_root",
]

_CONTOUR_MIN_ABS = 1e-12
_PHASE_LIMIT = np.pi / 2
_SEGMENT_FLOOR = 1e-9
_JITTER_FACTORS = tuple(1.0 + 0.013 * k for k in range(11))
_LEAF_DIAMETER = 1e-8       # quadrisection floor of locate_roots
_MAX_DEPTH = 60
_RESIDUAL_TOL = 1e-10       # relative |d| accepted by the track_root corrector
_NEWTON_TOL = 1e-12         # relative step that ends newton_root
_NEWTON_STEPS = 60
_DERIVATIVE_FLOOR = 1e-10   # |d'| below this ends a track as a collision
_MAX_STEPS = 100000


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle in the complex plane."""
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        if not (self.re_lo < self.re_hi and self.im_lo < self.im_hi):
            raise ConfigurationError("rectangle must be nonempty")

    @property
    def center(self):
        return complex(0.5 * (self.re_lo + self.re_hi),
                       0.5 * (self.im_lo + self.im_hi))

    @property
    def diameter(self):
        return float(np.hypot(self.re_hi - self.re_lo, self.im_hi - self.im_lo))

    def expand(self, factor):
        c = self.center
        hw = 0.5 * factor * (self.re_hi - self.re_lo)
        hh = 0.5 * factor * (self.im_hi - self.im_lo)
        return Rectangle(c.real - hw, c.real + hw, c.imag - hh, c.imag + hh)

    def shifted(self, delta):
        return Rectangle(self.re_lo + delta.real, self.re_hi + delta.real,
                         self.im_lo + delta.imag, self.im_hi + delta.imag)

    def contains(self, nu, pad=0.0):
        return (self.re_lo - pad <= nu.real <= self.re_hi + pad
                and self.im_lo - pad <= nu.imag <= self.im_hi + pad)

    def corners(self):
        return [complex(self.re_lo, self.im_lo), complex(self.re_hi, self.im_lo),
                complex(self.re_hi, self.im_hi), complex(self.re_lo, self.im_hi)]

    def split(self, fx=0.5, fy=0.5):
        xm = self.re_lo + fx * (self.re_hi - self.re_lo)
        ym = self.im_lo + fy * (self.im_hi - self.im_lo)
        return [Rectangle(self.re_lo, xm, self.im_lo, ym),
                Rectangle(xm, self.re_hi, self.im_lo, ym),
                Rectangle(self.re_lo, xm, ym, self.im_hi),
                Rectangle(xm, self.re_hi, ym, self.im_hi)], xm, ym


@dataclass
class RootSet:
    """Located roots with multiplicities inside an enclosing rectangle."""
    roots: list[tuple[complex, int]]
    box: Rectangle
    total_count: int

    def multiplicity_sum(self):
        return sum(m for _, m in self.roots)


def _winding_number(symbol, box):
    """Adaptive-phase winding number of d along the rectangle boundary.

    Every pending segment is bisected and a half is retired only when
    its principal phase increment is below pi/2 AND the parent midpoint
    showed no deep |d| dip.  The dip test is what makes the count
    reliable: a near-full phase turn hides behind a small principal
    increment, but it always pulls |d| down between the endpoints.

    Returns the count.  Raises InconclusiveCount when the
    accumulated phase fails to round to an integer, ContourThroughRoot
    when a segment at the floor length still jumps phase or |d| dips
    below the contour threshold.
    """
    corners = box.corners() + [box.corners()[0]]
    pts = []
    for a, b in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, 17)[:-1]
        pts.extend(a + (b - a) * ts)
    pts = np.array(pts + [pts[0]])
    vals = det_values(symbol, pts)

    if np.min(np.abs(vals)) <= _CONTOUR_MIN_ABS:
        raise ContourThroughRoot("contour sample too close to a root")

    total = 0.0
    a = pts[:-1]
    b = pts[1:]
    va = vals[:-1]
    vb = vals[1:]
    while len(a):
        if np.min(np.abs(b - a)) < _SEGMENT_FLOOR:
            raise ContourThroughRoot(
                "phase unresolved on a floor-length segment")
        mid = 0.5 * (a + b)
        vm = det_values(symbol, mid)
        vm_abs = np.abs(vm)
        if vm_abs.min() <= _CONTOUR_MIN_ABS:
            raise ContourThroughRoot("contour refinement hit a root")
        dip = vm_abs < 0.4 * np.minimum(np.abs(va), np.abs(vb))
        na = np.concatenate([a, mid])
        nb = np.concatenate([mid, b])
        nva = np.concatenate([va, vm])
        nvb = np.concatenate([vm, vb])
        ndip = np.concatenate([dip, dip])
        dphi = np.angle(nvb / nva)
        ok = (np.abs(dphi) < _PHASE_LIMIT) & ~ndip
        total += float(np.sum(dphi[ok]))
        keep = ~ok
        a, b, va, vb = na[keep], nb[keep], nva[keep], nvb[keep]

    count = total / (2 * np.pi)
    nearest = round(count)
    if abs(count - nearest) >= 0.05:
        raise InconclusiveCount(
            f"winding number {count:.4f} is not close to an integer")
    return int(nearest)


def count_roots(symbol, box, _allow_jitter=True):
    """Number of roots of det Delta inside the rectangle, by winding number.

    A contour running too close to a root is jittered: the box is
    expanded through the deterministic factor sequence 1 + 0.013k,
    k = 1..10, so repeated runs give identical integers.
    """
    symbol.check_strip([box.re_lo, box.re_hi])
    factors = _JITTER_FACTORS if _allow_jitter else _JITTER_FACTORS[:1]
    last = None
    for f in factors:
        candidate = box if f == 1.0 else box.expand(f)
        if max(abs(candidate.re_lo), abs(candidate.re_hi)) >= symbol.eta:
            break  # expansion would leave the strip; stop enlarging
        try:
            return _winding_number(symbol, candidate)
        except ContourThroughRoot as exc:
            last = exc
            continue
    raise ContourThroughRoot(
        f"could not move the contour off a root after jitter: {last}")


def newton_root(symbol, nu, region, order=0):
    """Newton on d (order 0) or on d' (order 1) from nu inside `region`.

    A step that would leave the closed rectangle `region` is halved until
    it lands inside, so for a region inside the strip d is never
    evaluated outside it.  The run ends at the first untruncated step
    below _NEWTON_TOL relative to 1 + |nu|.  Returns the root, or None
    when nu starts outside `region`, d^(order+1) vanishes or the step is
    not finite, or _NEWTON_STEPS steps do not converge.
    """
    nu = complex(nu)
    if not region.contains(nu):
        return None
    orders = (0, 1, 2)[:order + 2]
    for _ in range(_NEWTON_STEPS):
        ce = char_eval(symbol, nu, orders)
        f, df = (ce.d, ce.d1) if order == 0 else (ce.d1, ce.d2)
        if df is None or df == 0 or not np.isfinite(f / df):
            return None
        full = step = f / df
        while not region.contains(nu - step):
            step *= 0.5
        nu -= step
        if step == full and abs(step) < _NEWTON_TOL * (1 + abs(nu)):
            return nu
    return None


def locate_roots(symbol, box):
    """Locate all roots with multiplicities inside a rectangle.

    Quadrisection until every leaf carries zero or one root; cut lines
    that hit a root are nudged by deterministic offsets so sibling counts
    always partition the parent count.  Clusters that survive to the
    leaf-diameter floor are reported as one root with the leaf count as
    multiplicity.
    """
    total = count_roots(symbol, box)
    found = []

    def cluster(b, count):
        center = b.center
        if count == 2:
            polished = newton_root(symbol, center, box, order=1)
            if polished is not None and b.contains(polished, pad=b.diameter):
                center = polished
        found.append((center, count))

    def recurse(b, count, depth):
        if count == 0:
            return
        if b.diameter < _LEAF_DIAMETER or depth >= _MAX_DEPTH:
            cluster(b, count)
            return
        if count == 1:
            nu = newton_root(symbol, b.center, box)
            # accept only a polished root that stays in this leaf; a Newton
            # run can reach a root of another leaf, in which case we split
            if nu is not None and b.contains(nu, pad=1e-9 + 1e-6 * b.diameter):
                found.append((nu, 1))
                return
        for fx, fy in ((0.5, 0.5), (0.5065, 0.5065), (0.487, 0.5065),
                       (0.5065, 0.487), (0.52, 0.474)):
            children, _, _ = b.split(fx, fy)
            try:
                counts = [count_roots(symbol, c, _allow_jitter=False)
                          for c in children]
            except (ContourThroughRoot, InconclusiveCount):
                continue
            if sum(counts) == count:
                for c, k in zip(children, counts):
                    recurse(c, k, depth + 1)
                return
        # every cut placement failed; a multiple root on the cut lattice
        # blocks separation once the box is small, so accept a tight
        # cluster (polished when possible), otherwise fail loudly rather
        # than invent a location
        if b.diameter < max(1e3 * _LEAF_DIAMETER, 2e-4):
            cluster(b, count)
        else:
            raise ContourThroughRoot(
                f"cannot separate {count} roots in a box of diameter "
                f"{b.diameter:.3g}")

    recurse(box, total, 0)

    # merge near-identical polished roots (multiplicity adds)
    merged = []
    for nu, m in sorted(found, key=lambda t: (t[0].real, t[0].imag)):
        for i, (mu, mm) in enumerate(merged):
            if abs(nu - mu) < 1e-7 * (1 + abs(nu)):
                merged[i] = (mu, mm + m)
                break
        else:
            merged.append((nu, m))
    return RootSet(roots=merged, box=box, total_count=total)


@dataclass
class RootTrajectory:
    """Samples of a continued root nu(rho) and its parameter derivative."""
    rhos: list[float] = field(default_factory=list)
    nus: list[complex] = field(default_factory=list)
    nu_dots: list[complex] = field(default_factory=list)
    status: str = "incomplete"


def _rho_derivative(family, rho, nu):
    """d d_rho(nu) / d rho by central differences inside the family range."""
    span = family.rho_max - family.rho_min
    h = 1e-5 * max(1.0, span / 20.0)
    lo = max(family.rho_min, rho - h)
    hi = min(family.rho_max, rho + h)
    d_hi = complex(det_values(family.at(hi), np.array(nu)))
    d_lo = complex(det_values(family.at(lo), np.array(nu)))
    return (d_hi - d_lo) / (hi - lo)


def track_root(family, rho0, nu0, rho1):
    """Continue a simple root of d_rho from rho0 towards rho1.

    Predictor: Euler step with nu_dot = -(d d/d rho)/(d d/d nu), the rho
    derivative taken by central differences.  Corrector: `newton_root` in
    the strip at the stepped parameter, accepted when |d| is at most
    _RESIDUAL_TOL (1 + |nu0|); otherwise the parameter step is halved.
    A predictor outside the strip fails the step.  Terminates at
    rho1, on leaving the strip, or when the nu-derivative collapses
    (root collision).
    """
    symbol0 = family.at(rho0)
    scale = 1.0 + abs(nu0)
    d0 = complex(det_values(symbol0, np.array(nu0)))
    if abs(d0) > 1e-8 * scale:
        raise NotARoot(f"|d(nu0)| = {abs(d0):.3e} at rho0")
    ce = char_eval(symbol0, nu0, orders=(0, 1))
    if ce.d1 is None or abs(ce.d1) < _DERIVATIVE_FLOOR:
        raise NotARoot("seed root is not simple")

    traj = RootTrajectory()
    direction = 1.0 if rho1 >= rho0 else -1.0
    span = abs(rho1 - rho0)
    step = span / 100.0 if span > 0 else 0.0
    min_step = max(span * 1e-10, 1e-12)

    rho, nu = float(rho0), complex(nu0)

    def record(rho, nu, nud):
        traj.rhos.append(rho)
        traj.nus.append(nu)
        traj.nu_dots.append(nud)

    nud = -_rho_derivative(family, rho, nu) / ce.d1
    record(rho, nu, nud)

    for _ in range(_MAX_STEPS):
        if direction * (rho - rho1) >= 0:
            traj.status = "reached end"
            return traj
        h = min(step, abs(rho1 - rho))
        while True:
            rho_try = rho + direction * h
            sym = family.at(rho_try)
            eta = np.nextafter(sym.eta, 0.0)
            nu_corr = newton_root(sym, nu + direction * h * nud,
                                  Rectangle(-eta, eta, -np.inf, np.inf))
            if nu_corr is not None:
                ce = char_eval(sym, nu_corr, orders=(0, 1))
                if abs(ce.d) <= _RESIDUAL_TOL * scale:
                    break
            h *= 0.5
            if h < min_step:
                traj.status = "lost"
                raise LostTrack(
                    f"corrector diverged near rho = {rho:.6g} at floor step")
        rho, nu = rho_try, nu_corr
        if abs(nu.real) > 0.98 * sym.eta:
            record(rho, nu, nud)
            traj.status = "left strip"
            return traj
        if abs(ce.d1) < _DERIVATIVE_FLOOR:
            record(rho, nu, nud)
            traj.status = "merged"
            return traj
        nud = -_rho_derivative(family, rho, nu) / ce.d1
        record(rho, nu, nud)
        cap = max(abs(nud), 1e-3)
        step = min(span / 20.0, max(min_step * 10, 0.05 / cap))
    traj.status = "lost"
    raise LostTrack("step budget exhausted")

