"""Characteristic matrix, determinant machinery and hyperbolicity tests.

The characteristic matrix of a symbol is

    Delta(nu) = nu I - K_hat(nu) - sum_j A_j exp(-nu xi_j),

analytic on the symbol's strip.  Roots of d = det Delta are the
generalized spatial eigenvalues.  A symbol is hyperbolic when d has no
purely imaginary roots; this module certifies that with an explicit
axis cutoff and a Lipschitz-controlled scan.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .symbols import ShiftTerm, Symbol

__all__ = [
    "CharEval", "HyperbolicityResult", "delta_eval", "det_values",
    "char_eval", "is_hyperbolic", "axis_margin", "adjoint_symbol",
    "axis_cutoff", "axis_lipschitz",
]

# hyperbolicity certificate: refinement stops at intervals narrower than
# _FLOOR_STEP, where a margin at most _ROOT_TOL is a root
_FLOOR_STEP = 1e-9
_ROOT_TOL = 1e-12
_ROUNDING = 1e-12       # relative margin of every cleared winding cell
_MAX_ROUNDS = 64
_REFINE_ROUNDS = 12     # ring refinements per candidate dip in axis_margin


def delta_eval(symbol, nu, order=0):
    """Delta(nu) and nu-derivatives, broadcast over arrays of nu.

    order 1 gives Delta'(nu) = I - K_hat'(nu) + sum_j xi_j A_j e^{-nu xi_j},
    order 2 the second derivative (no identity term).
    """
    nu = np.asarray(nu, dtype=complex)
    eye = np.eye(symbol.n)
    if order == 0:
        out = nu[..., None, None] * eye
    elif order == 1:
        out = np.broadcast_to(eye, nu.shape + (symbol.n, symbol.n)).astype(complex).copy()
    else:
        out = np.zeros(nu.shape + (symbol.n, symbol.n), dtype=complex)
    out = out - symbol.khat(nu, order) - symbol.shift_sum(nu, order)
    return out


def det_values(symbol, nu):
    """d(nu) = det Delta(nu), vectorized."""
    return np.linalg.det(delta_eval(symbol, nu))


@dataclass
class CharEval:
    """Point evaluation of the characteristic data at nu."""
    nu: complex
    Delta: np.ndarray
    d: complex
    d1: complex | None = None
    d2: complex | None = None


def _cauchy_derivatives(symbol, nu, radius, orders, points=64):
    """d, d', d'' at nu by contour integration of d over a small circle."""
    theta = 2 * np.pi * np.arange(points) / points
    z = nu + radius * np.exp(1j * theta)
    dz = det_values(symbol, z)
    out = {}
    if 0 in orders:
        out[0] = np.mean(dz)
    if 1 in orders:
        out[1] = np.mean(dz * np.exp(-1j * theta)) / radius
    if 2 in orders:
        out[2] = 2.0 * np.mean(dz * np.exp(-2j * theta)) / radius ** 2
    return out


def char_eval(symbol, nu, orders=(0,)):
    """Evaluate Delta, d and requested derivatives of d at one point.

    The logarithmic-derivative formula d' = d * tr(Delta^{-1} Delta') is
    used when Delta is safely invertible; otherwise both derivatives fall
    back to a Cauchy integral over a radius-1e-3 circle, which stays
    accurate at and near roots of d.
    """
    nu = complex(nu)
    symbol.check_strip(nu)
    orders = set(orders) | {0}
    Delta = delta_eval(symbol, nu)
    d = complex(np.linalg.det(Delta))
    res = CharEval(nu=nu, Delta=Delta, d=d)
    if orders == {0}:
        return res
    Delta1 = delta_eval(symbol, nu, 1)
    svals = np.linalg.svd(Delta, compute_uv=False)
    scale = max(svals[0], 1.0)
    invertible = svals[-1] > 1e-8 * scale
    if invertible:
        X = np.linalg.solve(Delta, Delta1)
        if 1 in orders:
            res.d1 = d * complex(np.trace(X))
        if 2 in orders:
            Delta2 = delta_eval(symbol, nu, 2)
            Y = np.linalg.solve(Delta, Delta2)
            res.d2 = d * complex(np.trace(X) ** 2 - np.trace(X @ X) + np.trace(Y))
    else:
        radius = min(1e-3, 0.5 * (symbol.eta - abs(nu.real)))
        vals = _cauchy_derivatives(symbol, nu, radius, orders)
        res.d1 = vals.get(1)
        res.d2 = vals.get(2)
    return res


def axis_cutoff(symbol):
    """Certified bound: all strip roots satisfy |Im nu| <= cutoff.

    Any root nu = i*ell makes i*ell an eigenvalue of
    K_hat(i ell) + sum A_j e^{-i ell xi_j}, whose spectral radius is at
    most the L1 bound of the kernel plus the sum of shift norms; the
    crude n* factor plus 1 leaves slack.
    """
    kb = symbol.kernel.l1_bound() if symbol.kernel is not None else 0.0
    return symbol.n * (kb + sum(symbol.shift_norms)) + 1.0


def axis_lipschitz(symbol):
    """Lipschitz constant of ell -> Delta(i ell) in spectral norm."""
    km = symbol.kernel.moment_bound() if symbol.kernel is not None else 0.0
    return 1.0 + km + sum(abs(s.xi) * a for s, a in zip(symbol.shifts, symbol.shift_norms))


def _axis_values(symbol, ells, with_det=True):
    """sigma_min(Delta(i ell)) and det Delta(i ell) for an array of ells.

    Both come from the same evaluation of Delta.  For n >= 3 the
    determinant is an extra batched factorisation, computed only when
    `with_det` is True (None otherwise).
    """
    D = delta_eval(symbol, 1j * np.asarray(ells, dtype=float))
    n = symbol.n
    if n == 1:
        det = D[..., 0, 0]
        return np.abs(det), det
    if n == 2:
        # closed form for 2x2: avoids batched SVD overhead in scans.
        # sigma_min is computed as |det| / sigma_max, which stays accurate
        # near roots where the direct subtraction formula cancels.
        det = D[..., 0, 0] * D[..., 1, 1] - D[..., 0, 1] * D[..., 1, 0]
        fro2 = np.sum(np.abs(D) ** 2, axis=(-2, -1))
        adet = np.abs(det)
        disc = np.sqrt(np.maximum(fro2 * fro2 - 4.0 * adet * adet, 0.0))
        smax = np.sqrt(np.maximum(0.5 * (fro2 + disc), 0.0))
        return np.where(smax > 0, adet / np.maximum(smax, 1e-300), 0.0), det
    return (np.linalg.svd(D, compute_uv=False)[..., -1],
            np.linalg.det(D) if with_det else None)


def _sigma_min_axis(symbol, ells):
    """Smallest singular value of Delta(i ell) for an array of ells."""
    return _axis_values(symbol, ells, with_det=False)[0]


@dataclass
class HyperbolicityResult:
    hyperbolic: bool
    margin: float
    l_cap: float
    witnesses: list[float]
    inconclusive: bool = False
    samples: int = 0
    winding: int | None = None    # certified W, exactly when hyperbolic


def is_hyperbolic(symbol):
    """Certify that det Delta(i ell) never vanishes on the real axis, and
    certify its winding W.

    W is the winding number of f(ell) = det Delta(i ell) / (i ell + 1)^n
    over the real line; the Fredholm index of a pair of hyperbolic limits
    is W(s_plus) - W(s_minus).  With B = (l1 bound) + sum |A_j| and
    q = sin(pi / 2n):

    * Tails.  Delta(i ell) / (i ell + 1) = I - E with
      |E| <= (1 + B) / sqrt(1 + ell^2), at most q beyond T.  There every
      eigenvalue of I - E lies in |mu - 1| <= q, so |arg f| <= pi/2: no
      roots, and the tails wind by exactly the principal values Arg f(-R)
      and -Arg f(R), R = max(T, `axis_cutoff`).
    * Cells.  [-R, R] is sampled and bisected.  A cell [a, b] is cleared
      when L (b - a) (1 + 1e-12) < q (sigma(a) + sigma(b)), with
      L = `axis_lipschitz` and sigma = sigma_min(Delta(i .)).  Split it
      at t with L (t - a) / sigma(a) = L (b - t) / sigma(b) = r < q.  On
      [a, t], Delta(i a)^-1 Delta(i ell) = I + F with |F| <= r, so every
      eigenvalue of I + F lies within q of 1 and det(I + F) stays within
      pi/2 of 1's phase; the same holds on [t, b] from b.  So d has no
      root in the cell, and its phase changes across it by less than pi:
      by the principal value Arg(d(b) / d(a)).  The 1e-12 margin covers
      the rounding of the sampled sigma; T carries the same margin.

    The cell rule implies the root-free test sigma(a) + sigma(b) > L (b - a).
    A cell narrower than the floor step that fails even that test is
    refused: a margin at most `_ROOT_TOL` reports a root, a larger one is
    inconclusive.  Root-free cells are bisected past the floor until they
    clear, so hyperbolicity is decided by the root-free test at the floor
    step; cells left after `_MAX_ROUNDS` are inconclusive.  `hyperbolic`
    is True exactly when no cell is left, and then `winding` holds W.
    Non-finite samples or bounds raise a ConfigurationError before any
    refinement.
    """
    cap = axis_cutoff(symbol)
    lip = max(axis_lipschitz(symbol), 1e-12)
    if not (np.isfinite(cap) and np.isfinite(lip)):
        raise ConfigurationError("axis cutoff and Lipschitz bound must be finite")
    n = symbol.n
    q = math.sin(0.5 * math.pi / n)
    bound = (cap - 1.0) / n            # B, from axis_cutoff = n B + 1
    tail = math.sqrt(((1.0 + bound) / q) ** 2 - 1.0) * (1.0 + _ROUNDING)
    cap = max(cap, tail)
    m0 = max(129, int(min(8 * cap, 4096)) | 1)
    ells = np.linspace(-cap, cap, m0)
    sig, det = _axis_values(symbol, ells)
    if not np.all(np.isfinite(sig)):
        raise ConfigurationError("the axis margin has non-finite samples")
    samples = m0

    lo, hi = ells[:-1], ells[1:]
    slo, shi = sig[:-1], sig[1:]
    margin = float(sig.min())
    witness = float(ells[int(np.argmin(sig))])
    roots = []
    inconclusive = False
    # every sample, for the phase: the cleared intervals are the gaps
    # between them
    points, dets = [ells], [det]
    slope = lip * (1.0 + _ROUNDING) / q     # the cell rule, divided by q

    for _ in range(_MAX_ROUNDS):
        width = hi - lo
        cleared = slope * width < slo + shi
        # drop cleared intervals, bisect the rest
        keep = ~cleared
        if not keep.any():
            break
        lo, hi, slo, shi = lo[keep], hi[keep], slo[keep], shi[keep]
        width = hi - lo
        at_floor = width < _FLOOR_STEP
        if at_floor.any():
            # past the floor step only root-free cells are bisected further
            at_floor &= ~(slo + shi > lip * width)
            best = np.minimum(slo[at_floor], shi[at_floor])
            for b, lval in zip(best, lo[at_floor]):
                if b <= _ROOT_TOL:
                    roots.append(float(lval))
                else:
                    inconclusive = True
            lo, hi, slo, shi = lo[~at_floor], hi[~at_floor], slo[~at_floor], shi[~at_floor]
            if lo.size == 0:
                break
        mid = 0.5 * (lo + hi)
        smid, dmid = _axis_values(symbol, mid)
        samples += mid.size
        points.append(mid)
        dets.append(dmid)
        mloc = float(smid.min()) if smid.size else margin
        if mloc < margin:
            margin = mloc
            witness = float(mid[int(np.argmin(smid))])
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        slo = np.concatenate([slo, smid])
        shi = np.concatenate([smid, shi])
    else:
        inconclusive = True  # the rounds ran out with intervals left

    hyperbolic = not roots and not inconclusive
    winding = None
    if hyperbolic:
        # phase of f: both tails, the denominator across [-cap, cap] and
        # the principal phase step of d across each cell
        d = np.concatenate(dets)[np.argsort(np.concatenate(points))]
        phase = (cmath.phase(d[0] / (1 - 1j * cap) ** n)
                 - cmath.phase(d[-1] / (1 + 1j * cap) ** n)
                 - 2 * n * math.atan(cap) + float(np.angle(d[1:] / d[:-1]).sum()))
        winding = round(phase / (2 * math.pi))
    wit = roots if roots else [witness]
    return HyperbolicityResult(hyperbolic=hyperbolic, margin=margin, l_cap=cap,
                               witnesses=wit, inconclusive=inconclusive,
                               samples=samples, winding=winding)


def _dips(vals, trigger):
    """Indices of interior local minima low enough to hide a zero.

    A zero hidden between samples shows up as a local minimum no larger
    than the local slope times the sample step (plus `trigger`).
    """
    c, lo, hi = vals[1:-1], vals[:-2], vals[2:]
    slope = np.maximum(np.abs(c - lo), np.abs(hi - c))
    return np.nonzero((c <= lo) & (c <= hi) & (c < 1.5 * slope + trigger))[0] + 1


def _axis_dips(symbol, all_zeros=False):
    """Refined dips (sigma, ell) of sigma_min(Delta(i ell)), in candidate order.

    The coarse local minima of a fixed axis grid low enough to compete
    for the minimum (at most 8, lowest first) are refined by shrinking
    rings, deep enough that the dips at axis roots resolve far below the
    crossing threshold.  With `all_zeros`, every other coarse dip low
    enough to hide a zero (`_dips`) follows, in scan order, so that a
    narrow zero that samples high beside a deeper one is not left out.
    """
    cap = axis_cutoff(symbol)
    m0 = max(257, int(min(8 * cap, 2049)) | 1)
    ells = np.linspace(-cap, cap, m0)
    sig = _sigma_min_axis(symbol, ells)
    step0 = ells[1] - ells[0]

    # several coarse dips can compete; a narrow near-zero dip easily
    # samples larger than a broad benign one, so refine every candidate
    c = sig[1:-1]
    idx = np.nonzero((c <= sig[:-2]) & (c <= sig[2:]))[0] + 1
    idx = idx[np.argsort(sig[idx], kind="stable")]
    coarse_best = float(sig.min())
    cands = idx[sig[idx] <= max(100.0 * coarse_best, 1e-3)][:8]
    if not cands.size:
        cands = [int(np.argmin(sig))]
    if all_zeros:
        cands = np.concatenate([cands, np.setdiff1d(_dips(sig, 1e-5), cands)])

    dips = []
    for k in cands:
        b, w = float(sig[k]), float(ells[k])
        step = step0
        for _ in range(_REFINE_ROUNDS):
            # keep shrinking even without improvement: the dip bottom
            # may sit between ring points at the current resolution
            step = step / 8.0
            local = w + step * np.arange(-8, 9)
            lsig = _sigma_min_axis(symbol, local)
            lmin = float(lsig.min())
            if lmin < b:
                b, w = lmin, float(local[int(np.argmin(lsig))])
            if step < 1e-13 * max(1.0, cap):
                break
        dips.append((b, w))
    return dips


def axis_margin(symbol):
    """Cheap (non-certified) minimum of sigma_min(Delta(i ell)) on the axis.

    Used by crossing scans where only the value of the margin function is
    needed, not a certificate: the first lowest of `_axis_dips`, inf when
    no sample is finite.
    """
    b, w = min(_axis_dips(symbol), key=lambda d: d[0])
    return (np.inf if np.isnan(b) else b), w


def adjoint_symbol(symbol):
    """Symbol of the formal adjoint operator.

    Kernel zeta -> -K(-zeta)^H and shifts -A_j^H at -xi_j, so that
    Delta_adj(nu) = -Delta(-conj nu)^H and
    det Delta_adj(nu) = (-1)^n conj(det Delta(-conj nu)).
    """
    kernel = None if symbol.kernel is None else symbol.kernel.adjoint()
    shifts = tuple(ShiftTerm(-s.xi, -s.A.conj().T) for s in symbol.shifts)
    return Symbol(symbol.n, kernel, shifts, symbol.eta)
