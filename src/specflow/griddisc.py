"""Dense grid discretization of the nonlocal operators, used as an oracle.

The operator d/dxi - K*(.) - sum_j A_j(xi) (. - xi_j) is assembled on a
truncated uniform grid with zero extension: second-order centered
differences (one-sided at the boundary rows), trapezoid quadrature for
the convolution, and linear interpolation for off-grid shift targets.
Exponential weights enter as an exact diagonal conjugation with the
smooth profile exp(w(xi)), w'(xi) -> gamma_[-,+] as xi -> -+infinity.
One array build makes every matrix (`_assembled`): the derivative
blocks minus the trapezoid-plus-kink convolution blocks (`_conv_rows`)
and the shifts.  The constant symbol, the xi-dependent operator and its
adjoint only supply the kernel values of all rows at once, their edge
data and their shifts.  The matrix is complex exactly when some datum
has an imaginary part.

The same discretization kit serves the two Newton applications: one
trapezoid-plus-kink convolution (`Convolution`; its corrections read the
jumps of K and K' at 0 from `KernelSpec.jump`) whose window rows on an
extended grid, plus exact tails beyond it, give K * U, the fourth-order
difference matrix, the weighted window of a decaying correction, and
one damped Newton solver.

Kernel and cokernel dimensions are then estimated from the singular
value spectrum: truncation perturbs exact zero singular values to
exponentially small ones, so a ratio gap separates them from the rest
whenever the defect functions decay fast enough inside the window.
No full SVD is taken (`_partial_svd`).  An operator without a kernel
has a banded matrix, and its singular values are the eigenvalues +-s of
the banded Hermitian Jordan-Wielandt matrix [[0, A], [A^H, 0]]; a
kernel fills the matrix, and a values-only SVD gives them.  Only the
right singular vectors below the cut are computed, by block inverse
iteration through one LU (sparse for a band, dense otherwise), and the
edge-mass filter works on the subspace they span.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.linalg import (LinAlgWarning, cho_factor, cho_solve, eig_banded,
                          lu_factor, lu_solve)
from scipy.sparse.linalg import norm as sparse_norm, splu

from .charmatrix import adjoint_symbol
from .errors import (ConfigurationError, GridTooCoarse, NewtonDiverged,
                     NumericalError, TailUnresolved)
from .kernels import ExpPolyKernel, _real, trapezoid_weights
from .symbols import OperatorFamily, Symbol

__all__ = [
    "Grid", "GridOperator", "NullityResult", "assemble", "nullity",
    "index_estimate", "solve_inhomogeneous", "weight_exponent",
    "trapezoid_weights", "fd4_matrix", "WeightedWindow", "newton_solve",
    "fd_columns", "Convolution", "Annihilated", "block_sparse",
    "block_toeplitz",
]

_TOL_RATIO = 1e3            # singular-value gap that makes a spectral cut clear
# singular values come from the banded Jordan-Wielandt eigenproblem when
# its half-width is at most this fraction of the matrix order; there its
# cost meets the values-only SVD's (N = 1201 and 2402, one thread)
_BAND_FRACTION = 1 / 16
# near-null vectors: block inverse iteration with _OVERSAMPLE extra
# columns, until the Ritz values match to _RITZ_RTOL, in _MAX_SWEEPS sweeps
_OVERSAMPLE = 2
_RITZ_RTOL = 1e-8
_MAX_SWEEPS = 30
# near-null modes with more than _EDGE_MASS_LIMIT of their mass in the
# outer _EDGE_FRACTION of the window are truncation artifacts
_EDGE_FRACTION = 0.15
_EDGE_MASS_LIMIT = 0.5
# Newton steps: Tikhonov parameter of the column-equilibrated normal
# equations, and the number of iterated-ridge solves per step
_RIDGE = 1e-5
_RIDGE_SOLVES = 5
# rows per block of an exponential kernel's O(N) convolution sweep
_SWEEP_BLOCK = 64
# the extended grid of a Newton application reaches this far past its window
_FAR_PAD = 12.0


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-L, L]."""
    L: float = 30.0
    h: float = 0.05

    def __post_init__(self):
        if not (np.isfinite(self.L) and np.isfinite(self.h)
                and self.L > 0 and self.h > 0):
            raise ConfigurationError("grid needs finite L > 0 and h > 0")

    @property
    def nodes(self):
        return -self.L + self.h * np.arange(self.size)

    @property
    def size(self):
        return int(round(2 * self.L / self.h)) + 1


def weight_exponent(xi, gamma_minus, gamma_plus):
    """Smooth two-sided weight exponent w with w' -> gamma_+- at +-infinity.

    For gamma_minus = -gamma and gamma_plus = gamma this is exactly
    gamma * sqrt(xi^2 + 1); in general the two rates are blended over a
    unit-width transition region around the origin.
    """
    xi = np.asarray(xi, dtype=float)
    avg = 0.5 * (gamma_plus + gamma_minus)
    dif = 0.5 * (gamma_plus - gamma_minus)
    return avg * xi + dif * np.sqrt(xi * xi + 1.0)


@dataclass
class GridOperator:
    """Dense matrix of the (possibly weighted) operator on a grid."""
    matrix: np.ndarray
    grid: Grid
    n: int
    weights: tuple[float, float]
    weight_vector: np.ndarray      # exp(w(xi)) per node

    @property
    def node_count(self):
        return self.matrix.shape[0] // self.n


def fd4_matrix(m, h):
    """Fourth-order first-derivative matrix with one-sided closures (CSR).

    Every row holds one 5-point stencil: centred on interior rows, and
    one-sided on the two rows at each end.
    """
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    e = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
    rows = np.arange(m)
    first = np.clip(rows - 2, 0, m - 5)
    first[1], first[-2] = 1, m - 6
    stencils = np.tile(c, (m, 1))
    stencils[:2] = e
    stencils[-2:] = -e[::-1]
    D = sparse.csr_matrix(
        (stencils.ravel(), (np.repeat(rows, 5), (first[:, None] + np.arange(5)).ravel())),
        shape=(m, m))
    D.eliminate_zeros()
    return D


def _edge_data(kernel):
    """(K(0-), K(0+), j0, j1): one-sided values and the jumps of K and K'."""
    return (kernel.value_one_sided(-1), kernel.value_one_sided(+1),
            kernel.jump(), kernel.derivative().jump())


def _kink(j0, j1, h):
    """Euler-Maclaurin kink terms of a trapezoid row, by offset d = i - j.

    j0 and j1 are the jumps of K and K' at 0 (`_edge_data`).  The true
    integral is the trapezoid sum plus (h^2/12) times the jump of the
    integrand derivative, which couples to U(xi_i) and, by centred
    differences, to U'(xi_i): the terms at d = 0, 1, -1.
    """
    cc = h * h / 12.0
    return {0: cc * j1, 1: -(cc * j0 * (-0.5 / h)), -1: -(cc * j0 * (0.5 / h))}


def _conv_rows(vals, edge, h):
    """Trapezoid-plus-kink convolution blocks C[i, j] of m nodes, (m, m, n, n).

    `vals[i, j]` is row i's kernel at xi_i - xi_j and `edge` the rows'
    `_edge_data`, each (n, n) or one per row (m, n, n).  Interior rows
    take the `_kink` band.  On the corner rows the kink sits on the
    window edge: the diagonal takes the one-sided kernel branch and no
    jump correction.
    """
    m, _, n, _ = vals.shape
    w = trapezoid_weights(m, h)
    C = vals * w[:, None, None]
    k_minus, k_plus, j0, j1 = (np.broadcast_to(e, (m, n, n)) for e in edge)
    i = np.arange(1, m - 1)
    for d, K in _kink(j0[i], j1[i], h).items():
        C[i, i - d] += K
    C[0, 0] = k_minus[0] * w[0]
    C[-1, -1] = k_plus[-1] * w[-1]
    return C


def _toeplitz_view(T):
    """view[i, j] = T[m - 1 + i - j], (m, m, n, n), of a table on the offsets |d| < m.

    A strided view of T: no (m n)^2 copy.
    """
    m = (len(T) + 1) // 2
    return sliding_window_view(T, m, axis=0)[..., ::-1].transpose(0, 3, 1, 2)


def block_sparse(rows, cols, blocks, shape):
    """CSR matrix with the n x n block (rows[k], cols[k]) = blocks[k]; repeats add."""
    blocks = np.asarray(blocks)
    n = blocks.shape[-1]
    a = np.arange(n)
    r = np.asarray(rows)[:, None, None] * n + a[None, :, None]
    c = np.asarray(cols)[:, None, None] * n + a[None, None, :]
    return sparse.csr_matrix(
        (blocks.ravel(), (np.broadcast_to(r, blocks.shape).ravel(),
                          np.broadcast_to(c, blocks.shape).ravel())), shape=shape)


class _ExpPolySweep:
    """y_i = sum_{d >= 1} (d h)^p e^{-b d h} x_{i - d} over the rows of x, in O(N).

    The rows go in blocks of L = _SWEEP_BLOCK.  Inside a block the sum
    is a small Toeplitz product.  The rows before block B enter through
    the p + 1 moments S_q(B) = sum_{d >= 1} (d h)^q e^{-b d h} x_{BL - d},
    by the binomial expansion of ((i + d) h)^p, and the moments carry
    from block to block the same way: one sweep with a decay of
    e^{-b L h} per step, so rounding does not pile up over the 1 / (b h)
    rows the kernel reaches.
    """

    def __init__(self, b, p, h):
        L = _SWEEP_BLOCK
        d = np.arange(L + 1)
        g = (h * d) ** p * np.exp(-b * (h * d))
        i, q = np.arange(L), np.arange(p + 1)
        lag = i[:, None] - i[None, :]
        self.local = np.where(lag > 0, g[np.abs(lag)], 0.0)
        binom = np.array([[math.comb(a, c) for c in q] for a in q], dtype=float)
        # y_i += sum_q inward[i, q] S_q, and S_q(B + 1) = outward @ x + carry @ S(B)
        self.inward = binom[p] * (h * i[:, None]) ** (p - q) * np.exp(-b * (h * i))[:, None]
        self.outward = (h * (L - i)) ** q[:, None] * np.exp(-b * (h * (L - i)))
        self.carry = binom * (h * L) ** np.subtract.outer(q, q).clip(0) * math.exp(-b * h * L)

    def __call__(self, x):
        L = _SWEEP_BLOCK
        m = len(x)
        blocks = np.zeros((-(-m // L) * L, x.shape[1]))
        blocks[:m] = x
        blocks = blocks.reshape(-1, L, x.shape[1])
        out = np.einsum("qj,bjn->bqn", self.outward, blocks)
        moments = np.zeros_like(out)
        for B in range(1, len(blocks)):
            moments[B] = out[B - 1] + self.carry @ moments[B - 1]
        y = (np.einsum("ij,bjn->bin", self.local, blocks)
             + np.einsum("iq,bqn->bin", self.inward, moments))
        return y.reshape(-1, x.shape[1])[:m]


def block_toeplitz(T):
    """Dense (m n, m n) block Toeplitz matrix of a table T: block (i, j) = T[m - 1 + i - j]."""
    view = _toeplitz_view(T)
    return view.transpose(0, 2, 1, 3).reshape(len(view) * T.shape[-1], -1)


class Convolution:
    """The trapezoid-plus-kink rows of a real kernel on a grid of spacing h.

    Row i of F on m nodes is sum_j K(x_i - x_j) w_j F_j (trapezoid
    weights w) plus the `_kink` terms at |i - j| <= 1, on the end
    rows too: the applications take only rows well inside their extended
    grid, and the corner rule is the grid oracle's zero extension.
    `table` gives the rows by offset; `apply` takes them as the block
    Toeplitz product of the kernel values.  An ExpPolyKernel (`rational`)
    is an ODE in disguise: each term C (d h)^p e^{-b d h} on the offsets
    d >= 1 (side +1; d <= -1 for side -1) is one O(N) sweep, and with
    r = e^{-b h} the unit-bidiagonal factor I - r E^{-+1} (E^{-1} takes
    node i - 1 to row i) applied p + 1 times cancels it in every row away
    from the diagonal.  The product Q of these factors over the distinct
    (side, rate) pairs, at each pair's highest power, turns the block
    Toeplitz matrix of the rows into a band (`annihilate`); no other
    kernel has one.  A complex value is refused, naming the kernel `name`.
    """

    def __init__(self, kernel, h, name="kernel"):
        self.h = h
        self.kernel = kernel
        self.name = name
        self.at_zero = _real(kernel.value(np.zeros(1))[0], name)
        _, _, j0, j1 = (_real(v, name) for v in _edge_data(kernel))
        self.kink = _kink(j0, j1, h)
        self.rational = isinstance(kernel, ExpPolyKernel)
        self.sweeps = []
        if not self.rational:
            return
        self.sweeps = [(side, _ExpPolySweep(b, p, h), _real(C, name))
                       for side, b, p, C in kernel.terms]
        powers = {}
        for side, b, p, _ in kernel.terms:
            powers[side, b] = max(powers.get((side, b), 0), p + 1)
        self.lower = self.upper = np.ones(1)
        for (side, b), count in powers.items():
            factor = np.ones(1)
            for _ in range(count):
                factor = np.convolve(factor, [1.0, -math.exp(-b * h)])
            if side > 0:
                self.lower = np.convolve(self.lower, factor)
            else:
                self.upper = np.convolve(self.upper, factor)

    def values(self, m):
        """The kernel at the offsets d h, |d| < m, shape (2 m - 1, n, n)."""
        return _real(self.kernel.value(self.h * np.arange(-(m - 1), m)), self.name)

    def apply(self, F):
        """The rows applied to F, shape (m, n), on m grid nodes."""
        m = len(F)
        x = trapezoid_weights(m, self.h)[:, None] * F
        if self.rational:
            y = x @ self.at_zero.T
        else:
            # view[a, b, i, j] = K(x_i - x_j)[a, b], with no (m n)^2 copy
            rev = np.ascontiguousarray(self.values(m)[::-1].transpose(1, 2, 0))
            y = np.einsum("abij,jb->ia", sliding_window_view(rev, m, axis=-1)[:, :, ::-1], x)
        y += F @ self.kink[0].T
        y[1:] += F[:-1] @ self.kink[1].T
        y[:-1] += F[1:] @ self.kink[-1].T
        for side, sweep, C in self.sweeps:
            y += (sweep(x) if side > 0 else sweep(x[::-1])[::-1]) @ C.T
        return y

    def table(self, m):
        """Blocks of the rows by offset: T[m - 1 + d] at d = i - j, |d| < m.

        These are the rows of a grid whose columns all carry the full
        trapezoid weight h (the window rows and columns of a larger grid).
        """
        T = self.h * self.values(m)
        for d, K in self.kink.items():
            T[m - 1 + d] += K
        return T

    def _stencils(self, m):
        """Q by rows: coefficient [i, KL + e] at column i + e, e = -KL .. KU.

        Interior rows hold the upper factors times the lower ones.  The
        KL first rows hold the upper factors alone and the KU last rows
        the lower ones alone: there a product would reach past the
        matrix edge and leave whole rows of the Toeplitz part standing.
        """
        KL, KU = len(self.lower) - 1, len(self.upper) - 1
        coef = np.tile(np.convolve(self.upper, self.lower[::-1]), (m, 1))
        coef[:KL] = np.concatenate([np.zeros(KL), self.upper])
        coef[m - KU:] = np.concatenate([self.lower[::-1], np.zeros(KU)])
        return coef, KL, KU

    def annihilator(self, m):
        """Q on m nodes (CSR), invertible and banded (see `_stencils`)."""
        coef, KL, KU = self._stencils(m)
        e = np.arange(-KL, KU + 1)
        rows = np.repeat(np.arange(m), len(e))
        cols = rows + np.tile(e, m)
        keep = (cols >= 0) & (cols < m)
        return sparse.csr_matrix((coef.ravel()[keep], (rows[keep], cols[keep])),
                                 shape=(m, m))

    def annihilate(self, T, m):
        """(Q kron I_n) times the block Toeplitz matrix of the table T (CSR).

        T may differ from `table(m)` at offsets |d| <= 1 only.  Every row
        of the product vanishes beyond the offsets d = i - j in
        -(KU + 1) .. KL + 1, so only that band is formed:
        block (i, i - d) = sum_e Q[i, i + e] T(d + e).
        """
        coef, KL, KU = self._stencils(m)
        d = np.arange(-(KU + 1), KL + 2)
        e = np.arange(-KL, KU + 1)
        blocks = np.einsum("ie,deab->idab", coef, T[m - 1 + d[:, None] + e[None, :]])
        rows = np.repeat(np.arange(m), len(d))
        cols = rows - np.tile(d, m)
        keep = (cols >= 0) & (cols < m)
        n = T.shape[-1]
        return block_sparse(rows[keep], cols[keep], blocks.reshape(-1, n, n)[keep],
                            (m * n, m * n))


def _derivative_matrix(m, h):
    """Second-order centred first derivative, one-sided at both ends."""
    D = np.zeros((m, m))
    r = np.arange(1, m - 1)
    D[r, r - 1] = -0.5 / h
    D[r, r + 1] = 0.5 / h
    D[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return D


def _interp_row(target, nodes, h):
    """Linear-interpolation weights for evaluation at `target` (0 outside)."""
    m = len(nodes)
    if target < nodes[0] or target > nodes[-1]:
        return ()
    t = (target - nodes[0]) / h
    k = min(int(np.floor(t)), m - 2)
    frac = t - k
    if frac < 1e-12:
        return ((k, 1.0),)
    return ((k, 1.0 - frac), (k + 1, frac))


def _check_resolution(symbol, grid):
    nonzero = [abs(s.xi) for s in symbol.shifts if s.xi != 0.0]
    if nonzero and grid.h > min(nonzero) / 2.0:
        raise GridTooCoarse(
            f"h = {grid.h:g} cannot resolve the smallest shift {min(nonzero):g}")
    if symbol.kernel is not None:
        total = max(symbol.kernel.l1_bound(), 1e-300)
        tail = (np.linalg.norm(symbol.kernel.tail_transform(np.array([grid.L]), 0.0)[0], 2)
                + np.linalg.norm(symbol.kernel.head_transform(np.array([-grid.L]), 0.0)[0], 2))
        if tail > 1e-8 * total:
            raise TailUnresolved(
                f"kernel mass beyond |xi| = L is {tail / total:.2e} of the total")


def _assembled(grid, n, vals, edge, shifts, weights):
    """GridOperator of D_W M D_W^{-1}: M is the derivative blocks minus the
    convolution blocks (`_conv_rows` of vals and edge, or none when vals
    is None) and the shifts.

    `shifts` are (xi, A) terms, xi a scalar or one per row (m,), A
    (n, n) or one per row (m, n, n); a row without the term holds xi = 0
    and A = 0.  A shift at offset 0 lands on the diagonal; any other
    target xi_i - offset is linearly interpolated (`_interp_row`).  The
    matrix is complex exactly when some datum has a nonzero imaginary
    part; otherwise every datum enters by its real part.
    """
    m, h, nodes = grid.size, grid.h, grid.nodes
    data = [A for _, A in shifts] + ([] if vals is None else [vals, *edge])
    cplx = any(np.iscomplexobj(v) and np.imag(v).any() for v in data)
    typed = np.asarray if cplx else np.real
    M = np.zeros((m * n, m * n), dtype=complex if cplx else float)
    M4 = M.reshape(m, n, m, n)
    D = _derivative_matrix(m, h)
    for a in range(n):
        M[a::n, a::n] += D
    if vals is not None:
        M4 -= _conv_rows(typed(vals), [typed(e) for e in edge], h).transpose(0, 2, 1, 3)
    for xi, A in shifts:
        xi = np.broadcast_to(xi, (m,))
        hits = [(i, col, wgt) for i in range(m) for col, wgt in
                (((i, 1.0),) if xi[i] == 0.0 else _interp_row(nodes[i] - xi[i], nodes, h))]
        if hits:
            r, c, wgt = (np.array(v) for v in zip(*hits))
            M4[r, :, c, :] -= wgt[:, None, None] * np.broadcast_to(typed(A), (m, n, n))[r]
    wexp = weight_exponent(nodes, *weights)
    wexp = wexp - wexp.max()  # normalize so the conjugation stays bounded
    W = np.exp(np.repeat(wexp, n))
    M *= W[:, None]
    M *= (1.0 / W)[None, :]
    return GridOperator(matrix=M, grid=grid, n=n, weights=tuple(weights),
                        weight_vector=W)


def _family_assembled(operator, grid, weights, adjoint):
    """`_assembled` of a xi-dependent operator, or of its formal adjoint.

    The operator is an OperatorFamily or a callable xi -> Symbol.  Row i
    of the operator has the kernel values K(xi_i - xi_j; xi_i), zero
    without a kernel, and the shifts of at(xi_i); `assemble_adjoint`
    gives the adjoint's rows.
    """
    at = operator.at if isinstance(operator, OperatorFamily) else operator
    s0 = at(0.0)
    _check_resolution(s0, grid)
    n, m, nodes = s0.n, grid.size, grid.nodes
    syms = [at(x) for x in nodes]
    kernels = [s.kernel for s in syms]
    vals = None
    if any(k is not None for k in kernels):
        vals = np.zeros((m, m, n, n), dtype=complex)
        for i, k in enumerate(kernels):
            if k is not None:
                vals[i] = k.value(nodes[i] - nodes)
    rows = [[(t.xi, t.A) for t in s.shifts] for s in syms]
    if adjoint:
        if vals is not None:
            vals = vals.transpose(1, 0, 3, 2)
            np.negative(vals.real, out=vals.real)    # -K^H, in place
        kernels = [None if k is None else k.adjoint() for k in kernels]
        rows = [[(-xi, -(at(x + xi) if abs(x + xi) <= grid.L else s).shifts[k].A.conj().T)
                 for k, (xi, _) in enumerate(row)]
                for x, s, row in zip(nodes, syms, rows)]
    zero = (np.zeros((n, n)),) * 4
    edge = [np.array(e) for e in zip(*(zero if k is None else _edge_data(k) for k in kernels))]
    pad = (0.0, np.zeros((n, n)))
    shifts = [tuple(np.array(v) for v in zip(*(r[k] if k < len(r) else pad for r in rows)))
              for k in range(max(map(len, rows)))]
    return _assembled(grid, n, vals, edge, shifts, weights)


def assemble(operator, grid, weights=(0.0, 0.0)):
    """Assemble the dense matrix of the operator on the grid.

    `weights` is the pair (gamma_minus, gamma_plus).  The returned
    matrix is D_W T D_W^{-1} with W = exp(weight exponent).
    """
    if not isinstance(operator, Symbol):
        return _family_assembled(operator, grid, weights, adjoint=False)
    _check_resolution(operator, grid)
    vals = edge = None
    if operator.kernel is not None:
        # one kernel table on the node offsets, viewed row by row
        offsets = grid.h * np.arange(1 - grid.size, grid.size)
        vals = _toeplitz_view(operator.kernel.value(offsets))
        edge = _edge_data(operator.kernel)
    return _assembled(grid, operator.n, vals, edge,
                      [(s.xi, s.A) for s in operator.shifts], weights)


def assemble_adjoint(operator, grid, weights=(0.0, 0.0)):
    """Assemble the formal adjoint operator with the given weights.

    For a constant symbol this is the adjoint symbol assembled normally.
    For a xi-dependent operator row i has the kernel values
    -K(xi_j - xi_i; xi_j)^H, which sample the family at the column base
    point, the kink and corner data of the adjoint of K(.; xi_i), and the
    shifts (-xi_s, -A_s(xi_i + xi_s)^H).
    """
    if isinstance(operator, Symbol):
        return assemble(adjoint_symbol(operator), grid, weights)
    return _family_assembled(operator, grid, weights, adjoint=True)


@dataclass
class NullityResult:
    dim: int                 # near-null modes concentrated inside the window
    gap: float
    singulars: np.ndarray    # ascending
    tol_abs: float
    reliable: bool
    dim_raw: int = 0         # everything below the spectral cut
    edge_masses: tuple = ()  # eigenvalues of Q^H P Q, ascending (see nullity)


def nullity(gridop, tol_ratio=_TOL_RATIO):
    """Numerical kernel dimension of a GridOperator from its singular values.

    The cut is placed at the largest ratio gap among singular values
    below the median; a best gap under `tol_ratio` flags the result as
    unreliable rather than raising.  A spectrum whose smallest singular
    value is already at working scale reports dimension 0 with infinite
    gap.

    The spectrum comes from `_partial_svd`: every singular value, from
    the banded Jordan-Wielandt eigenproblem when the matrix is banded
    (operators without a kernel) and from a values-only dense SVD
    otherwise, and the right singular vectors of the `dim_raw` values
    below the cut only, by block inverse iteration through one LU.
    Gaps between values at rounding level (far above 1e8) depend on the
    engine and carry no information.

    Zero extension at the window edges creates spurious near-null modes
    living in a boundary layer (half-line artifacts of the truncation).
    Genuine kernel functions are square integrable on the line and enter
    the window concentrated away from the edges.  With Q an orthonormal
    basis of the near-null subspace and P the projector onto the outer
    15% of the window, `edge_masses` are the eigenvalues of Q^H P Q:
    they do not depend on the basis, which a subspace at rounding level
    does not single out.  Modes with more than half of their mass at the
    edges are classified as truncation artifacts and excluded from `dim`
    (they remain counted in `dim_raw`).

    The reliability flag refers to the clarity of the chosen spectral
    cut, not to completeness: kernel modes whose truncation error is not
    yet small at the given window (for example generalized modes of a
    multiple root, which decay like L exp(-gamma L) under the weight)
    sit above the cut and are simply not seen.  Enlarging L and the
    weight rate until the reported dimension stabilizes is the caller's
    convergence test.
    """
    s, right_vectors = _partial_svd(gridop.matrix)
    return _classify_spectrum(gridop, s, right_vectors, tol_ratio)


def _jordan_wielandt_band(M):
    """Upper band of the Jordan-Wielandt matrix of M, or None if too wide.

    In the interleaved order z = (x_1, y_1, x_2, y_2, ...) the Hermitian
    matrix [[0, M], [M^H, 0]] holds M[i, j] at (2i, 2j + 1) and its
    conjugate at (2j + 1, 2i).  Only the odd superdiagonals d = 2p + 1
    are nonzero: diagonal p of M on the even rows and the conjugate of
    diagonal -(p + 1) on the odd rows.  Returns the (kd + 1, 2N) upper
    band storage of `scipy.linalg.eig_banded`, or None when the half-width
    kd exceeds _BAND_FRACTION of N.
    """
    N = M.shape[0]
    nz = M != 0
    row = np.arange(N)
    lower = int(np.max(row - nz.argmax(axis=1)))
    upper = int(np.max(N - 1 - nz[:, ::-1].argmax(axis=1) - row))
    kd = max(2 * upper + 1, 2 * lower - 1)
    if kd > _BAND_FRACTION * N:
        return None
    band = np.zeros((kd + 1, 2 * N), dtype=M.dtype)
    for p in range((kd + 1) // 2):
        d = 2 * p + 1
        band[kd - d, d::2] = np.diagonal(M, p)
        band[kd - d, d + 1::2] = np.diagonal(M, -(p + 1)).conj()
    return band


def _partial_svd(M):
    """Ascending singular values of the square M, and its near-null vectors.

    Returns (s, right_vectors): right_vectors(k) is an orthonormal basis
    (N x k) of the right singular vectors of s[:k].  When M is banded the
    values come from the Jordan-Wielandt eigenvalues +-s (Golub & Van
    Loan, Matrix Computations, 8.6), each s the half-difference of a
    mirrored pair, which cancels the part of the rounding that no
    perturbation of M explains; otherwise from a values-only SVD.  The
    vectors come from `_smallest_right_vectors`, through a sparse LU for
    a banded M and a dense one otherwise.
    """
    N = M.shape[0]
    band = _jordan_wielandt_band(M)
    if band is None:
        s = np.linalg.svd(M, compute_uv=False)[::-1]
        A = M
    else:
        eig = eig_banded(band, eigvals_only=True)
        s = 0.5 * (eig[N:] - eig[N - 1::-1])
        A = sparse.csc_matrix(M)
    return s, partial(_smallest_right_vectors, A, s)


def _lu_solver(A, delta):
    """solve(b, trans) by one LU of A: A x = b for "N", A^H x = b for "H".

    A sparse A goes through `splu`, a dense one through `lu_factor`.  An
    exactly zero pivot (the constants are an exact null vector of the
    difference rows of Delta(nu) = nu) factors A + delta I instead.
    """
    N = A.shape[0]
    if sparse.issparse(A):
        try:
            lu = splu(A)
        except RuntimeError:            # "Factor is exactly singular"
            lu = splu(sparse.csc_matrix(A + delta * sparse.identity(N)))
        return lu.solve
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        factors = lu_factor(A)
    if not np.diagonal(factors[0]).all():
        factors = lu_factor(A + delta * np.eye(N))
    return lambda b, trans: lu_solve(factors, b, trans={"N": 0, "H": 2}[trans])


def _smallest_right_vectors(A, s, k):
    """Right singular vectors of the k smallest singular values s[:k] of A.

    Block inverse iteration on A^H A through one LU of A, with
    _OVERSAMPLE extra columns and a fixed seeded start block.  Each sweep
    orthonormalizes after A^-H and again after A^-1: one QR of the
    (A^H A)^-1 image would have to resolve 1/s^2, and a mode at 1e-8
    would drown in the rounding of one at 1e-16.  A
    Rayleigh-Ritz SVD of A V follows every sweep, until the k smallest
    Ritz values match s[:k] to _RITZ_RTOL relative or, at rounding level,
    to 2 delta, delta = N eps ||A|| (the shift of an exactly singular A
    moves them by up to that).  Raises NumericalError if _MAX_SWEEPS
    sweeps do not get there.  Returns an orthonormal (N, k) array.
    """
    N = A.shape[0]
    delta = N * np.finfo(float).eps * s[-1]
    solve = _lu_solver(A, delta)
    tol = _RITZ_RTOL * s[:k] + 2.0 * delta
    X = np.random.default_rng(0).standard_normal((N, k + _OVERSAMPLE))
    for _ in range(_MAX_SWEEPS):
        X = np.linalg.qr(solve(np.linalg.qr(solve(X, "H"))[0], "N"))[0]
        _, ritz, Wh = np.linalg.svd(A @ X, full_matrices=False)
        if np.all(np.abs(ritz[::-1][:k] - s[:k]) <= tol):
            return X @ Wh[::-1][:k].conj().T
    raise NumericalError(
        f"inverse iteration did not reach the {k} smallest singular values "
        f"in {_MAX_SWEEPS} sweeps")


def _classify_spectrum(gridop, s, right_vectors, tol_ratio=_TOL_RATIO):
    """The nullity classification of ascending singular values s.

    right_vectors(k) is an orthonormal basis of the right singular
    vectors of s[:k]; it is called only when the cut leaves k > 0.
    """
    floor = 1e-9 * s[-1]
    median = s[len(s) // 2]
    limit = np.searchsorted(s, median)
    if limit < 1:
        return NullityResult(0, np.inf, s, 0.0, True)
    ratios = s[1:limit + 1] / np.maximum(s[:limit], 1e-300)
    k = int(np.argmax(ratios))
    best = float(ratios[k])
    if s[0] > floor and best < tol_ratio:
        return NullityResult(0, np.inf, s, float(floor), True)
    dim_raw = k + 1
    tol_abs = float(np.sqrt(s[k] * s[k + 1]))

    m, n = gridop.node_count, gridop.n
    edge_nodes = max(2, int(np.ceil(_EDGE_FRACTION * m)))
    mask = np.zeros(m, dtype=bool)
    mask[:edge_nodes] = True
    mask[-edge_nodes:] = True
    Q = right_vectors(dim_raw)[np.repeat(mask, n)]
    masses = np.linalg.eigvalsh(Q.conj().T @ Q)
    genuine = int(np.sum(masses <= _EDGE_MASS_LIMIT))
    # a mode near the edge-mass boundary means the window is too short to
    # separate truncation artifacts from genuine kernel functions
    ambiguous = bool(np.any(np.abs(masses - _EDGE_MASS_LIMIT) < 0.15))
    reliable = best >= tol_ratio and not ambiguous
    return NullityResult(genuine, best, s, tol_abs, reliable, dim_raw=dim_raw,
                         edge_masses=tuple(float(em) for em in masses))


def index_estimate(operator, grid, gamma_minus=0.0, gamma_plus=0.0):
    """Numerical Fredholm index: dim ker T minus dim ker T*.

    The operator and its formal adjoint are assembled separately (the
    adjoint with reversed weights) so that each side's decaying defect
    functions are detectable in its own singular spectrum.  Returns
    (index, forward nullity, adjoint nullity).
    """
    fwd = assemble(operator, grid, (gamma_minus, gamma_plus))
    adj = assemble_adjoint(operator, grid, (-gamma_minus, -gamma_plus))
    nf = nullity(fwd)
    na = nullity(adj)
    return nf.dim - na.dim, nf, na


def solve_inhomogeneous(gridop, H):
    """Minimum-norm least-squares solve of T U = H on the grid.

    H is an unweighted grid function with shape (nodes, n) or flat; the
    weight conjugation is applied internally and undone on the result.
    Singular values below the nullity cut are excluded.  Returns
    (U, relative residual of the weighted system).
    """
    M = gridop.matrix
    W = gridop.weight_vector
    Hf = np.asarray(H).reshape(-1)
    if Hf.shape[0] != M.shape[0]:
        raise ConfigurationError("grid function size mismatch")
    rhs = W * Hf
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    nres = _classify_spectrum(gridop, s[::-1], lambda k: Vh[-k:].conj().T)
    # exclude everything below the spectral cut, truncation artifacts
    # included: inverting them is meaningless and numerically explosive
    keep = s > nres.tol_abs if nres.dim_raw else s > 0
    coef = (U.conj().T @ rhs)[keep] / s[keep]
    sol = Vh[keep].conj().T @ coef
    resid = float(np.linalg.norm(M @ sol - rhs) / max(np.linalg.norm(rhs), 1e-300))
    out = (sol / W).reshape(gridop.node_count, gridop.n)
    return out, resid


# -- weighted window and Newton solver of the two applications ---------------

class WeightedWindow:
    """Grid unknowns V = exp(w) W of a correction W that must decay.

    The weight exponent w = weight_exponent(x, -eta, eta) is shifted so
    that Wvec = exp(w) is 1 at the center and grows outwards.  V is
    pinned to zero on an outer pad of width max(0.15 L, 5 h): this
    encodes the decay of W and removes the boundary-layer null
    directions of the truncated operator from the unknown space.  The
    remaining `active` nodes carry the unknowns, node-major.

    The extended grid `x_ext` (window nodes `win`) reaches _FAR_PAD past
    each end and carries a far-field ansatz into a convolution; beyond it
    the far fields enter exactly (`far_tails`).
    """

    def __init__(self, grid, n, eta):
        self.grid = grid
        self.x = grid.nodes
        self.m = len(self.x)
        self.h = grid.h
        self.n = n
        wexp = weight_exponent(self.x, -eta, eta)
        self.Wvec = np.exp(wexp - wexp.min())
        self.dwexp = eta * self.x / np.sqrt(self.x * self.x + 1.0)
        pad = max(0.15 * grid.L, 5 * grid.h)
        self.active = np.abs(self.x) <= grid.L - pad
        self.active_flat = np.repeat(self.active, n)
        self.D4 = fd4_matrix(self.m, self.h)
        ext = int(round(_FAR_PAD / self.h))
        self.win = slice(ext, ext + self.m)
        self.x_ext = -grid.L + self.h * np.arange(-ext, self.m + ext)

    def window_field(self, values):
        """V on all nodes, shape (m, n), from the active unknowns."""
        V = np.zeros(self.m * self.n)
        V[self.active_flat] = values
        return V.reshape(self.m, self.n)

    def unweighted_derivative(self, V):
        """x-derivative of W = V / Wvec."""
        return (self.D4 @ V - self.dwexp[:, None] * V) / self.Wvec[:, None]

    def far_tails(self, kernel, nu_plus, nu_minus):
        """kernel * e^{nu x} from beyond the extended grid, on the window nodes.

        Returns the real parts of (right, left), each (m, n, n):
        right[i] = int_{y > x_R} K(x_i - y) e^{nu_+ y} dy, which is
        e^{nu_+ x_i} times the head transform at x_i - x_R, and left[i]
        the same over y < x_L with nu_-, x_L and x_R the ends of `x_ext`.
        Constant far states are nu = 0.
        """
        right = kernel.head_transform(self.x - self.x_ext[-1], nu_plus)
        left = kernel.tail_transform(self.x - self.x_ext[0], nu_minus)
        return (np.real(right * np.exp(nu_plus * self.x)[:, None, None]),
                np.real(left * np.exp(nu_minus * self.x)[:, None, None]))


def fd_columns(residual, z, base, count):
    """Forward-difference Jacobian columns of the first `count` unknowns.

    `base` is residual(z); each unknown moves by 1e-7 (1 + |z_k|).
    """
    J = np.zeros((len(base), count))
    for k in range(count):
        dz = z.copy()
        step = 1e-7 * (1.0 + abs(z[k]))
        dz[k] += step
        J[:, k] = (residual(dz) - base) / step
    return J


@dataclass
class Annihilated:
    """A Jacobian J held as Q J and an invertible banded Q, both sparse.

    `colnorm` are the column norms of J itself.  `_ls_step` solves with
    Q J and Q Q^T, which are banded when J is banded plus an exponential
    kernel's block Toeplitz part that Q annihilates (`Convolution`).
    """
    QJ: sparse.spmatrix
    Q: sparse.spmatrix
    colnorm: np.ndarray


def _ls_step(J, res):
    """Least-squares solution of J step = -res, by iterated ridge.

    The columns are equilibrated first: the weighted window unknowns
    carry exponentially disparate scales.  With A the scaled matrix and
    N = A^T A + _RIDGE^2 I, _RIDGE_SOLVES refinements
    x <- x + N^{-1} A^T (-res - A x) from x = 0 follow, through one
    factorization: Cholesky of N for a dense J, a sparse LU of N for a
    scipy.sparse J.  For an `Annihilated` J, with B = Q A and G = Q Q^T,
    one sparse LU of [[G, B], [B^T, -_RIDGE^2 I]] gives N^{-1} A^T r from
    the right-hand side (Q r, 0), and N is never formed.  Directions with
    singular value s >> _RIDGE are solved to rounding; null directions
    (s << _RIDGE) stay out of the step, so no rank cut decides what the
    step is.
    """
    if isinstance(J, Annihilated):
        colnorm = J.colnorm.copy()
        colnorm[colnorm == 0] = 1.0
        B = J.QJ @ sparse.diags(1.0 / colnorm)
        k = B.shape[1]
        K = sparse.bmat([[J.Q @ J.Q.T, B], [B.T, -_RIDGE ** 2 * sparse.identity(k)]],
                        format="csc")
        solve = splu(K).solve
        Qres = J.Q @ res

        def correction(x):
            return solve(np.concatenate([-Qres - B @ x, np.zeros(k)]))[-k:]
    else:
        if sparse.issparse(J):
            colnorm = sparse_norm(J, axis=0)
            colnorm[colnorm == 0] = 1.0
            A = sparse.csc_matrix(J) @ sparse.diags(1.0 / colnorm)
            N = A.T @ A + _RIDGE ** 2 * sparse.identity(len(colnorm))
            solve = splu(sparse.csc_matrix(N)).solve
        else:
            colnorm = np.linalg.norm(J, axis=0)
            colnorm[colnorm == 0] = 1.0
            A = J / colnorm
            N = A.T @ A
            N[np.diag_indices_from(N)] += _RIDGE ** 2
            solve = partial(cho_solve, cho_factor(N))

        def correction(x):
            return solve(A.T @ (-res - A @ x))
    x = np.zeros(len(colnorm))
    for _ in range(_RIDGE_SOLVES):
        x = x + correction(x)
    return x / colnorm


def newton_solve(residual, jacobian, z, tol, max_iter, plateau=0.0):
    """Damped Newton iteration with least-squares steps (`_ls_step`).

    `residual(z)` is the residual vector and `jacobian(z, res)` its
    Jacobian at z, given the residual res there, as a dense array or a
    scipy.sparse matrix.  The iteration stops once the max norm of the
    residual is at most `tol`.
    Each step is halved up to 8 times until the norm decreases.  A
    positive `plateau` is an attainable-residual floor: an iteration
    that stalls below it, or gains less than a factor 2 there, counts as
    converged.  Returns (z, residual, iterations); raises NewtonDiverged.
    """
    def norm(r):
        return np.abs(r).max()

    res = residual(z)
    for it in range(max_iter):
        rnorm = norm(res)
        if rnorm <= tol:
            break
        step = _ls_step(jacobian(z, res), res)
        damp = 1.0
        for _ in range(8):
            z_new = z + damp * step
            res_new = residual(z_new)
            if norm(res_new) < rnorm:
                break
            damp *= 0.5
        else:
            if rnorm <= plateau:
                break
            raise NewtonDiverged(
                f"Newton iteration stalled while damping (residual {rnorm:.2e})")
        z, res = z_new, res_new
        if 0.5 * rnorm < norm(res) <= plateau:
            break
    else:
        raise NewtonDiverged(
            f"no convergence after {max_iter} iterations "
            f"(residual {norm(res):.2e})")
    return z, res, it + 1
