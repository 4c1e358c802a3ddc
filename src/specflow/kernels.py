"""Matrix convolution kernels with analytic Fourier transforms on a strip.

A kernel is an n-by-n matrix valued function of the offset zeta.  Its
transform is K_hat(nu) = integral of K(zeta) * exp(-nu*zeta) d zeta,
evaluated for complex nu with |Re nu| below the kernel's strip half-width.
Closed-form families (one-sided exponential-polynomial terms, Gaussians
with polynomial prefactors) evaluate the transform and its first two
nu-derivatives exactly; sampled kernels use corrected trapezoid sums.

The behaviour at zeta = 0 comes from one place, the one-sided limits
`value_one_sided(+-1)`: `jump()` is their difference, the Dirac weight
that `derivative()` (the smooth part only) leaves out, and
`derivative().jump()` is the kink that grid quadrature corrects for.

All evaluation methods broadcast over arrays of nu (or zeta) and return
arrays of shape nu.shape + (n, n).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

from .errors import ConfigurationError, QuadratureTail, StripViolation

__all__ = [
    "KernelSpec", "ExpPolyKernel", "GaussianKernel", "SampledKernel",
    "SumKernel", "exponential_kernel",
    "gaussian_kernel", "one_sided_exponential_kernel", "sample_kernel",
]


def _as_matrix(M, n=None):
    A = np.atleast_2d(np.asarray(M))
    if A.shape[0] != A.shape[1]:
        raise ConfigurationError(f"expected a square matrix, got shape {A.shape}")
    if n is not None and A.shape[0] != n:
        raise ConfigurationError(f"expected dimension {n}, got {A.shape[0]}")
    if not np.all(np.isfinite(A)):
        raise ConfigurationError("matrix entries must be finite")
    return A


def _positive(name, x):
    """x as a float, which must be finite and positive."""
    x = float(x)
    if not (math.isfinite(x) and x > 0):
        raise ConfigurationError(f"{name} must be finite and positive, got {x}")
    return x


def _real(value, name):
    """value as a float array; a nonzero imaginary part is a ConfigurationError."""
    A = np.asarray(value)
    if np.iscomplexobj(A) and np.any(A.imag):
        raise ConfigurationError(f"{name} must be real, got imaginary parts "
                                 f"up to {np.abs(A.imag).max():g}")
    return np.real(A).astype(float, copy=False)


def _check_strip(nu, eta):
    """Raise StripViolation unless every |Re nu| is below eta."""
    re = np.max(np.abs(np.real(np.asarray(nu))))
    if re >= eta:
        raise StripViolation(
            f"|Re nu| = {re:g} outside the strip |Re nu| < {eta:g}")


def trapezoid_weights(m, h):
    """Trapezoid-rule weights on m equispaced nodes of spacing h."""
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _spec_norm(M):
    return float(np.linalg.norm(M, 2))


class KernelSpec:
    """Abstract matrix kernel.  Subclasses implement the evaluation core."""

    n: int

    # -- core evaluations ----------------------------------------------

    def transform(self, nu, order=0):
        """K_hat(nu) and nu-derivatives.

        order 0 returns K_hat(nu); order 1 returns the integral of
        (-zeta) K(zeta) exp(-nu zeta); order 2 the second derivative.
        """
        raise NotImplementedError

    def value(self, zeta):
        """Pointwise kernel values K(zeta)."""
        raise NotImplementedError

    def tail_transform(self, t, nu):
        """integral_{s >= t} K(s) exp(-nu s) ds, vectorized over t."""
        raise NotImplementedError

    # -- structure ------------------------------------------------------

    @property
    def strip(self):
        """Half-width of the strip where the transform is analytic."""
        raise NotImplementedError

    def weight_shift(self, gamma):
        """Kernel multiplied pointwise by exp(gamma * zeta)."""
        raise NotImplementedError

    def adjoint(self):
        """Kernel of the formal adjoint: zeta -> -K(-zeta)^H."""
        raise NotImplementedError

    def derivative(self):
        """Smooth part of the distributional derivative d/dzeta K.

        A discontinuity at 0 adds the Dirac term jump() * delta, which
        is not part of the returned kernel.
        """
        raise NotImplementedError

    def sandwich(self, left, right):
        """Kernel left @ K(zeta) @ right for constant matrices left, right."""
        raise NotImplementedError

    def value_one_sided(self, side):
        """One-sided limit K(0+) (side=+1) or K(0-) (side=-1).

        Kernels continuous at 0 return K(0); sampled kernels too, as a
        jump in user data is not reliably detectable.
        """
        return self.value(np.zeros(1))[0]

    def jump(self):
        """Jump K(0+) - K(0-) at the origin; derivative().jump() is the kink."""
        return self.value_one_sided(+1) - self.value_one_sided(-1)

    # -- bounds used by hyperbolicity certificates -----------------------

    def l1_bound(self):
        """Upper bound for the integral of the spectral norm of K."""
        raise NotImplementedError

    def moment_bound(self):
        """Upper bound for the integral of |zeta| * norm(K(zeta))."""
        raise NotImplementedError

    # -- generic combinators ---------------------------------------------

    def scaled(self, c):
        """Kernel c K(zeta), in the same family."""
        return self.sandwich(c * np.eye(self.n), np.eye(self.n))

    def head_transform(self, t, nu):
        """integral_{s <= t} K(s) exp(-nu s) ds."""
        return self.transform(nu, 0) - self.tail_transform(t, nu)


def _upper_exp_poly(tau, beta, p):
    """integral_{s >= tau} s^p exp(-beta s) ds for tau >= 0, Re beta > 0."""
    tau = np.asarray(tau, dtype=float)
    acc = np.zeros(np.broadcast_shapes(tau.shape, np.shape(beta)), dtype=complex)
    for k in range(p + 1):
        acc = acc + (math.factorial(p) / math.factorial(k)) * tau ** k / beta ** (p + 1 - k)
    return np.exp(-beta * tau) * acc


class ExpPolyKernel(KernelSpec):
    """Sum of one-sided terms C * |zeta|^p * exp(-rate*|zeta|).

    Each term lives on one half-line: side +1 means support on zeta > 0
    with value C zeta^p exp(-rate zeta); side -1 means support on
    zeta < 0 with value C (-zeta)^p exp(rate zeta).  The family is closed
    under exponential weights, adjoints, differentiation and sandwiching
    by constant matrices, so weighted, adjoint and linearized symbols keep
    machine-precision transforms.
    """

    def __init__(self, n, terms):
        self.n = int(n)
        clean = []
        for side, rate, power, C in terms:
            side = int(side)
            if side not in (+1, -1):
                raise ConfigurationError("term side must be +1 or -1")
            rate = _positive("term rate", rate)
            power = int(power)
            if power < 0:
                raise ConfigurationError("term power must be >= 0")
            clean.append((side, rate, power, _as_matrix(C, self.n).astype(complex)))
        self.terms = tuple(clean)
        self._norms = tuple(_spec_norm(C) for _, _, _, C in self.terms)

    @property
    def strip(self):
        return min((rate for _, rate, _, _ in self.terms), default=np.inf)

    def transform(self, nu, order=0):
        nu = np.asarray(nu, dtype=complex)
        out = np.zeros(nu.shape + (self.n, self.n), dtype=complex)
        for side, b, p, C in self.terms:
            q = p + order
            coef = math.factorial(q)
            if side > 0:
                base = coef / (b + nu) ** (q + 1) * (-1) ** order
            else:
                base = coef / (b - nu) ** (q + 1)
            out += base[..., None, None] * C
        return out

    def value(self, zeta):
        zeta = np.asarray(zeta, dtype=float)
        out = np.zeros(zeta.shape + (self.n, self.n), dtype=complex)
        # tolerance absorbs rounding in grid differences; at the kink the
        # two one-sided limits are averaged
        tol = 1e-9
        zero = np.abs(zeta) <= tol
        for side, b, p, C in self.terms:
            inside = side * zeta > tol
            az = np.where(inside, side * zeta, 0.0)     # |zeta| on the term's side
            w = np.where(inside, az ** p * np.exp(-b * az), 0.0)
            if p == 0:
                # split the zeta = 0 point evenly between the two sides
                w = np.where(zero, 0.5, w)
            out += w[..., None, None] * C
        return out

    def tail_transform(self, t, nu):
        t = np.asarray(t, dtype=float)
        nu = complex(nu)
        out = np.zeros(t.shape + (self.n, self.n), dtype=complex)
        for side, b, p, C in self.terms:
            if side > 0:
                tau = np.maximum(t, 0.0)
                part = _upper_exp_poly(tau, b + nu, p)
            else:
                # integral over [t, 0) of C (-zeta)^p e^{b zeta} e^{-nu zeta}
                tau = np.maximum(-t, 0.0)
                full = math.factorial(p) / (b - nu) ** (p + 1)
                part = full - _upper_exp_poly(tau, b - nu, p)
            out += part[..., None, None] * C
        return out

    def weight_shift(self, gamma):
        if abs(gamma) >= self.strip:
            raise StripViolation(
                f"|gamma| = {abs(gamma):g} >= kernel strip {self.strip:g}")
        terms = []
        for side, b, p, C in self.terms:
            terms.append((side, b - side * gamma, p, C))
        return ExpPolyKernel(self.n, terms)

    def adjoint(self):
        terms = [(-side, b, p, -C.conj().T) for side, b, p, C in self.terms]
        return ExpPolyKernel(self.n, terms)

    def derivative(self):
        terms = []
        for side, b, p, C in self.terms:
            if p > 0:
                terms.append((side, b, p - 1, side * p * C))
            terms.append((side, b, p, -side * b * C))
        return ExpPolyKernel(self.n, terms)

    def sandwich(self, left, right):
        L, R = _as_matrix(left, self.n), _as_matrix(right, self.n)
        return ExpPolyKernel(self.n, [(side, b, p, L @ C @ R)
                                      for side, b, p, C in self.terms])

    def value_one_sided(self, side):
        out = np.zeros((self.n, self.n), dtype=complex)
        for s, b, p, C in self.terms:
            if s == side and p == 0:
                out += C
        return out

    def l1_bound(self):
        return sum(nC * math.factorial(p) / b ** (p + 1)
                   for (_, b, p, _), nC in zip(self.terms, self._norms))

    def moment_bound(self):
        return sum(nC * math.factorial(p + 1) / b ** (p + 2)
                   for (_, b, p, _), nC in zip(self.terms, self._norms))


def _poly_val(coeffs, x):
    out = np.zeros_like(x, dtype=complex)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _poly_deriv(coeffs):
    return tuple(k * coeffs[k] for k in range(1, len(coeffs))) or (0.0,)


class GaussianKernel(KernelSpec):
    """Gaussian kernel with polynomial prefactor, entire transform.

    value(zeta) = poly(zeta - mu) * exp(-(zeta - mu)^2 / (2 sigma^2)) * M.
    The transform is poly-in-nu times exp(-nu mu + sigma^2 nu^2 / 2),
    with the polynomial generated by the moment recurrence, so all three
    orders are exact.  That polynomial, its first two derivatives and
    both bounds are computed once, at construction.
    """

    def __init__(self, n, sigma, M, mu=0.0, poly=(1.0,)):
        self.n = int(n)
        self.sigma = _positive("sigma", sigma)
        self.mu = float(mu)
        self.poly = tuple(complex(c) for c in poly)
        self.M = _as_matrix(M, self.n).astype(complex)
        R = self._transform_poly()
        R1 = _poly_deriv(R)
        self._tpoly = (R, R1, _poly_deriv(R1))
        self._l1 = 1.0001 * self._abs_moment(0)
        self._moment = 1.0001 * self._abs_moment(1)

    @property
    def strip(self):
        return np.inf

    def _transform_poly(self):
        # H_k(nu) := integral t^k e^{-t^2/2s^2 - nu t} dt = Q_k(nu) H_0(nu)
        # with H_0 = sqrt(2 pi s^2) e^{s^2 nu^2/2} and
        # Q_k = -(Q_{k-1}' + s^2 nu Q_{k-1}).
        s2 = self.sigma ** 2
        Q = [(1.0,)]
        for _ in range(1, len(self.poly)):
            prev = Q[-1]
            dprev = _poly_deriv(prev)
            nxt = [0.0] * (len(prev) + 1)
            for k, c in enumerate(dprev):
                nxt[k] -= c
            for k, c in enumerate(prev):
                nxt[k + 1] -= s2 * c
            Q.append(tuple(nxt))
        R = [0.0] * max(len(q) for q in Q)
        for c, q in zip(self.poly, Q):
            for k, qc in enumerate(q):
                R[k] += c * qc
        return tuple(R)

    def transform(self, nu, order=0):
        nu = np.asarray(nu, dtype=complex)
        s2 = self.sigma ** 2
        R, R1, R2 = self._tpoly
        core = math.sqrt(2 * math.pi) * self.sigma * np.exp(-nu * self.mu + 0.5 * s2 * nu * nu)
        a = s2 * nu - self.mu  # log-derivative of the core
        Rv = _poly_val(R, nu)
        if order == 0:
            amp = Rv
        elif order == 1:
            amp = _poly_val(R1, nu) + a * Rv
        elif order == 2:
            amp = (_poly_val(R2, nu) + 2 * a * _poly_val(R1, nu)
                   + (a * a + s2) * Rv)
        else:
            raise ConfigurationError("order must be 0, 1 or 2")
        return (amp * core)[..., None, None] * self.M

    def value(self, zeta):
        t = np.asarray(zeta, dtype=float) - self.mu
        w = _poly_val(self.poly, t.astype(complex)) * np.exp(-t * t / (2 * self.sigma ** 2))
        return w[..., None, None] * self.M

    def tail_transform(self, t, nu):
        # J_k(tau) = integral_{s>=tau} s^k e^{-s^2/2sig^2 - nu s} ds via the
        # two-term recurrence seeded by the erfc closed form.
        t = np.asarray(t, dtype=float)
        nu = complex(nu)
        s = self.sigma
        tau = t - self.mu
        z = (tau / s + s * nu) / math.sqrt(2.0)
        J = [s * math.sqrt(math.pi / 2.0) * np.exp(0.5 * (s * nu) ** 2) * erfc(z)]
        if len(self.poly) > 1:
            bdry = np.exp(-tau * tau / (2 * s * s) - nu * tau)
            for k in range(1, len(self.poly)):
                prev2 = J[k - 2] if k >= 2 else np.ones_like(J[0])
                if k == 1:
                    term = s * s * bdry - s * s * nu * J[0]
                else:
                    term = (s * s * tau ** (k - 1) * bdry
                            + s * s * (k - 1) * prev2 - s * s * nu * J[k - 1])
                J.append(term)
        acc = np.zeros(t.shape, dtype=complex)
        for c, Jk in zip(self.poly, J):
            acc = acc + c * Jk
        return (np.exp(-nu * self.mu) * acc)[..., None, None] * self.M

    def weight_shift(self, gamma):
        s2 = self.sigma ** 2
        mu2 = self.mu + gamma * s2
        scale = math.exp(gamma * self.mu + 0.5 * gamma * gamma * s2)
        # re-expand poly(t) around t' = t - gamma s^2
        shift = gamma * s2
        old = self.poly
        new = [0.0] * len(old)
        for k, c in enumerate(old):
            for j in range(k + 1):
                new[j] += c * math.comb(k, j) * shift ** (k - j)
        new = tuple(scale * c for c in new)
        return GaussianKernel(self.n, self.sigma, self.M, mu=mu2, poly=new)

    def adjoint(self):
        poly = tuple(((-1) ** k) * c for k, c in enumerate(self.poly))
        return GaussianKernel(self.n, self.sigma, -self.M.conj().T,
                              mu=-self.mu, poly=poly)

    def derivative(self):
        # d/dzeta [poly(t) g(t)] = (poly' - t poly / s^2) g,  t = zeta - mu
        s2 = self.sigma ** 2
        p = self.poly
        dp = _poly_deriv(p)
        new = [0.0] * (len(p) + 1)
        for k, c in enumerate(dp):
            new[k] += c
        for k, c in enumerate(p):
            new[k + 1] -= c / s2
        return GaussianKernel(self.n, self.sigma, self.M, mu=self.mu,
                              poly=tuple(new))

    def sandwich(self, left, right):
        L, R = _as_matrix(left, self.n), _as_matrix(right, self.n)
        return GaussianKernel(self.n, self.sigma, L @ self.M @ R,
                              mu=self.mu, poly=self.poly)

    def _abs_moment(self, extra_power):
        s = self.sigma
        grid = np.linspace(self.mu - 12 * s, self.mu + 12 * s, 4001)
        vals = np.abs(_poly_val(self.poly, grid.astype(complex)))
        vals = vals * np.exp(-(grid - self.mu) ** 2 / (2 * s * s))
        vals = vals * np.abs(grid) ** extra_power
        return float(np.trapezoid(vals, grid)) * _spec_norm(self.M)

    def l1_bound(self):
        return self._l1

    def moment_bound(self):
        return self._moment


class SampledKernel(KernelSpec):
    """Kernel given by samples on a uniform grid over [-R, R].

    Full and partial transforms use one corrected trapezoid rule: the
    trapezoid sum plus, when 0 is a node with three more on each side,
    the Euler-Maclaurin kink term at 0, which restores fourth-order
    accuracy for kernels that are smooth away from a kink at 0.  The decay
    rate eta0 is declared by the caller; the tail bound
    ||K(+-R)|| <= tol_tail * max ||K|| is verified before any transform
    is evaluated.
    """

    def __init__(self, h, samples, eta0, tol_tail=1e-6):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim == 1:
            samples = samples[:, None, None]
        if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
            raise ConfigurationError("samples must have shape (m, n, n)")
        if not np.all(np.isfinite(samples)):
            raise ConfigurationError("samples must be finite")
        self.h = _positive("h", h)
        self.samples = samples
        self.n = samples.shape[1]
        m = samples.shape[0]
        self.R = 0.5 * (m - 1) * self.h
        self.grid = -self.R + self.h * np.arange(m)
        self.eta0 = _positive("eta0", eta0)
        self.tol_tail = _positive("tol_tail", tol_tail)
        self._norms = norms = np.linalg.norm(samples, axis=(1, 2))
        self._max_norm = float(norms.max()) if m else 0.0
        self._tail_ok = (norms[0] <= self.tol_tail * self._max_norm
                         and norms[-1] <= self.tol_tail * self._max_norm)
        self._weights = trapezoid_weights(m, self.h)
        i0 = int(round(self.R / self.h))
        self._i0 = (i0 if 3 <= i0 < m - 3
                    and abs(self.grid[i0]) < 1e-12 * max(1.0, self.R) else None)

    @property
    def strip(self):
        return self.eta0

    def _require_tail(self):
        if not self._tail_ok:
            raise QuadratureTail(
                "sampled kernel does not reach its declared decay at +-R")

    def _integrand(self, nu, order):
        nu = np.asarray(nu, dtype=complex)
        z = self.grid
        phase = np.exp(-nu[..., None] * z) * (-z) ** order
        return phase[..., :, None, None] * self.samples

    def _kink(self, g):
        """(h^2/12) (g'(0+) - g'(0-)) by 4-point one-sided differences at node 0, else 0."""
        i, h = self._i0, self.h
        if i is None:
            return 0.0
        gm = (11 * g[..., i, :, :] - 18 * g[..., i - 1, :, :]
              + 9 * g[..., i - 2, :, :] - 2 * g[..., i - 3, :, :]) / (6 * h)
        gp = (-11 * g[..., i, :, :] + 18 * g[..., i + 1, :, :]
              - 9 * g[..., i + 2, :, :] + 2 * g[..., i + 3, :, :]) / (6 * h)
        return (h * h / 12.0) * (gp - gm)

    def _rule(self, g):
        """The corrected trapezoid rule over [-R, R] of integrand samples g."""
        return np.einsum("m,...mij->...ij", self._weights, g) + self._kink(g)

    def transform(self, nu, order=0):
        self._require_tail()
        _check_strip(nu, self.strip)
        return self._rule(self._integrand(nu, order))

    def value(self, zeta):
        zeta = np.asarray(zeta, dtype=float)
        t = (zeta + self.R) / self.h
        k = np.clip(np.floor(t).astype(int), 0, len(self.grid) - 2)
        frac = t - k
        inside = (zeta >= -self.R) & (zeta <= self.R)
        vals = ((1 - frac)[..., None, None] * self.samples[k]
                + frac[..., None, None] * self.samples[k + 1])
        return np.where(inside[..., None, None], vals, 0.0)

    def tail_transform(self, t, nu):
        """`transform`'s rule on [lo, R], lo = max(t, -R), vectorized over t.

        The rule's part over [-R, lo] (nodes up to z_k <= lo, the cell
        [z_k, lo] linearly interpolated, the kink term if 0 < lo) is taken
        off the full rule, so t <= -R gives `transform` bit for bit.
        """
        self._require_tail()
        nu = complex(nu)
        t = np.asarray(t, dtype=float)
        g = self._integrand(nu, 0)
        lo = np.clip(t, -self.R, self.R)
        k = np.clip(np.floor((lo + self.R) / self.h).astype(int), 0, len(self.grid) - 2)
        below = self.h * (np.cumsum(g, axis=0) - 0.5 * g[0] - 0.5 * g)[k]
        g_lo = self.value(lo) * np.exp(-nu * lo)[..., None, None]
        below += 0.5 * (lo - self.grid[k])[..., None, None] * (g[k] + g_lo)
        below += np.where((lo > 0)[..., None, None], self._kink(g), 0.0)
        return np.where((t < self.R)[..., None, None], self._rule(g) - below, 0.0)

    def weight_shift(self, gamma):
        if abs(gamma) >= self.eta0:
            raise StripViolation(
                f"|gamma| = {abs(gamma):g} >= declared decay {self.eta0:g}")
        shifted = self.samples * np.exp(gamma * self.grid)[:, None, None]
        return SampledKernel(self.h, shifted, self.eta0 - abs(gamma),
                             tol_tail=max(self.tol_tail * math.exp(abs(gamma) * self.R), 1e-6))

    def adjoint(self):
        flipped = -np.conj(np.swapaxes(self.samples[::-1], 1, 2))
        return SampledKernel(self.h, flipped, self.eta0, tol_tail=self.tol_tail)

    def derivative(self):
        d = np.gradient(self.samples, self.h, axis=0)
        return SampledKernel(self.h, d, self.eta0, tol_tail=1.0)

    def sandwich(self, left, right):
        L, R = _as_matrix(left, self.n), _as_matrix(right, self.n)
        return SampledKernel(self.h, L @ self.samples @ R, self.eta0,
                             tol_tail=self.tol_tail)

    def l1_bound(self):
        return float(self._weights @ self._norms) + 2 * self._max_norm * self.tol_tail / self.eta0

    def moment_bound(self):
        return float(self._weights @ (self._norms * np.abs(self.grid))) + (
            2 * self._max_norm * self.tol_tail * (self.R + 1 / self.eta0) / self.eta0)


class SumKernel(KernelSpec):
    """Weighted linear combination sum_k w_k K_k of kernels.

    Built from (weight, kernel) terms; None kernels are dropped and
    nested sums flatten by multiplying weights.
    """

    def __init__(self, terms):
        flat = []
        for w, p in terms:
            if isinstance(p, SumKernel):
                flat.extend((w * v, q) for v, q in p.terms)
            elif p is not None:
                flat.append((w, p))
        if not flat:
            raise ConfigurationError("SumKernel needs at least one part")
        self.terms = tuple(flat)
        self.n = self.terms[0][1].n
        if any(p.n != self.n for _, p in self.terms):
            raise ConfigurationError("kernel dimensions differ")

    @property
    def strip(self):
        return min(p.strip for _, p in self.terms)

    def transform(self, nu, order=0):
        return sum(w * p.transform(nu, order) for w, p in self.terms)

    def value(self, zeta):
        return sum(w * p.value(zeta) for w, p in self.terms)

    def tail_transform(self, t, nu):
        return sum(w * p.tail_transform(t, nu) for w, p in self.terms)

    def weight_shift(self, gamma):
        return SumKernel([(w, p.weight_shift(gamma)) for w, p in self.terms])

    def adjoint(self):
        return SumKernel([(np.conj(w), p.adjoint()) for w, p in self.terms])

    def derivative(self):
        return SumKernel([(w, p.derivative()) for w, p in self.terms])

    def sandwich(self, left, right):
        return SumKernel([(w, p.sandwich(left, right)) for w, p in self.terms])

    def value_one_sided(self, side):
        return sum(w * p.value_one_sided(side) for w, p in self.terms)

    def l1_bound(self):
        return sum(abs(w) * p.l1_bound() for w, p in self.terms)

    def moment_bound(self):
        return sum(abs(w) * p.moment_bound() for w, p in self.terms)


# -- factory helpers ---------------------------------------------------------

def exponential_kernel(a, M):
    """Two-sided exponential (a/2) exp(-a|zeta|) M with unit mass."""
    M = _as_matrix(M)
    n = M.shape[0]
    return ExpPolyKernel(n, [(+1, a, 0, 0.5 * a * M), (-1, a, 0, 0.5 * a * M)])


def one_sided_exponential_kernel(a, M, side=+1):
    """One-sided a*exp(-a|zeta|) M on the chosen half-line (unit mass)."""
    M = _as_matrix(M)
    return ExpPolyKernel(M.shape[0], [(side, a, 0, a * M)])


def gaussian_kernel(sigma, M):
    """Normalized Gaussian (2 pi sigma^2)^(-1/2) exp(-zeta^2/2sigma^2) M."""
    M = _as_matrix(M)
    sigma = _positive("sigma", sigma)
    return GaussianKernel(M.shape[0], sigma, M,
                          poly=(1.0 / math.sqrt(2 * math.pi * sigma * sigma),))


def sample_kernel(kernel, h, R, eta0=None):
    """Sample any closed-form kernel onto a uniform grid."""
    m = int(round(2 * R / h)) + 1
    grid = -R + h * np.arange(m)
    vals = kernel.value(grid)
    return SampledKernel(h, vals, eta0 if eta0 is not None else min(kernel.strip, 50.0))
