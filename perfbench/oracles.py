"""Independent reference answers for the benchmark's checks.

Nothing here calls into specflow.  Every reference is computed from the
parameters the workload generator wrote into a config:

* the axis winding W of det Delta(i ell) / (i ell + 1)^n, so that a
  Fredholm index can be checked as W(s_plus) - W(s_minus);
* the leading-order shock jump -(dG + K_hat(0) dF)^{-1} * integral(H);
* the shallow-well bound state of u'' = (lambda - eps V(x)) u by shooting.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


class OracleError(RuntimeError):
    """The reference itself could not be computed to the needed accuracy."""


def _exp_kernel_hat_axis(ells, a, M):
    """K_hat(i ell) of the unit-mass kernel (a/2) exp(-a|zeta|) M."""
    return (a * a / (a * a + ells ** 2))[:, None, None] * M


def delta_axis(ells, limit):
    """Delta(i ell) = i ell I - K_hat(i ell) - A for shifts at xi = 0.

    `limit` holds ``n``, ``A`` (complex matrix) and optionally ``a`` and
    ``M`` of a two-sided exponential kernel.
    """
    n = limit["n"]
    ells = np.asarray(ells, dtype=float)
    D = (1j * ells)[:, None, None] * np.eye(n) - limit["A"][None, :, :]
    if limit.get("M") is not None:
        D = D - _exp_kernel_hat_axis(ells, limit["a"], limit["M"])
    return D


def _det(D):
    if D.shape[-1] == 1:
        return D[:, 0, 0]
    if D.shape[-1] == 2:
        return D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 1, 0]
    return np.linalg.det(D)


def _axis_ratio(theta, limit):
    ells = np.tan(theta)
    return _det(delta_axis(ells, limit)) / (1j * ells + 1.0) ** limit["n"]


def axis_winding(limit, base=4001, max_step=0.25, max_rounds=60):
    """Winding number of det Delta(i ell) / (i ell + 1)^n over the real line.

    The line is mapped to theta in (-pi/2, pi/2) by ell = tan(theta); the
    ratio tends to 1 at both ends.  Intervals whose phase step exceeds
    `max_step` are bisected until none does.
    """
    theta = np.linspace(-0.5 * np.pi, 0.5 * np.pi, base)[1:-1]
    for _ in range(max_rounds):
        f = _axis_ratio(theta, limit)
        if np.min(np.abs(f)) < 1e-12:
            raise OracleError("det Delta vanishes on the imaginary axis")
        step = np.angle(f[1:] / f[:-1])
        coarse = np.abs(step) > max_step
        if not coarse.any():
            break
        mids = 0.5 * (theta[:-1] + theta[1:])[coarse]
        theta = np.sort(np.concatenate([theta, mids]))
    else:
        raise OracleError("axis phase did not resolve")
    total = np.angle(f[0]) + step.sum() - np.angle(f[-1])
    w = total / (2.0 * np.pi)
    if abs(w - round(w)) > 1e-3:
        raise OracleError(f"winding {w:.6f} is not near an integer")
    return int(round(w))


def winding_index(minus, plus):
    """Fredholm index W(s_plus) - W(s_minus) for hyperbolic limits."""
    return axis_winding(plus) - axis_winding(minus)


def limit_from_config(spec, lam=0.0):
    """Limit parameters of a symbol config with an exponential kernel.

    Only the shapes the workloads generate are accepted: shifts at
    xi = 0, an optional two-sided exponential kernel, and for spectral
    maps a ``lambda_matrix`` added to the shift at zero times `lam`.
    """
    n = int(spec["n"])
    A = np.zeros((n, n), dtype=complex)
    for sh in spec.get("shifts", []):
        if float(sh["xi"]) != 0.0:
            raise OracleError("only shifts at xi = 0 are supported")
        A += np.array(sh["A"], dtype=float)
    if "lambda_matrix" in spec:
        A += lam * np.array(spec["lambda_matrix"], dtype=float)
    limit = {"n": n, "A": A}
    kernel = spec.get("kernel")
    if kernel is not None:
        if kernel.get("family") != "exponential":
            raise OracleError("only exponential kernels are supported")
        limit["a"] = float(kernel["a"])
        limit["M"] = np.array(kernel["M"], dtype=float)
    return limit


def delta_at_zero(spec):
    """Delta(0) of a symbol config at lambda = 0: -K_hat(0) - A."""
    limit = limit_from_config(spec)
    return delta_axis(np.zeros(1), limit)[0]


def shock_jump_leading_order(cfg):
    """-(dG + K_hat(0) dF)^{-1} times the integral of a Gaussian source."""
    kernel = cfg["kernel"]
    if kernel.get("family") != "exponential" or cfg["source"]["type"] != "gaussian":
        raise OracleError("leading-order jump needs an exponential kernel "
                          "and a Gaussian source")
    flux = cfg["flux"]
    M0 = np.array(flux["dG"], float) + \
        np.array(kernel["M"], float) @ np.array(flux["dF"], float)
    src = cfg["source"]
    mass = np.array(src["vector"], float) * float(src.get("width", 1.0)) * np.sqrt(np.pi)
    return -np.linalg.solve(M0, mass)


def shallow_well_lambda(eps, amplitude=1.0, width=1.0, X=40.0):
    """Ground state lambda = kappa^2 of u'' = (lambda - eps V(x)) u.

    V = amplitude * exp(-(x/width)^2) is even, so the ground state is even:
    shoot from x = X with exact exponential data exp(-kappa x) (V is zero
    there to machine precision) and find the kappa with u'(0) = 0.
    """
    def rhs(x, y, kappa):
        v = amplitude * np.exp(-(x / width) ** 2)
        return [y[1], (kappa * kappa - eps * v) * y[0]]

    def slope_at_zero(kappa):
        sol = solve_ivp(rhs, [X, 0.0], [1.0, -kappa], args=(kappa,),
                        rtol=1e-11, atol=1e-14)
        u, up = sol.y[:, -1]
        return up / abs(u)

    lo, hi = 1e-7, 1.0
    flo = slope_at_zero(lo)
    while slope_at_zero(hi) * flo > 0:
        hi *= 0.5
        if hi < 1e-6:
            raise OracleError("no bound state bracketed")
    kappa = brentq(slope_at_zero, lo, hi, xtol=1e-14)
    return kappa * kappa
