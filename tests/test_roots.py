import numpy as np
import pytest

from specflow.charmatrix import det_values
from specflow.kernels import (ExpPolyKernel, GaussianKernel,
                              exponential_kernel)
from specflow import roots
from specflow.roots import (Rectangle, count_roots, locate_roots, newton_root,
                            track_root)
from specflow.symbols import (OperatorFamily, ShiftTerm, Symbol,
                              weight_shift)

from oracles import exp_kernel_char_poly, strip_roots_of_poly


def scalar_affine(a):
    return Symbol(1, None, (ShiftTerm(0.0, [[a]]),), 3.0)


def cubic_symbol(mass=1.0, shift=-2.0, a=2.0, eta=1.95):
    return Symbol(1, exponential_kernel(a, [[mass]]),
                  (ShiftTerm(0.0, [[shift]]),), eta)


def test_count_single_affine_root():
    sym = scalar_affine(0.3)
    assert count_roots(sym, Rectangle(0, 1, -1, 1)) == 1
    assert count_roots(sym, Rectangle(-1, -0.1, -1, 1)) == 0


def test_count_matches_polynomial_oracle():
    sym = cubic_symbol()
    box = Rectangle(-1.9, 1.9, -6, 6)
    expected = strip_roots_of_poly(exp_kernel_char_poly(2.0, 1.0, -2.0), 1.9)
    assert count_roots(sym, box) == sum(m for _, m in expected)


def test_locate_matches_polynomial_oracle():
    sym = cubic_symbol()
    rs = locate_roots(sym, Rectangle(-1.9, 1.9, -6, 6))
    expected = strip_roots_of_poly(exp_kernel_char_poly(2.0, 1.0, -2.0), 1.9)
    assert rs.multiplicity_sum() == rs.total_count
    assert len(rs.roots) == len(expected)
    for (nu, m), (q, mq) in zip(rs.roots, expected):
        assert m == mq
        assert abs(nu - q) < 1e-9


def test_locate_double_root_multiplicity():
    sym = Symbol(2, None, (ShiftTerm(0.0, [[0, 1], [0, 0]]),), 2.0)
    rs = locate_roots(sym, Rectangle(-0.5, 0.5, -0.5, 0.5))
    assert rs.roots[0][1] == 2
    assert abs(rs.roots[0][0]) < 1e-6


def test_locate_constructed_tangency():
    # mass and shift tuned so the cleared cubic has a double root at 1
    sym = cubic_symbol(mass=9.0 / 8.0, shift=-0.5)
    rs = locate_roots(sym, Rectangle(-1.9, 1.9, -3, 3))
    assert rs.total_count == 2
    assert rs.roots[0][1] == 2
    assert abs(rs.roots[0][0] - 1.0) < 1e-6


def test_gaussian_roots_self_consistent():
    G = GaussianKernel(1, 1.0, [[1.0]], poly=(1 / np.sqrt(2 * np.pi),))
    sym = Symbol(1, G, (ShiftTerm(0.0, [[-2.0]]),), 5.0)
    rs = locate_roots(sym, Rectangle(-1, 1, -8, 8))
    assert rs.multiplicity_sum() == rs.total_count
    for nu, _ in rs.roots:
        assert abs(det_values(sym, np.array(nu))) < 1e-10


def test_count_additivity_under_partition(rng):
    sym = cubic_symbol()
    box = Rectangle(-1.9, 1.9, -6, 6)
    total = count_roots(sym, box)
    for _ in range(5):
        fx, fy = rng.uniform(0.25, 0.75, 2)
        children, _, _ = box.split(fx, fy)
        assert sum(count_roots(sym, c) for c in children) == total


def test_newton_returns_after_perturbation():
    sym = cubic_symbol()
    rs = locate_roots(sym, Rectangle(-1.9, 1.9, -6, 6))
    for nu, m in rs.roots:
        if m > 1:
            continue
        box = Rectangle(nu.real - 0.1, nu.real + 0.1, nu.imag - 0.1, nu.imag + 0.1)
        again = newton_root(sym, nu + 1e-3, box)
        assert abs(again - nu) < 1e-9


def diagonal_roots(a, b, eta):
    """d(nu) = (nu - a)(nu - b) from a diagonal shift matrix."""
    return Symbol(2, None, (ShiftTerm(0.0, np.diag([a, b])),), eta)


@pytest.mark.parametrize("a, b, nu0, expected", [
    # d' is small at the start: the full step lands at 4.5, past the strip
    (0.3, -0.3, 0.01, 0.3),
    # near the edge the step heads for the root at 1.2 outside the strip
    (0.3, 1.2, 0.8, None),
], ids=["overshoot", "root_outside"])
def test_newton_steps_stay_in_region(monkeypatch, a, b, nu0, expected):
    sym = diagonal_roots(a, b, 0.9)
    region = Rectangle(-0.85, 0.85, -0.5, 0.5)
    seen = []
    original = roots.char_eval

    def recording(symbol, nu, orders=(0,)):
        seen.append(complex(nu))
        return original(symbol, nu, orders)

    monkeypatch.setattr(roots, "char_eval", recording)
    nu = newton_root(sym, nu0, region)
    assert len(seen) > 1 and all(region.contains(z) for z in seen)
    if expected is None:
        assert nu is None
    else:
        assert abs(nu - expected) < 1e-12


def test_newton_none_where_derivative_vanishes():
    # d'(0) = 0 exactly for (nu - 0.3)(nu + 0.3)
    sym = diagonal_roots(0.3, -0.3, 0.9)
    assert newton_root(sym, 0.0, Rectangle(-0.5, 0.5, -0.5, 0.5)) is None


def test_conjugate_symmetry_real_symbol(rng):
    sym = cubic_symbol(mass=0.8, shift=1.1)
    rs = locate_roots(sym, Rectangle(-1.7, 1.7, -7, 7))
    points = sorted((nu for nu, m in rs.roots for _ in range(m)),
                    key=lambda z: (z.real, z.imag))
    mirrored = sorted((np.conj(z) for z in points),
                      key=lambda z: (z.real, z.imag))
    for p, q in zip(points, mirrored):
        assert abs(p - q) < 1e-9


def test_weight_shift_translates_roots():
    sym = cubic_symbol()
    gamma = 0.1
    box = Rectangle(-1.2, 1.2, -6, 6)
    base = locate_roots(sym, box)
    shifted = locate_roots(weight_shift(sym, gamma), box.shifted(gamma + 0j))
    assert len(base.roots) == len(shifted.roots)
    for (nu, m), (nug, mg) in zip(base.roots, shifted.roots):
        assert m == mg
        assert abs(nug - (nu + gamma)) < 1e-9


def test_track_explicit_tanh_root():
    def rule(rho):
        return Symbol(1, None, (ShiftTerm(0.0, [[np.tanh(rho)]]),), 3.0)
    fam = OperatorFamily.from_rule(rule, -3.0, 3.0)
    traj = track_root(fam, -3.0, complex(np.tanh(-3.0)), 3.0)
    assert traj.status == "reached end"
    rhos = np.array(traj.rhos)
    nus = np.array(traj.nus)
    assert np.abs(nus - np.tanh(rhos)).max() < 1e-9
    k = int(np.argmin(np.abs(rhos)))
    assert traj.nu_dots[k].real == pytest.approx(1.0, abs=1e-4)
    re = nus.real
    signs = np.sign(re[np.abs(re) > 1e-10])
    assert int(np.sum(np.abs(np.diff(signs)) > 0)) == 1


def test_track_rotation_block_family():
    # block-diagonal pair conjugated by a rotating frame: the determinant
    # (hence every root) is independent of the rotation angle
    k1 = cubic_symbol(mass=1.0, shift=-2.0)
    k2 = cubic_symbol(mass=0.6, shift=1.4)

    def embed(sym1, sym2, sigma):
        c, s = np.cos(np.pi * sigma / 2), np.sin(np.pi * sigma / 2)
        R = np.array([[c, -s], [s, c]])
        terms = []
        for side, b, p, C in sym1.kernel.terms:
            terms.append((side, b, p, np.array([[C[0, 0], 0], [0, 0]])))
        for side, b, p, C in sym2.kernel.terms:
            terms.append((side, b, p, np.array([[0, 0], [0, C[0, 0]]])))
        kernel = ExpPolyKernel(2, terms).sandwich(R, R.T)
        A = R @ np.diag([sym1.shifts[0].A[0, 0].real,
                         sym2.shifts[0].A[0, 0].real]) @ R.T
        return Symbol(2, kernel, (ShiftTerm(0.0, A),), 1.9)

    fam = OperatorFamily.from_rule(lambda s: embed(k1, k2, s), 0.0, 1.0)
    seed = locate_roots(fam.at(0.0), Rectangle(-1.8, 1.8, -6, 6))
    simple = [nu for nu, m in seed.roots if m == 1]
    traj = track_root(fam, 0.0, simple[0], 1.0)
    assert traj.status == "reached end"
    for rho, nu in zip(traj.rhos, traj.nus):
        assert abs(det_values(fam.at(rho), np.array(nu))) < 1e-10
    assert abs(traj.nus[-1] - simple[0]) < 1e-8


def test_track_left_strip_status():
    def rule(rho):
        return Symbol(1, None, (ShiftTerm(0.0, [[rho]]),), 0.5)
    fam = OperatorFamily.from_rule(rule, 0.0, 1.0)
    traj = track_root(fam, 0.0, 0.0 + 0.0j, 1.0)
    assert traj.status == "left strip"
    assert traj.rhos[-1] < 1.0


def test_track_merged_status():
    # two real roots collide at the origin as rho -> 1
    def rule(rho):
        c = 1.0 - rho
        return Symbol(2, None,
                      (ShiftTerm(0.0, np.diag([c, -c])),), 3.0)
    fam = OperatorFamily.from_rule(rule, 0.0, 1.0)
    traj = track_root(fam, 0.0, 1.0 + 0.0j, 1.0)
    assert traj.status in ("merged", "reached end")
    if traj.status == "merged":
        assert abs(traj.nus[-1]) < 0.2
