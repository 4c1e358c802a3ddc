"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines
as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import time

import numpy as np
import pytest

from specflow.charmatrix import adjoint_symbol, delta_eval, det_values
from specflow.conslaw import (ShockModel, jump_leading_order,
                              linearization_index, shock_profile,
                              zero_speed_selection)
from specflow.edgebif import EdgeModel, edge_constant, edge_scaling
from specflow.flow import cocycle_check, crossing_number, weighted_index
from specflow.griddisc import Grid, index_estimate
from specflow.kernels import (exponential_kernel,
                              one_sided_exponential_kernel)
from specflow.roots import Rectangle, locate_roots, track_root
from specflow.symbols import (OperatorFamily, ShiftTerm, Symbol,
                              weight_shift)

from conftest import random_2x2_symbol, random_scalar_symbol
from oracles import (exp_kernel_char_poly, shallow_well_eigenvalue,
                     strip_roots_of_poly)


def report(number, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:02d}] {status} ({time.time() - t0:.1f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"


def simple_axis_root_symbol():
    """Scalar with exactly one simple imaginary-axis root (at 0)."""
    return Symbol(1, exponential_kernel(2.0, [[1.0]]),
                  (ShiftTerm(0.0, [[-1.0]]),), 1.9)


def nilpotent_symbol():
    """2x2 with a single axis root of multiplicity two."""
    return Symbol(2, None, (ShiftTerm(0.0, [[0.0, 1.0], [0.0, 0.0]]),), 2.0)


def test_criterion_01_weight_shift_index():
    t0 = time.time()
    sym = simple_axis_root_symbol()
    got = {g: (weighted_index(sym, -g, g), weighted_index(sym, g, -g))
           for g in (0.02, 0.05, 0.1)}
    ok = all(v == (-1, 1) for v in got.values())
    report(1, ok, f"weighted indices {got}, expected (-1, +1) per gamma", t0)


def test_criterion_02_multiplicity_two_weights():
    t0 = time.time()
    sym = nilpotent_symbol()
    got = {g: weighted_index(sym, -g, g) for g in (0.1, 0.35)}
    ok = all(v == -2 for v in got.values())
    report(2, ok, f"multiplicity-2 weighted indices {got}, expected -2", t0)


def _tracked_crossing_signs(fam, crossings, delta=0.4):
    signs = []
    for c in crossings:
        ell = c.axis_roots[0][0]
        lo = c.rho - delta
        seed = locate_roots(fam.at(lo),
                            Rectangle(-0.6 * fam.at(lo).eta, 0.6 * fam.at(lo).eta,
                                      ell - 0.6, ell + 0.6))
        cands = [nu for nu, m in seed.roots if m == 1]
        nu0 = min(cands, key=lambda z: abs(z - 1j * ell))
        traj = track_root(fam, lo, nu0, c.rho + delta)
        signs.append(int(np.sign(traj.nus[-1].real) - np.sign(traj.nus[0].real)) // 2)
    return signs


def _random_crossing_family(rng):
    """Affine family guaranteed to move a simple root across the axis.

    A scalar symbol is built with a root planted near the axis, then the
    endpoints are its weight shifts in opposite directions, so at least
    that root crosses along the homotopy.
    """
    from specflow.charmatrix import is_hyperbolic
    for _ in range(100):
        a = rng.uniform(1.8, 3.0)
        mass = rng.uniform(-1.2, 1.2)
        nu0 = rng.uniform(-0.2, 0.2)
        shift = nu0 - mass * a * a / (a * a - nu0 ** 2)
        sym = Symbol(1, exponential_kernel(a, [[mass]]),
                     (ShiftTerm(0.0, [[shift]]),), 0.9 * a)
        gm = -nu0 - rng.uniform(0.1, 0.3)
        gp = -nu0 + rng.uniform(0.1, 0.3)
        if max(abs(gm), abs(gp)) >= sym.eta:
            continue
        sm, sp = weight_shift(sym, gm), weight_shift(sym, gp)
        if is_hyperbolic(sm).hyperbolic and is_hyperbolic(sp).hyperbolic:
            return OperatorFamily.affine_homotopy(sm, sp)
    raise RuntimeError("no admissible crossing family found")


def test_criterion_03_spectral_flow_equality():
    t0 = time.time()
    rng = np.random.default_rng(31)
    checked = 0
    with_crossings = 0
    ok = True
    details = []
    while checked < 10:
        fam = _random_crossing_family(rng)
        fr = crossing_number(fam)
        if not all(c.simple for c in fr.crossings):
            continue
        checked += 1
        if fr.crossings:
            with_crossings += 1
            signs = _tracked_crossing_signs(fam, fr.crossings)
            if sum(signs) != fr.cross:
                ok = False
                details.append(f"family {checked}: {sum(signs)} != {fr.cross}")
    ok = ok and with_crossings == 10
    report(3, ok, f"{checked} simple-crossing families, {with_crossings} with "
                  f"crossings; count-based cross equals tracked sign sum"
                  + ("" if ok else f"; {details}"), t0)


def test_criterion_04_cocycle_identity():
    t0 = time.time()
    rng = np.random.default_rng(47)
    failures = []
    for k in range(10):
        make = random_scalar_symbol if k % 2 == 0 else random_2x2_symbol
        s0, s1, s2 = (make(rng) for _ in range(3))
        i01, i12, i02, holds = cocycle_check(s0, s1, s2)
        if not holds:
            failures.append((k, i01, i12, i02))
    report(4, not failures, f"10 random triples; additivity failures: {failures}", t0)


def test_criterion_05_root_count_oracle():
    t0 = time.time()
    rng = np.random.default_rng(63)
    failures = []
    cases = []
    for _ in range(18):
        a = rng.uniform(1.6, 3.0)
        mass = rng.uniform(-1.6, 1.6)
        shift = rng.uniform(-1.8, 1.8)
        cases.append((a, mass, shift))
    cases.append((2.0, 9.0 / 8.0, -0.5))     # tangency: double root at 1
    cases.append(None)                        # nilpotent multiplicity 2
    for k, case in enumerate(cases):
        if case is None:
            sym = nilpotent_symbol()
            expected = [(0.0 + 0.0j, 2)]
            box = Rectangle(-0.7, 0.7, -0.7, 0.7)
        else:
            a, mass, shift = case
            eta = 0.95 * a
            sym = Symbol(1, exponential_kernel(a, [[mass]]),
                         (ShiftTerm(0.0, [[shift]]),), eta)
            box = Rectangle(-0.9 * eta, 0.9 * eta, -8.0, 8.0)
            poly = exp_kernel_char_poly(a, mass, shift)
            expected = strip_roots_of_poly(poly, 0.9 * eta, 8.0)
            if any(min(abs(abs(q.real) - 0.9 * eta), abs(abs(q.imag) - 8.0)) < 1e-3
                   for q, _ in expected):
                box = Rectangle(-0.88 * eta, 0.88 * eta, -7.9, 7.9)
                expected = strip_roots_of_poly(poly, 0.88 * eta, 7.9)
        rs = locate_roots(sym, box)
        got = sorted((nu, m) for nu, m in rs.roots)
        want = sorted(expected, key=lambda t: (t[0].real, t[0].imag))
        match = (len(got) == len(want)
                 and all(gm == wm and abs(g - w) < 1e-6
                         for (g, gm), (w, wm) in zip(got, want)))
        if not match:
            failures.append((k, got, want))
    report(5, not failures,
           f"20 instances vs polynomial oracle (incl. multiplicity); "
           f"failures: {failures}", t0)


def test_criterion_06_discretization_oracle():
    t0 = time.time()
    grid = Grid(L=30.0, h=0.05)
    scenarios = []
    sym = simple_axis_root_symbol()
    for g in (0.02, 0.05, 0.1):
        scenarios.append(("simple", sym, -g, g, weighted_index(sym, -g, g)))
        scenarios.append(("simple", sym, g, -g, weighted_index(sym, g, -g)))
    nil = nilpotent_symbol()
    scenarios.append(("mult2", nil, -0.35, 0.35, weighted_index(nil, -0.35, 0.35)))
    rows = []
    ok = True
    reliable_count = 0
    for name, s, gm, gp, w_idx in scenarios:
        idx, nf, na = index_estimate(s, grid, gm, gp)
        gap = min(nf.gap, na.gap)
        reliable = nf.reliable and na.reliable and gap >= 1e3
        rows.append((name, gm, gp, idx, w_idx, f"{gap:.1e}", reliable))
        if reliable:
            reliable_count += 1
            if idx != w_idx:
                ok = False
    # the clear-gap scenarios must agree and must include the larger
    # weights; under-resolved small weights are excluded by the gap rule
    clear_by_name = {(r[0], r[1]) for r in rows if r[6]}
    ok = ok and reliable_count >= 3 and ("mult2", -0.35) in clear_by_name \
        and ("simple", -0.1) in clear_by_name
    report(6, ok, f"grid-vs-winding indices {rows}", t0)


def _criterion7_models():
    def gaussian_source(vec):
        vec = np.asarray(vec, dtype=float)

        def H(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-x ** 2)[:, None] * vec[None, :]
        return H

    scalar = ShockModel(n=1, kernel=exponential_kernel(2.0, [[1.0]]),
                        dF=[[1.0]], dG=[[1.0]], source=gaussian_source([1.0]),
                        G2=np.array([[[1.0]]]), eta=0.9)
    dG = np.array([[1.5, 0.2], [0.2, 0.8]])
    pair = ShockModel(n=2, kernel=exponential_kernel(2.0, np.eye(2)),
                      dF=np.eye(2), dG=dG, source=gaussian_source([1.0, 0.5]),
                      eta=0.6)
    from specflow.kernels import ExpPolyKernel
    k0 = one_sided_exponential_kernel(1.0, [[1.0]])
    terms = [(s, b, p, np.array([[C[0, 0], 0], [0, 0]])) for s, b, p, C in k0.terms]
    ke = exponential_kernel(2.0, [[1.0]])
    terms += [(s, b, p, np.array([[0, 0], [0, C[0, 0]]])) for s, b, p, C in ke.terms]
    zero2 = ShockModel(n=2, kernel=ExpPolyKernel(2, terms),
                       dF=np.diag([-1.0, 1.0]), dG=np.diag([1.0, 1.0]),
                       source=gaussian_source([0.0, 0.0]), eta=0.45)
    return scalar, pair, zero2


def test_criterion_07_conservation_law_indices():
    t0 = time.time()
    scalar, pair, zero2 = _criterion7_models()
    got = (linearization_index(scalar, 0.5),
           linearization_index(pair, 0.4),
           linearization_index(zero2, 0.3))
    ok = got == (-1, -2, -3)
    report(7, ok, f"linearization indices {got}, expected (-1, -2, -3)", t0)


def test_criterion_08_jump_formula():
    t0 = time.time()
    scalar, _, _ = _criterion7_models()
    J = jump_leading_order(scalar)[0]
    eps_list = (4e-3, 2e-3, 1e-3)
    devs = []
    for eps in eps_list:
        sol = shock_profile(scalar, b=[0.0], eps=eps)
        devs.append(sol.jump[0] / eps - J)
    r1, r2 = devs[1] / devs[0], devs[2] / devs[1]
    ratios_ok = abs(r1 - 0.5) <= 0.125 and abs(r2 - 0.5) <= 0.125
    A = np.vstack([np.ones(3), np.array(eps_list)]).T
    intercept = np.linalg.lstsq(A, np.array(devs) + J, rcond=None)[0][0]
    richardson_ok = abs(intercept - J) <= 0.02 * abs(J)
    ok = ratios_ok and richardson_ok
    report(8, ok, f"deviation ratios ({r1:.3f}, {r2:.3f}) vs 0.5+-25%; "
                  f"Richardson intercept {intercept:.6f} vs {J:.6f}", t0)


def test_criterion_09_zero_speed_selection():
    t0 = time.time()
    _, _, _ = _criterion7_models()

    def moment_source(x):
        x = np.asarray(x, dtype=float)
        return (x * np.exp(-x ** 2))[:, None]

    model = ShockModel(n=1, kernel=one_sided_exponential_kernel(1.0, [[1.0]]),
                       dF=[[-1.0]], dG=[[1.0]], source=moment_source, eta=0.45)
    eps = 1e-3
    a0, b0, M, sol = zero_speed_selection(model, eps)
    M_ok = abs(M - np.sqrt(np.pi) / 2) <= 1e-10
    diff_ok = abs((a0 - b0) / eps - M) <= 0.03 * abs(M)
    ok = M_ok and diff_ok
    report(9, ok, f"M = {M:.6f}; (a-b)/eps = {(a0 - b0) / eps:.6f} within 3% of M; "
                  f"split (a, -b)/eps = ({a0 / eps:.4f}, {-b0 / eps:.4f}) "
                  f"is the symmetric gauge M/2 each (see ledger note)", t0)


@pytest.mark.xfail(strict=True, reason=(
    "solvability pins a_j0 - b_j0 = M*eps (verified three independent "
    "ways), so a_j0/eps and -b_j0/eps converge to M/2, not M; the stated "
    "per-coefficient limits are unattainable by a factor of two"))
def test_criterion_09_individual_coefficients_as_stated():
    def moment_source(x):
        x = np.asarray(x, dtype=float)
        return (x * np.exp(-x ** 2))[:, None]

    model = ShockModel(n=1, kernel=one_sided_exponential_kernel(1.0, [[1.0]]),
                       dF=[[-1.0]], dG=[[1.0]], source=moment_source, eta=0.45)
    eps = 1e-3
    a0, b0, M, sol = zero_speed_selection(model, eps)
    assert abs(a0 / eps - M) <= 0.03 * abs(M)
    assert abs(-b0 / eps - M) <= 0.03 * abs(M)


def test_criterion_10_edge_scaling():
    t0 = time.time()
    model = EdgeModel(
        n=2, B=[[0.0, 0.0], [1.0, 0.0]], dirac=[[0.0, -1.0], [0.0, 0.0]],
        V=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
        P=[[0.0, 0.0], [1.0, 0.0]], eta=0.5, weight_eta=0.5)
    M2 = edge_constant(model) ** 2
    sc = edge_scaling(model, [0.04, 0.02, 0.01])
    intercept_ok = abs(sc.intercept - np.pi / 4) <= 0.02 * (np.pi / 4)
    oracle_ok = True
    worst = 0.0
    for eps, lam, _ in sc.rows:
        lam_ref = shallow_well_eigenvalue(model.V, eps)
        rel = abs(lam - lam_ref) / lam_ref
        worst = max(worst, rel)
        if rel > 0.05:
            oracle_ok = False
    ok = intercept_ok and oracle_ok and abs(M2 - np.pi / 4) < 1e-10
    report(10, ok, f"intercept {sc.intercept:.6f} vs pi/4 = {np.pi / 4:.6f} "
                   f"(rel {sc.intercept_rel_error:.2e}); worst oracle "
                   f"deviation {worst:.2e} (<= 5%)", t0)


def test_criterion_11_structural_identities():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst_shift = worst_adj = worst_fd = 0.0
    for _ in range(10):
        sym = random_scalar_symbol(rng, want_hyperbolic=False)
        gamma = rng.uniform(-0.4, 0.4)
        shifted = weight_shift(sym, gamma)
        for _ in range(5):
            nu = complex(rng.uniform(-0.45, 0.45), rng.uniform(-5, 5))
            lhs = delta_eval(shifted, np.array(nu))
            rhs = delta_eval(sym, np.array(nu - gamma))
            worst_shift = max(worst_shift, float(np.abs(lhs - rhs).max()))
    for _ in range(10):
        sym = random_2x2_symbol(rng, want_hyperbolic=False)
        adj = adjoint_symbol(sym)
        for _ in range(5):
            nu = complex(rng.uniform(-0.9, 0.9), rng.uniform(-5, 5))
            lhs = det_values(adj, np.array(nu))
            rhs = (-1) ** 2 * np.conj(det_values(sym, np.array(-np.conj(nu))))
            worst_adj = max(worst_adj, abs(lhs - rhs) / max(1.0, abs(rhs)))
    K = exponential_kernel(2.0, [[1.0]])
    h = 1e-5
    for _ in range(10):
        nu = complex(rng.uniform(-1.2, 1.2), rng.uniform(-4, 4))
        fd = (K.transform(nu + h) - K.transform(nu - h))[0, 0] / (2 * h)
        rel = abs(K.transform(nu, 1)[0, 0] - fd) / abs(fd)
        worst_fd = max(worst_fd, rel)
    ok = worst_shift <= 1e-12 and worst_adj <= 1e-12 and worst_fd <= 1e-6
    report(11, ok, f"conjugation {worst_shift:.2e} <= 1e-12; adjoint "
                   f"{worst_adj:.2e} <= 1e-12; transform derivative vs FD "
                   f"{worst_fd:.2e} <= 1e-6", t0)


def test_criterion_12_determinism():
    t0 = time.time()
    sym = simple_axis_root_symbol()
    nil = nilpotent_symbol()

    def integer_outputs():
        out = [weighted_index(sym, -g, g) for g in (0.02, 0.05, 0.1)]
        out.append(weighted_index(nil, -0.35, 0.35))
        rng = np.random.default_rng(31)
        sm = random_scalar_symbol(rng)
        sp = random_scalar_symbol(rng)
        fr = crossing_number(OperatorFamily.affine_homotopy(sm, sp))
        out.append(fr.cross)
        out.extend(m for _, m in locate_roots(
            Symbol(1, exponential_kernel(2.0, [[1.0]]),
                   (ShiftTerm(0.0, [[-2.0]]),), 1.9),
            Rectangle(-1.7, 1.7, -6, 6)).roots)
        return out

    first = integer_outputs()
    second = integer_outputs()

    # repeated map commands must give bit-identical integer maps
    import tempfile
    from pathlib import Path
    from specflow.cli import run as cli_run
    configs = Path(__file__).resolve().parents[1] / "src" / "specflow" / "configs"
    maps = []
    with tempfile.TemporaryDirectory() as td:
        for rep in (1, 2):
            out = Path(td) / f"run{rep}"
            rc = cli_run(["specmap", "--config", str(configs / "neuralfield.json"),
                          "--out", str(out), "--re=1.2:1.8:2", "--im=0.0:0.4:2"])
            assert rc == 0
            maps.append((out / "specmap.csv").read_text())
    ok = first == second and maps[0] == maps[1]
    report(12, ok, f"repeated integer outputs identical: {first}; "
                   f"specmap bit-identical across two runs", t0)
