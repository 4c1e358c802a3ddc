import json
from pathlib import Path

import numpy as np
import pytest

from specflow import configio, flow
from specflow.charmatrix import _sigma_min_axis, axis_cutoff
from specflow.cli import run
from specflow.errors import ContourThroughRoot, EndpointNotHyperbolic
from specflow.flow import (cocycle_check, crossing_number, find_crossings,
                           fredholm_index, weighted_index)
from specflow.kernels import exponential_kernel
from rational import axis_winding as exact_winding
from specflow.roots import Rectangle, locate_roots, track_root
from specflow.symbols import (OperatorFamily, ShiftTerm, Symbol,
                              weight_shift)

from conftest import (flow_index, random_2x2_symbol, random_scalar_symbol,
                      sampled_axis_winding as axis_winding)

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "specflow" / "configs"


def tanh_family(sign=+1.0):
    def rule(rho):
        return Symbol(1, None, (ShiftTerm(0.0, [[sign * np.tanh(rho)]]),), 2.0)
    return OperatorFamily.from_rule(rule, -10.0, 10.0)


def axis_root_symbol():
    """Scalar with one simple root at 0 and one more strip root off-axis."""
    return Symbol(1, exponential_kernel(2.0, [[1.0]]),
                  (ShiftTerm(0.0, [[-1.0]]),), 1.9)


def test_tanh_single_crossing():
    crossings = find_crossings(tanh_family())
    assert len(crossings) == 1
    c = crossings[0]
    assert abs(c.rho) < 1e-6
    assert c.M == 1 and c.simple
    assert (c.M_right_minus, c.M_right_plus) == (0, 1)
    assert c.speed == pytest.approx(1.0, abs=1e-6)


def test_tanh_flow_and_reversal():
    assert crossing_number(tanh_family()).cross == 1
    assert crossing_number(tanh_family(-1.0)).cross == -1


def test_constant_family_no_crossings():
    sym = Symbol(1, None, (ShiftTerm(0.0, [[1.0]]),), 2.0)
    fam = OperatorFamily.affine_homotopy(sym, sym)
    assert find_crossings(fam) == []
    assert flow_index(sym, sym) == fredholm_index(sym, sym) == 0


def block_family():
    def rule(rho):
        A = np.array([[np.tanh(rho), 0.0], [0.0, -np.tanh(rho - 5.0)]])
        return Symbol(2, None, (ShiftTerm(0.0, A),), 2.0)
    return OperatorFamily.from_rule(rule, -10.0, 12.0)


def test_block_family_opposite_crossings():
    fam = block_family()
    fr = crossing_number(fam)
    contribs = sorted(c.contribution for c in fr.crossings)
    assert contribs == [-1, 1]
    assert fr.cross == 0


def test_endpoint_not_hyperbolic_rejected():
    sym = Symbol(1, None, (ShiftTerm(0.0, [[0.0]]),), 2.0)
    fam = OperatorFamily.affine_homotopy(sym, sym)
    with pytest.raises(EndpointNotHyperbolic):
        find_crossings(fam)


def weighted_flow_index(symbol, gamma_minus, gamma_plus, scan_points=400):
    """`weighted_index` by spectral flow between the shifted limits."""
    return flow_index(weight_shift(symbol, gamma_minus),
                      weight_shift(symbol, gamma_plus), scan_points)


def test_weighted_index_simple_root_both_signs():
    sym = axis_root_symbol()
    for gamma in (0.02, 0.05, 0.1):
        assert (weighted_flow_index(sym, -gamma, gamma)
                == weighted_index(sym, -gamma, gamma) == -1)
        assert (weighted_flow_index(sym, gamma, -gamma)
                == weighted_index(sym, gamma, -gamma) == 1)


def test_weighted_index_multiplicity_two():
    nil = Symbol(2, None, (ShiftTerm(0.0, [[0.0, 1.0], [0.0, 0.0]]),), 2.0)
    assert (weighted_flow_index(nil, -0.35, 0.35)
            == weighted_index(nil, -0.35, 0.35) == -2)
    assert (weighted_flow_index(nil, 0.35, -0.35)
            == weighted_index(nil, 0.35, -0.35) == 2)


def test_side_exit_family_still_counts():
    # one-sided kernel whose affine homotopy sends the double root through
    # the axis as a complex pair while a third root exits the strip side
    from specflow.kernels import one_sided_exponential_kernel
    K = one_sided_exponential_kernel(1.0, [[1.0]])
    dK, jump = K.derivative(), K.jump()
    kern = dK.sandwich([[1.0]], [[-1.0]]).scaled(-1.0)
    sym = Symbol(1, kern, (ShiftTerm(0.0, [[float(jump[0, 0].real)]]),), 0.9)
    assert weighted_flow_index(sym, -0.3, 0.3) == weighted_index(sym, -0.3, 0.3) == -2


def test_path_independence(rng):
    s0 = random_scalar_symbol(rng)
    s1 = random_scalar_symbol(rng)
    idx_affine = flow_index(s0, s1)
    mid = weight_shift(s0, 0.15)
    fam = OperatorFamily.tabulated([(-1.0, s0), (0.0, mid), (1.0, s1)])
    assert crossing_number(fam).index == idx_affine


def test_simple_crossing_speed_consistency(rng):
    # count-based contributions agree with continuation through the axis
    fam = tanh_family()
    crossings = find_crossings(fam)
    c = crossings[0]
    ell = c.axis_roots[0][0]
    d = 0.5
    seed = locate_roots(fam.at(c.rho - d),
                        Rectangle(-0.9, 0.9, ell - 0.5, ell + 0.5))
    nu0 = seed.roots[0][0]
    traj = track_root(fam, c.rho - d, nu0, c.rho + d)
    assert traj.status == "reached end"
    assert np.sign(traj.nus[-1].real) - np.sign(traj.nus[0].real) == 2 * c.contribution


def test_cocycle_identity_random_triples(rng):
    for make in (random_scalar_symbol, random_2x2_symbol):
        for _ in range(3):
            s0, s1, s2 = (make(rng) for _ in range(3))
            i01, i12, i02, holds = cocycle_check(s0, s1, s2)
            assert holds
            assert i01 + i12 == i02


def test_cocycle_weighted_chain():
    # two strip roots at distinct real parts; each homotopy leg crosses one
    base = Symbol(2, None,
                  (ShiftTerm(0.0, np.diag([-0.05, -0.15])),), 2.0)
    s0 = base
    s1 = weight_shift(base, 0.1)
    s2 = weight_shift(base, 0.2)
    i01, i12, i02, holds = cocycle_check(s0, s1, s2)
    assert (i01, i12, i02) == (-1, -1, -2)
    assert holds


def test_index_runs_no_flow(tmp_path, monkeypatch):
    # a pair's index is W(s+) - W(s-) of its limits; no crossing is looked for
    def no_flow(*args, **kwargs):
        raise AssertionError("the index ran a spectral flow")

    monkeypatch.setattr(flow, "find_crossings", no_flow)
    pair = configio.load_config(CONFIGS / "mult2_pair.json")
    assert fredholm_index(configio.symbol_from_json(pair["s_minus"]),
                          configio.symbol_from_json(pair["s_plus"])) == -2
    assert weighted_index(axis_root_symbol(), -0.1, 0.1) == -1
    nil = Symbol(2, None, (ShiftTerm(0.0, [[0.0, 1.0], [0.0, 0.0]]),), 2.0)
    assert weighted_index(nil, 0.35, -0.35) == 2
    for name, want in (("mult2_pair.json", -2), ("tanh_scalar.json", -1)):
        out = tmp_path / name
        assert run(["index", "--config", str(CONFIGS / name),
                    "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["index"] == want


def test_integer_stability_under_resolution():
    sym = axis_root_symbol()
    assert (weighted_flow_index(sym, -0.1, 0.1, scan_points=400)
            == weighted_flow_index(sym, -0.1, 0.1, scan_points=800))


def exp_pair(minus, plus, eta=1.5):
    """Limits (a, M, A) -> symbols with an exponential kernel and a shift at 0."""
    return tuple(Symbol(2, exponential_kernel(a, M), (ShiftTerm(0.0, A),), eta)
                 for a, M, A in (minus, plus))


# limits of a seeded 2x2 benchmark pair (index_flow seed 10, pair1_02)
SEED10_PAIR = (
    (2.9483112041440394, [[0.5205326502156773, -0.2588555000454784],
                          [0.12121687671122172, 0.4052829835335632]],
     [[0.785049448859509, 1.0402523300437954],
      [-0.8520127321530544, 0.5893925065054499]]),
    (2.527037994983611, [[-0.2659768692490587, 0.28583803761302873],
                         [-0.5529198872625696, -0.4003591689659469]],
     [[0.8877461905346633, 0.24088276904620587],
      [-0.5712406656707191, -0.8414042386056282]]),
)


def test_two_zeros_in_one_scan_bracket():
    # a conjugate pair crosses at rho ~ 0.6564 (ell = +-0.1225) and a real
    # root at rho ~ 0.6966 (ell = 0), close enough that the scan's
    # golden-section search stops at the first; the audit against the
    # certified windings finds the second
    sm, sp = exp_pair(*SEED10_PAIR)
    w_minus, w_plus = axis_winding(sm), axis_winding(sp)
    if (w_minus, w_plus) != (-2, -1):
        pytest.fail(f"axis windings moved to {(w_minus, w_plus)}")
    assert (exact_winding(sm), exact_winding(sp)) == (w_minus, w_plus)
    fr = crossing_number(OperatorFamily.affine_homotopy(sm, sp))
    assert [c.contribution for c in fr.crossings] == [-2, 1]
    assert fr.index == w_plus - w_minus


@pytest.mark.parametrize("minus, plus", [
    ((2.784440717321698, [[0.33945611204346493, -0.14411902850160363],
                          [0.7087260394484522, -0.750481381913407]],
      [[0.727055925104725, 0.24491670062877624],
       [-1.1012970441673573, -0.4022414112688836]]),
     (2.2539271736866935, [[-0.5183274755057914, 0.2281613552209225],
                           [-0.09721457173713888, 0.34528773533105506]],
      [[-0.3085510003104942, -1.0699664019137403],
       [0.5176797701443447, 0.5593087171233366]])),
    ((2.3404631254746806, [[-0.20672316122787004, 0.6828239821577629],
                           [0.23018419212906327, 0.516418581233328]],
      [[-0.1358059228144053, -0.6546270677165354],
       [0.1310034888380036, -1.046838585349979]]),
     (2.7931574063910984, [[0.21066303859530366, 0.41294038413659817],
                           [-0.2327584509922106, 0.7531168390318452]],
      [[0.9434906911732746, 0.6681203929770285],
       [-0.7328671011552779, -0.07986959105511793]])),
    ((2.1132306983047733, [[-0.751046989088046, 0.14957735960187768],
                           [0.6041956661733423, -0.6984270641400689]],
      [[0.840571356771503, 1.1599470471586575],
       [-0.358256742546612, -0.7226535198296332]]),
     (2.709948051014937, [[0.5348694856894047, 0.5135085714487342],
                          [0.6322085084895044, -0.15415501120954855]],
      [[0.10593390148901749, 1.1327979583640253],
       [-0.9764754579727479, 0.17839428896673537]])),
], ids=["index_flow_seed24_pair1_01", "index_flow_seed42_pair1_01",
        "index_flow_seed56_pair1_02"])
def test_missed_crossing_pairs(minus, plus):
    # seeded benchmark pairs whose scan once missed a crossing sharing a
    # scan bracket with another one
    sm, sp = exp_pair(minus, plus)
    exact = exact_winding(sp) - exact_winding(sm)
    assert exact == axis_winding(sp) - axis_winding(sm)
    assert flow_index(sm, sp) == exact


def test_unreconciled_audit_exits_numerical(tmp_path, monkeypatch):
    # a bracket resample that finds nothing leaves the audit mismatch in
    # place: the flow command refuses instead of printing a wrong integer
    monkeypatch.setattr(flow, "_resample_bracket", lambda *args: [])
    limits = [{"n": 2, "eta": 1.5,
               "kernel": {"family": "exponential", "a": a, "M": M},
               "shifts": [{"xi": 0.0, "A": A}]} for a, M, A in SEED10_PAIR]
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"path": {"type": "affine", "s0": limits[0],
                                        "s1": limits[1]}}))
    rc = run(["flow", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["kind"] == "numerical"
    assert not (tmp_path / "result.json").exists()


# -- reference oracles for the crossing classification ------------------------

def _reference_axis_freqs(symbol):
    """Axis-root frequencies from a dense scan with golden refinement.

    The flow once ran this second scan itself; it now reads the dips of
    the axis margin.
    """
    cap = axis_cutoff(symbol)
    m0 = max(1025, int(min(16 * cap, 8193)) | 1)
    ells = np.linspace(-cap, cap, m0)
    sig = _sigma_min_axis(symbol, ells)

    def f(ell):
        return float(_sigma_min_axis(symbol, np.array([ell]))[0])

    freqs = []
    for k in flow._dips(sig, 1e-5):
        ell, m = flow._golden_minimize(f, ells[k - 1], ells[k + 1], 1e-13)
        if m < 1e-7 and not any(abs(ell - q) < 1e-6 for q in freqs):
            freqs.append(ell)
    return sorted(freqs)


def _reference_side_counts(family, rho, ells, d_loc, r_loc):
    """(M_left, M_right) from located, Newton-polished roots."""
    sym = family.at(rho)
    left = right = 0
    for ell in ells:
        box = Rectangle(-d_loc, d_loc, ell - r_loc, ell + r_loc)
        for nu, m in locate_roots(sym, box).roots:
            if abs(nu.real) <= 1e-11:
                raise ContourThroughRoot("root on the axis off-crossing")
            left += m * (nu.real < 0)
            right += m * (nu.real > 0)
    return left, right


def _complex_family():
    # d(nu) = nu - c(rho) - K_hat(nu) with a complex c: the crossing root
    # leaves the axis at a nonzero frequency
    s0, s1 = (Symbol(1, exponential_kernel(2.0, [[0.5]]),
                     (ShiftTerm(0.0, [[c + 0.8j]]),), 1.5) for c in (-0.6, 0.6))
    return OperatorFamily.affine_homotopy(s0, s1)


def coincident_family():
    # diag(nu - tanh rho, nu - tanh rho - 0.8i): both blocks cross at
    # rho = 0, one at ell = 0 on the axis grid and one at ell = 0.8 between
    # its samples, where the coarse margin sits far above the other dip
    def rule(rho):
        t = np.tanh(rho)
        return Symbol(2, None, (ShiftTerm(0.0, np.diag([t, t + 0.8j])),), 2.0)
    return OperatorFamily.from_rule(rule, -3.0, 3.0)


def test_coincident_crossings_at_two_frequencies():
    fr = crossing_number(coincident_family())
    assert [c.M for c in fr.crossings] == [2]
    assert fr.index == -2
    ells = [ell for ell, _ in fr.crossings[0].axis_roots]
    assert np.allclose(ells, [0.0, 0.8], atol=1e-9)


def _families():
    tanh = configio.family_from_json(
        configio.load_config(CONFIGS / "tanh_scalar.json"))
    pair = configio.load_config(CONFIGS / "mult2_pair.json")
    mult2 = OperatorFamily.affine_homotopy(
        configio.symbol_from_json(pair["s_minus"]),
        configio.symbol_from_json(pair["s_plus"]))
    return {"tanh_scalar": tanh, "mult2_pair": mult2, "block": block_family(),
            "complex": _complex_family(), "coincident": coincident_family()}


@pytest.mark.parametrize("name", ["tanh_scalar", "mult2_pair", "block",
                                  "complex", "coincident"])
def test_crossing_classification_matches_reference_oracles(name):
    fam = _families()[name]
    crossings = find_crossings(fam)
    assert crossings
    step = (fam.rho_max - fam.rho_min) / 399
    for c in crossings:
        sym = fam.at(c.rho)
        ells = [ell for ell, _ in flow._axis_roots_at(sym)]
        ref = _reference_axis_freqs(sym)
        assert len(ells) == len(ref)
        assert np.max(np.abs(np.subtract(ells, ref))) < 1e-9
        # the box schedule of flow._crossing_at, from its first size on
        sep = min((abs(a - b) for a in ells for b in ells if a != b),
                  default=np.inf)
        d_loc = min(0.2, 0.45 * sym.eta)
        r_loc = min(0.2, 0.3 * sep if np.isfinite(sep) else 0.2)
        d_rho = min(0.5 * step, 0.05)
        compared = 0
        for _ in range(6):
            for rho in (c.rho - d_rho, c.rho + d_rho):
                try:
                    got = flow._side_counts(fam, rho, ells, d_loc, r_loc)
                    want = _reference_side_counts(fam, rho, ells, d_loc, r_loc)
                except ContourThroughRoot:
                    continue
                assert got == want
                assert sum(got) == c.M
                compared += 1
            d_loc, r_loc, d_rho = 0.5 * d_loc, 0.5 * r_loc, 0.25 * d_rho
        assert compared >= 6
