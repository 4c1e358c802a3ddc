import csv
import json
from pathlib import Path

import numpy as np
import pytest

from specflow.cli import run

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "specflow" / "configs"


def read_json(outdir, name="result.json"):
    with open(Path(outdir) / name) as fh:
        return json.load(fh)


def test_index_tanh_family(tmp_path):
    rc = run(["index", "--config", str(CONFIGS / "tanh_scalar.json"),
              "--out", str(tmp_path)])
    assert rc == 0
    assert read_json(tmp_path)["index"] == -1


def test_index_symbol_pair(tmp_path):
    rc = run(["index", "--config", str(CONFIGS / "mult2_pair.json"),
              "--out", str(tmp_path)])
    assert rc == 0
    assert read_json(tmp_path)["index"] == -2


def test_flow_writes_crossings(tmp_path):
    rc = run(["flow", "--config", str(CONFIGS / "tanh_scalar.json"),
              "--out", str(tmp_path)])
    assert rc == 0
    payload = read_json(tmp_path)
    assert payload["cross"] == 1 and payload["index"] == -1
    with open(tmp_path / "crossings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert abs(float(rows[0]["rho_j"])) < 1e-6
    assert rows[0]["contribution"] == "1"


def test_roots_command(tmp_path, symbol_config):
    rc = run(["roots", "--config", str(symbol_config), "--out", str(tmp_path),
              "--box", "-1.9", "1.9", "-6", "6"])
    assert rc == 0
    payload = read_json(tmp_path)
    assert payload["total_count"] == 2
    res = sorted(r["re"] for r in payload["roots"])
    assert res == pytest.approx([-0.8060634335, 1.7092753594], abs=1e-8)


@pytest.fixture
def symbol_config(tmp_path_factory):
    cfg = {
        "n": 1, "eta": 1.95,
        "kernel": {"family": "exponential", "a": 2.0, "M": [[1.0]]},
        "shifts": [{"xi": 0.0, "A": [[-2.0]]}],
    }
    path = tmp_path_factory.mktemp("cfg") / "cubic.json"
    path.write_text(json.dumps(cfg))
    return path


def test_shock_command(tmp_path):
    rc = run(["shock", "--config", str(CONFIGS / "shock_scalar.json"),
              "--out", str(tmp_path), "--eps", "1e-3"])
    assert rc == 0
    payload = read_json(tmp_path)
    assert payload["jump"][0] / 1e-3 == pytest.approx(
        payload["jump_leading_order"][0], rel=1e-3)
    with open(tmp_path / "profile.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u1"]
    assert len(rows) > 1000


def test_shock_zero_speed_command(tmp_path):
    rc = run(["shock", "--config", str(CONFIGS / "shock_zero_speed.json"),
              "--out", str(tmp_path), "--eps", "1e-3"])
    assert rc == 0
    payload = read_json(tmp_path)
    assert payload["M"] == pytest.approx(np.sqrt(np.pi) / 2, rel=1e-8)
    assert (payload["a_j0"] - payload["b_j0"]) / 1e-3 == pytest.approx(
        payload["M"], rel=1e-3)


def test_edge_command(tmp_path):
    rc = run(["edge", "--config", str(CONFIGS / "schrodinger_well.json"),
              "--out", str(tmp_path), "--eps", "0.04,0.02"])
    assert rc == 0
    payload = read_json(tmp_path)
    assert payload["M_squared"] == pytest.approx(np.pi / 4, rel=1e-10)
    assert payload["intercept"] == pytest.approx(np.pi / 4, rel=0.02)


def test_specmap_small_grid(tmp_path):
    rc = run(["specmap", "--config", str(CONFIGS / "neuralfield.json"),
              "--out", str(tmp_path), "--re=1.0:2.0:3", "--im=-0.5:0.5:3"])
    assert rc == 0
    with open(tmp_path / "specmap.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    # far to the right of the spectrum every point is hyperbolic, index 0
    right = [r for r in rows if float(r["re_lambda"]) >= 1.9]
    assert right and all(r["index"] == "0" for r in right)
    # conjugate symmetry of the map for the real family
    by_point = {(round(float(r["re_lambda"]), 10),
                 round(float(r["im_lambda"]), 10)): r["index"] for r in rows}
    for (re, im), idx in by_point.items():
        assert by_point[(re, -im)] == idx


@pytest.mark.parametrize("bad", ["1:2", "1:2:3:4", "a:1:3", "0:1:x", "0:1:0"])
def test_specmap_malformed_range_exit_code(tmp_path, bad):
    rc = run(["specmap", "--config", str(CONFIGS / "neuralfield.json"),
              "--out", str(tmp_path), f"--re={bad}", "--im=0:0:1"])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration" and "--re" in err["error"]


def test_specmap_evaluates_each_node_once():
    # the border bisection takes its start flag from the node's record:
    # outside the bisection midpoints each node's lambda reaches each
    # limit pencil exactly once
    from specflow.cli import specmap
    from specflow.kernels import exponential_kernel
    from specflow.symbols import ShiftTerm, Symbol

    calls = {"minus": [], "plus": []}

    def pencil(name, a):
        def at(lam):
            calls[name].append(lam)
            return Symbol(1, exponential_kernel(2.0, [[1.0]]),
                          (ShiftTerm(0.0, [[a + lam]]),), 1.9)
        return at

    # the minus limit has an axis root at lambda = -0.7 exactly
    records, borders = specmap(pencil("minus", -0.3), pencil("plus", 0.5),
                               [-0.9, -0.7], [0.0])
    assert [r["hyp_minus"] for r in records] == [True, False]
    assert len(borders) == 1 and abs(borders[0] + 0.7) < 1e-6
    nodes = [r["lambda"] for r in records]
    for name in ("minus", "plus"):
        assert [calls[name].count(lam) for lam in nodes] == [1, 1]


def test_missing_config_exit_code(tmp_path):
    rc = run(["index", "--config", str(tmp_path / "nope.json"),
              "--out", str(tmp_path)])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration"


def _rule_config(expr):
    return {"path": {"type": "rule", "n": 1, "eta": 2.0,
                     "shift_matrix_exprs": [[expr]]}}


def _pair_with(**keys):
    """A symbol pair whose two limits take the given keys."""
    limit = dict({"n": 1, "eta": 2.0, "shifts": [{"xi": 0.0, "A": [[1.0]]}]},
                 **keys)
    return {"s_minus": limit, "s_plus": limit}


@pytest.mark.parametrize("config", [
    {"path": {"type": "mystery"}},
    # expressions outside the arithmetic grammar are never evaluated
    _rule_config("(1).__class__"),
    _rule_config("__import__('os')"),
    _rule_config("[1][0]"),
    _rule_config("lambda: 1"),
    {"s_minus": {"n": "x", "eta": 1.0}, "s_plus": {"n": 1, "eta": 1.0}},
    {"path": [1]},
    # integer constants are evaluated as floats, so these overflow at once
    # instead of running for ever in big-integer arithmetic
    _rule_config("9**9**9"),
    _rule_config("1" * 400),
    _pair_with(shifts=[{"xi": 0.0, "A": []}]),
    _pair_with(n=0, shifts=[]),
    _pair_with(eta=float("nan")),
    # an infinite offset makes the axis Lipschitz bound infinite
    _pair_with(shifts=[{"xi": float("inf"), "A": [[1.0]]}]),
], ids=["unknown_path", "attribute", "import", "subscript", "lambda", "bad_n",
        "path_not_object", "integer_tower", "huge_literal", "empty_matrix",
        "n_zero", "eta_nan", "xi_infinite"])
def test_invalid_schema_exit_code(tmp_path, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    rc = run(["index", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert read_json(tmp_path, "error.json")["kind"] == "configuration"


@pytest.mark.parametrize("section, key, value", [
    ("flux", "F2", [1.0]),
    ("flux", "G2", [[[1.0, 0.0]]]),
    ("source", "vector", [1.0, 2.0]),
    # a NaN bound makes the |eps| guard always false
    (None, "eps_max", float("nan")),
    (None, "eta", float("nan")),
    # real models refuse complex kernels and matrices instead of casting
    (None, "kernel", {"family": "exponential", "a": 2.0, "M": [[[1.0, 0.7]]]}),
    ("flux", "dF", [[[1.0, 0.7]]]),
], ids=["F2_shape", "G2_shape", "vector_length", "eps_max_nan", "eta_nan",
        "kernel_complex", "dF_complex"])
def test_invalid_shock_schema_exit_code(tmp_path, section, key, value):
    cfg = json.loads((CONFIGS / "shock_scalar.json").read_text())
    (cfg if section is None else cfg[section])[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = run(["shock", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration" and key in err["error"]


@pytest.mark.parametrize("kind", ["gaussian", "moment"])
def test_shock_source_zero_width_exit_code(tmp_path, kind):
    cfg = json.loads((CONFIGS / "shock_scalar.json").read_text())
    cfg["source"].update(type=kind, width=0.0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = run(["shock", "--config", str(bad), "--eps", "0.001",
              "--out", str(tmp_path)])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration" and "source.width" in err["error"]


def test_edge_potential_zero_width_exit_code(tmp_path):
    cfg = json.loads((CONFIGS / "schrodinger_well.json").read_text())
    cfg["perturbation"]["V"]["width"] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = run(["edge", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration" and "V.width" in err["error"]


@pytest.mark.parametrize("key, raw", [
    ("weight_eta", "NaN"),
    ("weight_eta", "1e400"),
    ("weight_eta", "0.0"),
    ("weight_eta", "-0.5"),
    ("eta", "NaN"),
    # a sweep needs at least one eps; a single one is a valid sweep
    ("eps", "[]"),
    ("eps", "[0.04, 0.0]"),
    ("eps", "[0.04, NaN]"),
    ("B", "[[0.0, 0.0], [[1.0, 0.3], 0.0]]"),
    # refused before the diffusive check, which it would fail (exit 3)
    ("kernel", '{"family": "gaussian", "sigma": 0.5, '
               '"M": [[0.0, 0.0], [[1.0, 0.3], 0.0]]}'),
], ids=["weight_eta_nan", "weight_eta_overflow", "weight_eta_zero",
        "weight_eta_negative", "eta_nan", "eps_empty", "eps_zero", "eps_nan",
        "B_complex", "kernel_complex"])
def test_invalid_edge_schema_exit_code(tmp_path, key, raw):
    cfg = json.loads((CONFIGS / "schrodinger_well.json").read_text())
    cfg[key] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg).replace('"@"', raw))
    rc = run(["edge", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration" and key in err["error"]


def test_unexpected_exception_exits_internal(tmp_path, monkeypatch):
    from specflow import cli

    def broken(args, outdir):
        raise RuntimeError("unclassified failure")

    monkeypatch.setitem(cli._COMMANDS, "index", broken)
    rc = run(["index", "--config", str(CONFIGS / "tanh_scalar.json"),
              "--out", str(tmp_path)])
    assert rc == 3
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "internal" and "RuntimeError" in err["error"]


def test_edge_dispersion_root_failure_exits_numerical(tmp_path, monkeypatch):
    from specflow import edgebif

    monkeypatch.setattr(edgebif, "newton_root", lambda *args, **kwargs: None)
    rc = run(["edge", "--config", str(CONFIGS / "schrodinger_well.json"),
              "--out", str(tmp_path), "--eps", "0.04"])
    assert rc == 3
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "numerical" and "dispersion root" in err["error"]


def test_specmap_missing_lambda_matrix_exit_code(tmp_path):
    cfg = json.loads((CONFIGS / "neuralfield.json").read_text())
    del cfg["limits"]["plus"]["lambda_matrix"]
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps(cfg))
    rc = run(["specmap", "--config", str(bad), "--out", str(tmp_path),
              "--re=0:0:1", "--im=0:0:1"])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration"
    assert "limits.plus" in err["error"]


def test_shock_eps_out_of_range_exit_code(tmp_path):
    rc = run(["shock", "--config", str(CONFIGS / "shock_scalar.json"),
              "--eps", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration"
    assert "eps_max" in err["error"]


def test_numerical_failure_exit_code(tmp_path):
    # family hits a crossing at the scan boundary: rejected as a
    # configuration-level error with an error report
    cfg = {"path": {"type": "rule", "n": 1, "eta": 2.0,
                    "rho_min": -0.001, "rho_max": 10.0,
                    "shift_matrix_exprs": [["tanh(rho)"]]}}
    bad = tmp_path / "boundary.json"
    bad.write_text(json.dumps(cfg))
    rc = run(["flow", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert (tmp_path / "error.json").exists()


def test_index_reads_the_limits_of_a_family(tmp_path):
    # the same family as above: its flow refuses the crossing at the scan
    # boundary, while its index depends only on the limits
    cfg = {"path": {"type": "rule", "n": 1, "eta": 2.0,
                    "rho_min": -0.001, "rho_max": 10.0,
                    "shift_matrix_exprs": [["tanh(rho)"]]}}
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(cfg))
    assert run(["index", "--config", str(path),
                "--out", str(tmp_path / "index")]) == 0
    assert read_json(tmp_path / "index")["index"] == -1
    assert run(["flow", "--config", str(path),
                "--out", str(tmp_path / "flow")]) == 2
    assert "scan boundary" in read_json(tmp_path / "flow", "error.json")["error"]


def test_right_end_crossing_exit_code(tmp_path):
    # the crossing at rho = 0 sits in the last scan bracket
    cfg = {"path": {"type": "rule", "n": 1, "eta": 2.0,
                    "rho_min": -10.0, "rho_max": 0.001,
                    "shift_matrix_exprs": [["tanh(rho)"]]}}
    bad = tmp_path / "right_end.json"
    bad.write_text(json.dumps(cfg))
    rc = run(["flow", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = read_json(tmp_path, "error.json")
    assert err["kind"] == "configuration" and "scan boundary" in err["error"]


def test_specmap_border_jump_matches_crossing_multiplicity(tmp_path):
    # scalar pencil: both limits are shifted copies of the same kernel
    # symbol, with the spectral parameter entering the zero-shift term.
    # crossing a limit's essential-spectrum border changes the index by
    # the multiplicity of the axis root that crosses there.
    import numpy as np
    from specflow.charmatrix import is_hyperbolic
    from specflow.flow import crossing_number, fredholm_index
    from specflow.kernels import exponential_kernel
    from specflow.symbols import OperatorFamily, ShiftTerm, Symbol

    def pencil(a):
        def at(lam):
            return Symbol(1, exponential_kernel(2.0, [[1.0]]),
                          (ShiftTerm(0.0, [[a + lam]]),), 1.9)
        return at

    minus_at = pencil(-0.3)    # border of this limit at lambda = -0.7
    plus_at = pencil(0.5)      # border of this limit at lambda = -1.5
    lam_left, lam_right = -0.9, -0.5
    for lam in (lam_left, lam_right):
        assert is_hyperbolic(minus_at(lam)).hyperbolic
        assert is_hyperbolic(plus_at(lam)).hyperbolic
    idx_left = fredholm_index(minus_at(lam_left), plus_at(lam_left))
    idx_right = fredholm_index(minus_at(lam_right), plus_at(lam_right))

    # transversal path of the minus limit across its border
    fam = OperatorFamily.from_rule(
        lambda rho: minus_at(lam_left + (lam_right - lam_left)
                             * 0.5 * (1 + np.tanh(rho))),
        -10.0, 10.0)
    fr = crossing_number(fam)
    assert len(fr.crossings) == 1
    assert abs(idx_right - idx_left) == fr.crossings[0].M == 1

    # locally constant between borders
    idx_left2 = fredholm_index(minus_at(-0.95), plus_at(-0.95))
    assert idx_left2 == idx_left


def test_shock_command_with_b(tmp_path):
    rc = run(["shock", "--config", str(CONFIGS / "shock_scalar.json"),
              "--out", str(tmp_path), "--eps", "1e-3", "--b", "0.001"])
    assert rc == 0
    payload = read_json(tmp_path)
    assert payload["b"] == [0.001]


@pytest.mark.parametrize("command", [["roots", "--box", "0", "1", "0", "1"],
                                     ["shock"], ["edge"],
                                     ["specmap", "--re=0:1:2", "--im=0:0:1"],
                                     ["index"]])
@pytest.mark.parametrize("option", [["--jobs", "2"], ["--scan", "50"]])
def test_unread_options_rejected(tmp_path, command, option):
    with pytest.raises(SystemExit) as exc:
        run(command[:1] + ["--config", "unused.json", "--out", str(tmp_path)]
            + command[1:] + option)
    assert exc.value.code == 2


def test_specmap_rejects_jobs(tmp_path):
    # specmap runs serially and has no --jobs option
    with pytest.raises(SystemExit) as exc:
        run(["specmap", "--config", "unused.json", "--out", str(tmp_path),
             "--re=0:1:2", "--im=0:0:1", "--jobs", "2"])
    assert exc.value.code == 2


def test_non_hyperbolic_limit_exit_code(tmp_path):
    axis_root = {"n": 1, "eta": 2.0, "shifts": [{"xi": 0.0, "A": [[0.0]]}]}
    stable = {"n": 1, "eta": 2.0, "shifts": [{"xi": 0.0, "A": [[1.0]]}]}
    cfg = tmp_path / "pair.json"
    cfg.write_text(json.dumps({"s_minus": axis_root, "s_plus": stable}))
    rc = run(["index", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert read_json(tmp_path, "error.json")["kind"] == "configuration"


def _pair_config(tmp_path):
    s1 = {"n": 1, "eta": 2.0, "shifts": [{"xi": 0.0, "A": [[-1.0]]}]}
    s2 = {"n": 2, "eta": 2.0,
          "shifts": [{"xi": 0.0, "A": [[-1.0, 0.0], [0.0, -1.0]]}]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"s_minus": s1, "s_plus": s2}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["flow", "--config", "tanh_scalar.json", "--scan", "1"],
    ["shock", "--config", "shock_scalar.json", "--eps", "abc"],
    ["shock", "--config", "shock_scalar.json", "--eps", "1e-3", "--b", "x"],
    ["shock", "--config", "shock_scalar.json", "--eps", "1e-3", "--b", "1,2,3"],
    ["shock", "--config", "shock_zero_speed.json", "--eps", "1"],
    ["edge", "--config", "schrodinger_well.json", "--eps", "abc"],
    ["edge", "--config", "schrodinger_well.json", "--eps", "0"],
    ["edge", "--config", "schrodinger_well.json", "--eps", "0.04,0"],
    ["roots", "--config", "symbol", "--box", "1", "0", "0", "1"],
    ["roots", "--config", "symbol", "--box", "a", "0", "0", "1"],
    ["index", "--config", "pair"],
], ids=["flow_scan_1", "shock_eps", "shock_b_text",
        "shock_b_length", "zero_speed_eps_max", "edge_eps", "edge_eps_zero",
        "edge_eps_zero_entry", "roots_empty_box", "roots_box_text",
        "index_mixed_dimension"])
def test_malformed_numeric_option_exit_code(tmp_path, symbol_config, argv):
    configs = {"symbol": str(symbol_config), "pair": _pair_config(tmp_path)}
    argv = [configs.get(a, str(CONFIGS / a) if a.endswith(".json") else a)
            for a in argv]
    rc = run(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert read_json(tmp_path / "out", "error.json")["kind"] == "configuration"


@pytest.mark.parametrize("eps", ["abc", [0.001], float("nan")],
                         ids=["text", "list", "nan"])
def test_malformed_shock_config_eps(tmp_path, eps):
    cfg = json.loads((CONFIGS / "shock_scalar.json").read_text())
    cfg["eps"] = eps
    path = tmp_path / "shock.json"
    path.write_text(json.dumps(cfg))
    rc = run(["shock", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = read_json(tmp_path / "out", "error.json")
    assert err["kind"] == "configuration" and "eps" in err["error"]


@pytest.mark.parametrize("kind", ["affine", "tabulated"])
def test_index_on_path_between_pair_limits(tmp_path, kind):
    pair = json.loads((CONFIGS / "mult2_pair.json").read_text())
    if kind == "affine":
        path = {"type": "affine", "s0": pair["s_minus"], "s1": pair["s_plus"]}
    else:
        path = {"type": "tabulated",
                "points": [{"rho": -1.0, "symbol": pair["s_minus"]},
                           {"rho": 1.0, "symbol": pair["s_plus"]}]}
    cfg = tmp_path / "path.json"
    cfg.write_text(json.dumps({"path": path}))
    assert run(["index", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path)["index"] == -2


def _outputs(tmp_path, name, command, cfg, files, extra=()):
    """Run a command on the config dict `cfg`; the bytes of its output files."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert run([command, "--config", str(path), "--out", str(out), *extra]) == 0
    return [(out / f).read_bytes() for f in files]


def test_shock_expr_source_and_exp_poly_kernel_match_shipped(tmp_path):
    # the same model written with an expression source and with the
    # exponential kernel spelled out as exp_poly terms
    base = json.loads((CONFIGS / "shock_scalar.json").read_text())
    files = ("result.json", "profile.csv")
    expr = dict(base, source={"type": "expr", "exprs": ["exp(-x**2)"]})
    terms = [{"side": side, "rate": 2.0, "power": 0, "C": [[1.0]]}
             for side in (1, -1)]
    exp_poly = dict(base, kernel={"family": "exp_poly", "terms": terms})
    want = _outputs(tmp_path, "shipped", "shock", base, files)
    assert _outputs(tmp_path, "expr", "shock", expr, files) == want
    assert _outputs(tmp_path, "exp_poly", "shock", exp_poly, files) == want


def test_edge_expr_potential_matches_shipped(tmp_path):
    base = json.loads((CONFIGS / "schrodinger_well.json").read_text())
    expr = json.loads(json.dumps(base))
    expr["perturbation"]["V"] = {"type": "expr", "expr": "exp(-x**2)"}
    eps = ("--eps", "0.04,0.02")
    want = _outputs(tmp_path, "shipped", "edge", base, ["result.json"], eps)
    assert _outputs(tmp_path, "expr", "edge", expr, ["result.json"], eps) == want


def _gaussian_map_config(tmp_path):
    """neuralfield.json with Gaussian kernels, which are not rational."""
    cfg = json.loads((CONFIGS / "neuralfield.json").read_text())
    for side in ("minus", "plus"):
        limit = cfg["limits"][side]
        limit["kernel"] = {"family": "gaussian", "sigma": 1.0,
                           "M": limit["kernel"]["M"]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_specmap_winding_for_gaussian_kernels(tmp_path):
    # Gaussian kernels are not rational; every node's index is the
    # difference of the certified windings of its limits
    rc = run(["specmap", "--config", _gaussian_map_config(tmp_path),
              "--out", str(tmp_path), "--re=-1:1:5", "--im=0:0:1"])
    assert rc == 0
    with open(tmp_path / "specmap.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["re_lambda"]), r["index"]) for r in rows] == [
        (-1.0, "0"), (-0.5, "1"), (0.0, "0"), (0.5, "0"), (1.0, "0")]
    assert list(rows[0]) == ["re_lambda", "im_lambda", "hyp_minus",
                             "hyp_plus", "index"]
    assert "notes" not in read_json(tmp_path)
