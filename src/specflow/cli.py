"""Batch command-line front end.

Commands read a JSON config, run one computation and write result.json
plus command-specific CSV files into the output directory.  Exit codes:
0 success, 2 configuration/validation failure, 3 numerical failure or
any other unexpected exception (error kind "internal").  A JSON error
report is always written on failure.

    specflow roots   --config sym.json --box RE_LO RE_HI IM_LO IM_HI
    specflow flow    --config family.json
    specflow index   --config family.json | pair.json
    specflow specmap --config map.json --re LO:HI:N --im LO:HI:N
    specflow shock   --config shock.json --eps 1e-3 [--b 0,0]
    specflow edge    --config edge.json --eps 0.04,0.02,0.01
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import configio
from .charmatrix import is_hyperbolic
from .conslaw import (characteristic_speeds, jump_leading_order,
                      shock_profile, zero_speed_selection, zero_speeds)
from .edgebif import edge_scaling
from .errors import ConfigurationError, NumericalError
from .flow import crossing_number, fredholm_index
from .roots import Rectangle, locate_roots

__all__ = ["main", "run", "specmap"]


def _write_json(outdir, name, payload):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w") as fh:
        json.dump(payload, fh, indent=2, default=_jsonable)
    return str(outdir / name)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"cannot serialize {type(v)}")


def _write_csv(outdir, name, header, rows):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(outdir / name)


def specmap(minus_at, plus_at, re_vals, im_vals):
    """Fredholm-index map over a rectangle of spectral parameters.

    For each lambda on the grid both limit symbols are tested for
    hyperbolicity; where both pass, the index of the pair is
    W(s_plus) - W(s_minus) from the certified windings of the same two
    tests.  Nodes run serially: a thread pool was measured slower than
    one thread.  Returns (records, borders): records hold per-point
    results, borders the essential-spectrum boundary points localized by
    bisection along grid edges where hyperbolicity flips.
    """
    def evaluate(lam):
        hm = is_hyperbolic(minus_at(lam))
        hp = is_hyperbolic(plus_at(lam))
        idx = None
        if hm.hyperbolic and hp.hyperbolic:
            idx = hp.winding - hm.winding
        return {"lambda": lam, "hyp_minus": hm.hyperbolic,
                "hyp_plus": hp.hyperbolic, "index": idx}

    records = [evaluate(complex(re, im)) for im in im_vals for re in re_vals]
    borders = []
    nr, ni = len(re_vals), len(im_vals)
    flat = {(i, j): records[j * nr + i] for j in range(ni) for i in range(nr)}

    def hyp(rec):
        return rec["hyp_minus"] and rec["hyp_plus"]

    def both_hyperbolic(lam):
        return (is_hyperbolic(minus_at(lam)).hyperbolic
                and is_hyperbolic(plus_at(lam)).hyperbolic)

    def bisect(here, lam_b):
        # lam_a only moves to midpoints that share the start node's flag
        lam_a, good_a = here["lambda"], hyp(here)
        for _ in range(48):
            mid = 0.5 * (lam_a + lam_b)
            if both_hyperbolic(mid) == good_a:
                lam_a = mid
            else:
                lam_b = mid
            if abs(lam_b - lam_a) < 1e-8:
                break
        return 0.5 * (lam_a + lam_b)

    for j in range(ni):
        for i in range(nr):
            here = flat[(i, j)]
            for di, dj in ((1, 0), (0, 1)):
                if i + di < nr and j + dj < ni:
                    there = flat[(i + di, j + dj)]
                    if hyp(here) != hyp(there):
                        borders.append(bisect(here, there["lambda"]))
    return records, borders


# -- command implementations ---------------------------------------------------

def _cmd_roots(args, outdir):
    cfg = configio.load_config(args.config)
    sym = configio.symbol_from_json(cfg)
    box = Rectangle(*_parse_floats("--box", args.box, 4))
    rs = locate_roots(sym, box)
    rows = [(nu.real, nu.imag, m) for nu, m in rs.roots]
    _write_csv(outdir, "roots.csv", ["re", "im", "mult"], rows)
    _write_json(outdir, "result.json", {
        "total_count": rs.total_count,
        "roots": [{"re": nu.real, "im": nu.imag, "mult": m}
                  for nu, m in rs.roots],
        "box": vars(box),
    })
    return 0


def _cmd_flow(args, outdir):
    cfg = configio.load_config(args.config)
    fam = configio.family_from_json(cfg)
    fr = crossing_number(fam, scan_points=args.scan)
    _write_csv(outdir, "crossings.csv",
               ["rho_j", "M", "M_R_minus", "M_R_plus", "contribution"],
               [(c.rho, c.M, c.M_right_minus, c.M_right_plus, c.contribution)
                for c in fr.crossings])
    _write_json(outdir, "result.json", {
        "cross": fr.cross, "index": fr.index,
        "crossings": [{"rho": c.rho, "M": c.M, "M_R_minus": c.M_right_minus,
                       "M_R_plus": c.M_right_plus, "simple": c.simple,
                       "speed": c.speed} for c in fr.crossings],
        "diagnostics": fr.diagnostics,
    })
    return 0


def _cmd_index(args, outdir):
    cfg = configio.load_config(args.config)
    if "s_minus" in cfg and "s_plus" in cfg:
        limits = (configio.symbol_from_json(cfg["s_minus"], "s_minus"),
                  configio.symbol_from_json(cfg["s_plus"], "s_plus"))
    else:
        fam = configio.family_from_json(cfg)
        limits = (fam.s_minus, fam.s_plus)
    _write_json(outdir, "result.json", {"index": fredholm_index(*limits)})
    return 0


def _parse_floats(option, items, count=None):
    """Finite floats from `items`, `count` of them when given.

    Anything else raises a ConfigurationError naming the option.
    """
    try:
        vals = [float(v) for v in items]
        ok = all(np.isfinite(vals)) and count in (None, len(vals))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        need = "" if count is None else f"{count} "
        raise ConfigurationError(f"{option} takes {need}finite number(s), "
                                 f"got {items!r}")
    return vals


def _parse_range(option, text):
    """LO:HI:N as N evenly spaced values, else a ConfigurationError."""
    try:
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
        ok = np.isfinite(lo) and np.isfinite(hi) and num >= 1
    except ValueError:
        ok = False
    if not ok:
        raise ConfigurationError(f"{option} must be LO:HI:N with finite LO, "
                                 f"HI and an integer N >= 1, got {text!r}")
    return np.linspace(lo, hi, num)


def _cmd_specmap(args, outdir):
    cfg = configio.load_config(args.config)
    limits = cfg.get("limits")
    if not isinstance(limits, dict):
        raise ConfigurationError("specmap config needs a 'limits' object")
    minus_at = configio.pencil_from_json(limits.get("minus"), "limits.minus")
    plus_at = configio.pencil_from_json(limits.get("plus"), "limits.plus")
    re_vals = _parse_range("--re", args.re)
    im_vals = _parse_range("--im", args.im)
    records, borders = specmap(minus_at, plus_at, re_vals, im_vals)
    _write_csv(outdir, "specmap.csv",
               ["re_lambda", "im_lambda", "hyp_minus", "hyp_plus", "index"],
               [(r["lambda"].real, r["lambda"].imag,
                 int(r["hyp_minus"]), int(r["hyp_plus"]),
                 "" if r["index"] is None else r["index"])
                for r in records])
    _write_csv(outdir, "borders.csv", ["re_lambda", "im_lambda"],
               [(b.real, b.imag) for b in borders])
    n_idx = sum(1 for r in records if r["index"] is not None)
    _write_json(outdir, "result.json", {
        "points": len(records), "with_index": n_idx,
        "borders": [[b.real, b.imag] for b in borders],
    })
    return 0


def _cmd_shock(args, outdir):
    cfg = configio.load_config(args.config)
    model = configio.shock_model_from_json(cfg)
    eps = (_parse_floats("--eps", args.eps, 1)[0] if args.eps
           else _parse_floats("eps", [cfg.get("eps", 1e-3)], 1)[0])
    b = (np.array(_parse_floats("--b", args.b.split(","), model.n))
         if args.b else np.zeros(model.n))
    speeds, _ = characteristic_speeds(model)
    payload = {"speeds": speeds.tolist(), "eps": eps}
    if len(zero_speeds(speeds)):
        a0, b0, M, sol = zero_speed_selection(model, eps)
        payload.update({"a_j0": a0, "b_j0": b0, "M": M,
                        "a": sol.a.tolist(), "b": sol.b.tolist(),
                        "residual": sol.residual})
    else:
        sol = shock_profile(model, b, eps)
        payload.update({
            "a": sol.a.tolist(), "b": sol.b.tolist(),
            "jump": sol.jump.tolist(),
            "jump_leading_order": jump_leading_order(model).tolist(),
            "residual": sol.residual,
        })
    _write_csv(outdir, "profile.csv",
               ["x"] + [f"u{k+1}" for k in range(model.n)],
               [(x, *row) for x, row in zip(sol.x, sol.U)])
    _write_json(outdir, "result.json", payload)
    return 0


def _cmd_edge(args, outdir):
    cfg = configio.load_config(args.config)
    model = configio.edge_model_from_json(cfg)
    raw = args.eps[0].split(",") if args.eps else cfg.get("eps", [0.04, 0.02, 0.01])
    eps_list = _parse_floats("--eps" if args.eps else "eps", raw)
    if not eps_list or 0.0 in eps_list:
        raise ConfigurationError(f"an edge sweep needs nonzero eps values, got {raw!r}")
    sc = edge_scaling(model, eps_list)
    _write_csv(outdir, "scaling.csv", ["eps", "lambda_star", "ratio"],
               [(e, l, q) for e, l, q in sc.rows])
    _write_json(outdir, "result.json", {
        "M": sc.M, "M_squared": sc.M_squared,
        "intercept": sc.intercept, "slope_fit": sc.slope_fit,
        "intercept_rel_error": sc.intercept_rel_error,
        "rows": sc.rows,
    })
    return 0


@functools.cache
def _build_parser():
    # built once per process: building takes about 0.6 ms, a third of an
    # `index` on a pair, and parse_args leaves the parser unchanged
    p = argparse.ArgumentParser(
        prog="specflow",
        description="Fredholm indices of nonlocal operators via spectral flow")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")

    sp = sub.add_parser("roots", help="locate characteristic roots in a box")
    common(sp)
    sp.add_argument("--box", nargs=4, required=True,
                    metavar=("RE_LO", "RE_HI", "IM_LO", "IM_HI"))

    sp = sub.add_parser("flow", help="crossings and index of a family")
    common(sp)
    sp.add_argument("--scan", type=int, default=400,
                    help="parameter scan resolution")

    sp = sub.add_parser("index", help="Fredholm index from limit symbols")
    common(sp)

    sp = sub.add_parser("specmap", help="index map over spectral parameters")
    common(sp)
    sp.add_argument("--re", required=True, metavar="LO:HI:N")
    sp.add_argument("--im", required=True, metavar="LO:HI:N")

    sp = sub.add_parser("shock", help="stationary layer of a conservation law")
    common(sp)
    sp.add_argument("--eps", nargs=1)
    sp.add_argument("--b", default=None)

    sp = sub.add_parser("edge", help="edge-bifurcation eigenvalue sweep")
    common(sp)
    sp.add_argument("--eps", nargs=1)
    return p


_COMMANDS = {
    "roots": _cmd_roots, "flow": _cmd_flow, "index": _cmd_index,
    "specmap": _cmd_specmap, "shock": _cmd_shock, "edge": _cmd_edge,
}


def run(argv=None):
    args = _build_parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        return _COMMANDS[args.command](args, outdir)
    except ConfigurationError as exc:
        _write_json(outdir, "error.json",
                    {"error": str(exc), "kind": "configuration"})
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        _write_json(outdir, "error.json",
                    {"error": str(exc), "kind": "numerical"})
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # last resort: a failure the library did not classify
        _write_json(outdir, "error.json",
                    {"error": f"{type(exc).__name__}: {exc}", "kind": "internal",
                     "traceback": traceback.format_exc()})
        traceback.print_exc()
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
