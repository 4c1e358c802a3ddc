"""Seeded inputs of the benchmark's workloads.

`prepare(workload, seed, size, outdir, configs_dir)` turns a seed into a
fixed task list and writes it, with every JSON config the tasks read, to
`outdir`.  The same seed always gives byte-identical files.  A task is one
call into specflow that yields one answer:

* ``{"kind": "cli", "argv": [...]}`` runs ``specflow.cli.run(argv + ["--out", dir])``;
  config paths in argv are relative to `outdir`;
* ``{"kind": "grid", "symbol": ..., "gamma": [g_minus, g_plus], "grid": [L, h]}``
  runs ``specflow.griddisc.index_estimate`` on one of the named symbols.

Each task carries a ``check`` entry naming its independent check (see
harness.py) and the data that check needs.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
from specflow.charmatrix import is_hyperbolic
from specflow.configio import symbol_from_json

from oracles import delta_at_zero

WORKLOADS = ("index_flow", "grid_oracle", "newton_apps")
SIZES = ("full", "tiny")

# symbols of the grid-oracle tasks; weights enter as two-sided gammas
GRID_SYMBOLS = {
    # one simple imaginary-axis root at nu = 0 (criterion 06)
    "simple": {"n": 1, "eta": 1.9,
               "kernel": {"family": "exponential", "a": 2.0, "M": [[1.0]]},
               "shifts": [{"xi": 0.0, "A": [[-1.0]]}]},
    # 2x2 with one axis root of multiplicity two
    "nilpotent": {"n": 2, "eta": 2.0,
                  "shifts": [{"xi": 0.0, "A": [[0.0, 1.0], [0.0, 0.0]]}]},
}


def _symbol_json(n, a, M, A, eta):
    return {"n": n, "eta": eta,
            "kernel": {"family": "exponential", "a": a, "M": M.tolist()},
            "shifts": [{"xi": 0.0, "A": A.tolist()}]}


def _random_limit(rng, n, max_tries=60):
    """A hyperbolic symbol from the distributions of tests/conftest.py."""
    for _ in range(max_tries):
        if n == 1:
            a = rng.uniform(1.8, 3.5)
            M = np.array([[rng.uniform(-1.5, 1.5)]])
            A = np.array([[rng.uniform(-2.0, 2.0)]])
        else:
            a = rng.uniform(1.8, 3.0)
            M = rng.uniform(-0.8, 0.8, (2, 2))
            A = rng.uniform(-1.2, 1.2, (2, 2))
        spec = _symbol_json(n, float(a), M, A, float(min(1.5, 0.9 * a)))
        if is_hyperbolic(symbol_from_json(spec)).hyperbolic:
            return spec
    raise RuntimeError("no hyperbolic sample found")


def _write(outdir, name, payload):
    with open(outdir / name, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return name


def _copy_shipped(configs_dir, outdir, name):
    shutil.copyfile(Path(configs_dir) / name, outdir / name)
    return name


def _index_flow(rng, size, outdir, configs_dir):
    tasks = []
    triples = 3 if size == "full" else 1
    for k in range(triples):
        n = 1 if k % 2 == 0 else 2
        limits = [_random_limit(rng, n) for _ in range(3)]
        for i, j in ((0, 1), (1, 2), (0, 2)):
            cfg = _write(outdir, f"pair{k}_{i}{j}.json",
                         {"s_minus": limits[i], "s_plus": limits[j]})
            tasks.append({"id": f"pair{k}_{i}{j}", "kind": "cli",
                          "argv": ["index", "--config", cfg],
                          "check": {"type": "winding_index", "config": cfg,
                                    "cocycle": [k, f"{i}{j}"]}})

    cfg = _copy_shipped(configs_dir, outdir, "tanh_scalar.json")
    tasks.append({"id": "tanh_flow", "kind": "cli",
                  "argv": ["flow", "--config", cfg],
                  "check": {"type": "documented_index", "index": -1}})
    cfg = _copy_shipped(configs_dir, outdir, "mult2_pair.json")
    tasks.append({"id": "mult2_index", "kind": "cli",
                  "argv": ["index", "--config", cfg],
                  "check": {"type": "winding_index", "config": cfg,
                            "documented": -2}})

    # one node of the window sits on an essential-spectrum point of the
    # minus limit: nu = 0 is a root of Delta(0) - lambda* I
    cfg = _copy_shipped(configs_dir, outdir, "neuralfield.json")
    with open(outdir / cfg) as fh:
        minus = json.load(fh)["limits"]["minus"]
    eig = np.linalg.eigvals(delta_at_zero(minus))
    lam = float(max(e.real for e in eig if abs(e.imag) < 1e-12))
    height = rng.uniform(0.1, 0.3)
    argv = ["specmap", "--config", cfg, f"--re={lam!r}:{lam!r}:1",
            f"--im={-height!r}:{height!r}:3"]
    tasks.append({"id": "neuralfield_specmap", "kind": "cli", "argv": argv,
                  "check": {"type": "specmap", "config": cfg,
                            "anchor": [lam, 0.0]}})
    return tasks


def _grid_oracle(rng, size, outdir, configs_dir):
    grid = [30.0, 0.05] if size == "full" else [15.0, 0.1]
    tasks = []
    # several n = 1 answers per pass, because the n = 2 one takes half the
    # run and a pass seldom fits twice
    for k, g in enumerate(rng.uniform(0.1, 0.25, 2)):
        for sign, expect in ((1, -1), (-1, 1)):
            tasks.append({"id": f"simple{k}_{'up' if sign > 0 else 'down'}",
                          "kind": "grid", "symbol": "simple",
                          "gamma": [-sign * float(g), sign * float(g)],
                          "grid": grid,
                          "check": {"type": "grid_index", "index": expect}})
    g = float(0.35 + rng.uniform(-0.03, 0.03))
    tasks.append({"id": "nilpotent", "kind": "grid", "symbol": "nilpotent",
                  "gamma": [-g, g], "grid": grid,
                  "check": {"type": "grid_index", "index": -2}})
    return tasks


def _newton_apps(rng, size, outdir, configs_dir):
    tasks = []
    shocks, zero_speed = (3, 2) if size == "full" else (1, 1)
    cfg = _copy_shipped(configs_dir, outdir, "shock_scalar.json")
    for k in range(shocks):
        eps = float(rng.uniform(1e-3, 4e-3))
        tasks.append({"id": f"shock{k}", "kind": "cli",
                      "argv": ["shock", "--config", cfg, "--eps", repr(eps)],
                      "check": {"type": "shock_jump", "config": cfg, "eps": eps}})
    cfg = _copy_shipped(configs_dir, outdir, "shock_zero_speed.json")
    for k in range(zero_speed):
        eps = float(rng.uniform(1e-3, 4e-3))
        tasks.append({"id": f"zero_speed{k}", "kind": "cli",
                      "argv": ["shock", "--config", cfg, "--eps", repr(eps)],
                      "check": {"type": "zero_speed", "eps": eps}})
    cfg = _copy_shipped(configs_dir, outdir, "schrodinger_well.json")
    npts = 3 if size == "full" else 2
    eps_list = sorted((float(e) for e in rng.uniform(0.01, 0.04, npts)),
                      reverse=True)
    tasks.append({"id": "edge_sweep", "kind": "cli",
                  "argv": ["edge", "--config", cfg,
                           "--eps", ",".join(repr(e) for e in eps_list)],
                  "check": {"type": "edge", "config": cfg, "eps": eps_list}})
    return tasks


_BUILDERS = {"index_flow": _index_flow, "grid_oracle": _grid_oracle,
             "newton_apps": _newton_apps}


def prepare(workload, seed, size, outdir, configs_dir):
    """Write tasks.json and the task configs for one seed into outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    tasks = _BUILDERS[workload](rng, size, outdir, configs_dir)
    _write(outdir, "tasks.json", {"workload": workload, "seed": seed,
                                  "size": size, "tasks": tasks})
    return tasks
