"""Run benchmark tasks through specflow's public entry points and check them.

`TaskRunner.run` makes one call per task (``specflow.cli.run`` or
``specflow.griddisc.index_estimate``), times only that call, and then reads
the answer back.  Anything the call raises, a non-zero exit code and a
missing result all count as a failed answer; the run goes on.  `Checker`
compares each answer against the references in oracles.py.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
from workloads import GRID_SYMBOLS

SQRT_PI_HALF = math.sqrt(math.pi) / 2.0


class TaskRunner:
    """Executes tasks whose configs live in `taskdir`, writing under `outroot`."""

    def __init__(self, taskdir, outroot):
        from specflow import cli, configio, griddisc
        self._cli = cli
        self._griddisc = griddisc
        self.taskdir = Path(taskdir)
        self.outroot = Path(outroot)
        # symbols and grids of API tasks are built once, outside the timing
        self._symbols = {name: configio.symbol_from_json(spec, name)
                         for name, spec in GRID_SYMBOLS.items()}

    def _argv(self, task, outdir):
        argv = list(task["argv"])
        k = argv.index("--config")
        argv[k + 1] = str(self.taskdir / argv[k + 1])
        return argv + ["--out", str(outdir)]

    def run(self, task, tracer=None):
        """One task: returns {"id", "seconds", "answer", "error"}."""
        outdir = self.outroot / task["id"]
        if task["kind"] == "cli":
            outdir.mkdir(parents=True, exist_ok=True)
            for stale in ("result.json", "error.json", "specmap.csv"):
                (outdir / stale).unlink(missing_ok=True)
            argv = self._argv(task, outdir)
        else:
            sym = self._symbols[task["symbol"]]
            grid = self._griddisc.Grid(L=task["grid"][0], h=task["grid"][1])
            gm, gp = task["gamma"]
        span = tracer.span("task") if tracer is not None else nullcontext()
        error = None
        result = None
        start = perf_counter()
        try:
            with span:
                if task["kind"] == "cli":
                    result = self._cli.run(argv)
                else:
                    result = self._griddisc.index_estimate(sym, grid, gm, gp)
        except (Exception, SystemExit) as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        answer = None
        if error is None:
            if task["kind"] == "cli":
                answer, error = _read_cli_answer(task, outdir, result)
            else:
                idx, nf, na = result
                answer = {"index": int(idx), "dims": [nf.dim, na.dim],
                          "reliable": bool(nf.reliable and na.reliable),
                          "gap": float(min(nf.gap, na.gap))}
        return {"id": task["id"], "seconds": seconds, "answer": answer,
                "error": error}


def _read_cli_answer(task, outdir, rc):
    if rc != 0:
        try:
            report = (outdir / "error.json").read_text()
        except OSError:
            report = "no error.json"
        return None, f"exit {rc}: {report.strip()}"
    try:
        answer = json.loads((outdir / "result.json").read_text())
        if task["argv"][0] == "specmap":
            with open(outdir / "specmap.csv", newline="") as fh:
                answer["rows"] = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return None, f"unreadable result: {exc}"
    return answer, None


class Checker:
    """Independent checks of task answers; references are cached per task."""

    def __init__(self, taskdir):
        self.taskdir = Path(taskdir)
        self._refs = {}

    def _config(self, name):
        with open(self.taskdir / name) as fh:
            return json.load(fh)

    def _ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def check(self, task, answer):
        """None when the answer passes, otherwise the reason it fails."""
        kind = task["check"]["type"]
        try:
            return getattr(self, "_check_" + kind)(task, task["check"], answer)
        except oracles.OracleError as exc:
            return f"reference unavailable: {exc}"
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed answer: {type(exc).__name__}: {exc}"

    def _check_winding_index(self, task, chk, answer):
        def ref():
            cfg = self._config(chk["config"])
            return oracles.winding_index(oracles.limit_from_config(cfg["s_minus"]),
                                         oracles.limit_from_config(cfg["s_plus"]))
        want = self._ref(task["id"], ref)
        if answer["index"] != want:
            return f"index {answer['index']} != axis winding {want}"
        if "documented" in chk and answer["index"] != chk["documented"]:
            return f"index {answer['index']} != documented {chk['documented']}"
        return None

    def _check_documented_index(self, task, chk, answer):
        if answer["index"] != chk["index"]:
            return f"index {answer['index']} != documented {chk['index']}"
        return None

    def _check_specmap(self, task, chk, answer):
        limits = self._config(chk["config"])["limits"]
        anchor = complex(*chk["anchor"])
        saw_anchor = False
        for row in answer["rows"]:
            lam = complex(float(row["re_lambda"]), float(row["im_lambda"]))
            hyp = row["hyp_minus"] == "1" and row["hyp_plus"] == "1"
            if lam == anchor:
                saw_anchor = True
                if row["hyp_minus"] != "0":
                    return f"anchored node {lam} reported hyperbolic"
            if not hyp:
                continue
            if row["index"] == "":
                return f"no index at hyperbolic node {lam}"

            def ref(lam=lam):
                return oracles.winding_index(
                    oracles.limit_from_config(limits["minus"], lam),
                    oracles.limit_from_config(limits["plus"], lam))
            want = self._ref((task["id"], lam), ref)
            if int(row["index"]) != want:
                return f"index {row['index']} at {lam} != axis winding {want}"
        if not saw_anchor:
            return "anchored node missing from the map"
        if not answer["borders"]:
            return "no essential-spectrum border found next to the anchor"
        return None

    def _check_grid_index(self, task, chk, answer):
        if not answer["reliable"]:
            return f"flagged unreliable (gap {answer['gap']:.2e})"
        if answer["index"] != chk["index"]:
            return f"index {answer['index']} != analytic {chk['index']}"
        return None

    def _check_shock_jump(self, task, chk, answer):
        J = self._ref(task["id"], lambda: oracles.shock_jump_leading_order(
            self._config(chk["config"])))
        got = np.asarray(answer["jump"]) / chk["eps"]
        rel = float(np.max(np.abs(got - J)) / np.max(np.abs(J)))
        if not rel <= 0.01:
            return f"jump/eps off leading order by {rel:.2e} (> 1%)"
        return None

    def _check_zero_speed(self, task, chk, answer):
        if not abs(answer["M"] - SQRT_PI_HALF) <= 1e-10:
            return f"M = {answer['M']!r} != sqrt(pi)/2"
        rel = abs((answer["a_j0"] - answer["b_j0"]) / chk["eps"] - SQRT_PI_HALF) \
            / SQRT_PI_HALF
        if not rel <= 0.03:
            return f"(a - b)/eps off M by {rel:.2e} (> 3%)"
        return None

    def _check_edge(self, task, chk, answer):
        if not abs(answer["M_squared"] - math.pi / 4) <= 1e-10:
            return f"M^2 = {answer['M_squared']!r} != pi/4"
        V = self._config(chk["config"])["perturbation"]["V"]

        def ref():
            return [oracles.shallow_well_lambda(
                eps, float(V.get("amplitude", 1.0)), float(V.get("width", 1.0)))
                for eps in chk["eps"]]
        want = self._ref(task["id"], ref)
        got = [row[1] for row in answer["rows"]]
        if len(got) != len(want):
            return f"{len(got)} sweep rows for {len(want)} eps values"
        for eps, lam, ref_lam in zip(chk["eps"], got, want):
            rel = abs(lam - ref_lam) / ref_lam
            if not rel <= 0.05:
                return f"lambda({eps}) off the shooting oracle by {rel:.2e} (> 5%)"
        return None

    def cocycle_failures(self, tasks, answers):
        """Ids of i02 tasks whose triple breaks i01 + i12 = i02."""
        by_triple = {}
        for task in tasks:
            co = task["check"].get("cocycle")
            if co is not None and answers.get(task["id"]) is not None:
                by_triple.setdefault(co[0], {})[co[1]] = (
                    task["id"], answers[task["id"]]["index"])
        bad = []
        for parts in by_triple.values():
            if len(parts) == 3 and parts["01"][1] + parts["12"][1] != parts["02"][1]:
                bad.append(parts["02"][0])
        return bad
