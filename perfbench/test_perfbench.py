"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

Runs every workload at tiny size (every check must pass), checks that two
traced runs of one seed give identical counters, that crashes are
contained, that wrong answers are caught, and that the benchmark refuses
to run without specflow's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import numpy as np  # noqa: E402
from harness import Checker, TaskRunner  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("index_flow", "grid_oracle", "newton_apps")


def _bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                          *args], cwd=cwd, capture_output=True, text=True,
                         timeout=600)
    return out


def _result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_every_check(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--size", "tiny",
                         "--seconds", "0.1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    assert set(res["metrics"]) == {m["name"] for m in _manifest()["end_to_end"]}
    for m in _manifest()["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_counters_repeat_exactly():
    runs = [_result(_bench("--workload", "index_flow", "--seed", "5",
                           "--size", "tiny", "--trace", "1")) for _ in range(2)]
    units = {m["name"]: m["unit"] for m in _manifest()["per_layer"]}
    assert set(runs[0]["metrics"]) == set(units)
    counted = [n for n, u in units.items() if u in ("count", "GFLOP", "MB")]
    for res in runs:
        assert res["correct"]
        assert res["metrics"]["trace.coverage_frac"]["value"] >= 0.95
    assert {n: runs[0]["metrics"][n] for n in counted} == \
        {n: runs[1]["metrics"][n] for n in counted}
    assert runs[0]["metrics"]["charmatrix.axis_margin.calls"]["value"] > 0


def test_unreported_linalg_stays_in_the_enclosing_self_time():
    with Tracer() as tracer:
        with tracer.span("charmatrix.char_eval"):
            np.linalg.svd(np.eye(200))
    kept, linalg = tracer.summary(split_linalg={"griddisc.svd"})
    split, _ = tracer.summary(split_linalg={"charmatrix.svd"})
    span = kept["charmatrix.char_eval"]
    assert span["self_s"] == span["total_s"]
    assert linalg["charmatrix.svd"]["calls"] == 1
    assert split["charmatrix.char_eval"]["self_s"] == pytest.approx(
        span["total_s"] - linalg["charmatrix.svd"]["s"])


def test_manifest_matches_the_runner():
    man = _manifest()
    assert man["paths"] == ["perfbench"]
    assert [(m["name"], m["unit"]) for m in man["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in man["per_layer"]] == bench.PER_LAYER
    assert [w["name"] for w in man["workloads"]] == list(WORKLOADS)


def test_crashes_are_counted_not_raised(tmp_path):
    shutil.copyfile(ROOT / "src/specflow/configs/shock_scalar.json",
                    tmp_path / "shock.json")
    runner = TaskRunner(tmp_path, tmp_path / "out")
    bad_eps = runner.run({"id": "bad_eps", "kind": "cli",
                          "argv": ["shock", "--config", "shock.json", "--eps", "1"]})
    assert bad_eps["answer"] is None
    assert bad_eps["error"].startswith("raised ValueError")
    bad_argv = runner.run({"id": "bad_argv", "kind": "cli",
                           "argv": ["shock", "--config", "shock.json", "--nope"]})
    assert bad_argv["error"].startswith("raised SystemExit")
    missing = runner.run({"id": "missing", "kind": "cli",
                          "argv": ["index", "--config", "absent.json"]})
    assert missing["error"].startswith("exit 2")


def test_checks_reject_wrong_answers(tmp_path):
    pair = {"s_minus": {"n": 1, "eta": 1.0, "shifts": [{"xi": 0.0, "A": [[-1.0]]}]},
            "s_plus": {"n": 1, "eta": 1.0, "shifts": [{"xi": 0.0, "A": [[1.0]]}]}}
    (tmp_path / "pair.json").write_text(json.dumps(pair))
    checker = Checker(tmp_path)
    task = {"id": "p", "check": {"type": "winding_index", "config": "pair.json"}}
    assert checker.check(task, {"index": -1}) is None
    assert checker.check(task, {"index": 1}) is not None
    grid = {"id": "g", "check": {"type": "grid_index", "index": -2}}
    assert checker.check(grid, {"index": -2, "reliable": True, "gap": 1e6}) is None
    assert checker.check(grid, {"index": -2, "reliable": False, "gap": 10.0})
    zs = {"id": "z", "check": {"type": "zero_speed", "eps": 1e-3}}
    good = {"M": math.sqrt(math.pi) / 2, "a_j0": 4.4e-4, "b_j0": -4.4e-4}
    assert checker.check(zs, good) is None
    assert checker.check(zs, dict(good, a_j0=8.8e-4)) is not None
    tri = [{"id": f"t{p}", "check": {"type": "winding_index", "cocycle": [0, p]}}
           for p in ("01", "12", "02")]
    answers = {"t01": {"index": 1}, "t12": {"index": -1}, "t02": {"index": 1}}
    assert checker.cocycle_failures(tri, answers) == ["t02"]


def test_shipped_configs_wind_to_documented_indices():
    cfg = json.loads((ROOT / "src/specflow/configs/mult2_pair.json").read_text())
    assert oracles.winding_index(oracles.limit_from_config(cfg["s_minus"]),
                                 oracles.limit_from_config(cfg["s_plus"])) == -2
    assert abs(oracles.shallow_well_lambda(0.04) / 0.04 ** 2 - math.pi / 4) < 0.1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "index_flow", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
