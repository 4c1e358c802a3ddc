#!/usr/bin/env python3
"""specflow benchmark: time to a checked answer, end to end and per module.

    python3 perfbench/run.py --workload index_flow --seed 1 --seconds 35 --trace 0

Builds nothing: specflow is imported from ``src/`` of the checkout this file
sits in.  One run

1. sets up SETUP_REPEATS times: each time a fresh interpreter imports
   specflow, numpy and scipy and writes the seed's inputs; the median is
   ``setup_s``;
2. runs the workload's fixed task list in whole passes, one task after
   the other, while another pass fits in ``--seconds``;
3. checks every answer against an independent reference (see harness.py);
4. prints every metric by name and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run instead makes an untraced, a traced and another
untraced pass and reports the per-module metrics (see tracer.py and
README.md).  Run
records and traced spans are written to ``.perfbench_out/`` at the root of
the checkout.  Exits 2, printing no result, when the checkout has no
specflow sources.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# seed reserved for confirming a claimed gain; never used while tuning
HELD_OUT_SEED = 1306

# fresh interpreters timed per run; setup_s is their median
SETUP_REPEATS = 5

# the program's entry points: their self time is what no layer span covers
ENTRY_SPANS = ("cli.run", "griddisc.index_estimate")

END_TO_END = [
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("answer_s_p50", "s"),
    ("answer_s_max", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("kernels.transform.calls", "count"),
    ("kernels.transform.self_s", "s"),
    ("kernels.l1_bound.calls", "count"),
    ("kernels.l1_bound.self_s", "s"),
    ("symbols.khat.points", "count"),
    ("symbols.khat.self_s", "s"),
    ("symbols.combine_symbols.calls", "count"),
    ("symbols.family_at.calls", "count"),
    ("charmatrix.delta_eval.calls", "count"),
    ("charmatrix.delta_eval.points", "count"),
    ("charmatrix.delta_eval.self_s", "s"),
    ("charmatrix.axis_margin.calls", "count"),
    ("charmatrix.axis_margin.self_s", "s"),
    ("charmatrix.axis_cutoff.calls", "count"),
    ("flow.margin_evals_per_index", "count"),
    ("charmatrix.is_hyperbolic.calls", "count"),
    ("charmatrix.is_hyperbolic.samples", "count"),
    ("charmatrix.is_hyperbolic.self_s", "s"),
    ("charmatrix.char_eval.calls", "count"),
    ("charmatrix.char_eval.self_s", "s"),
    ("edgebif.diffusive_check.calls", "count"),
    ("edgebif.diffusive_check.self_s", "s"),
    ("edgebif.dispersion_root.calls", "count"),
    ("roots.count_roots.calls", "count"),
    ("roots.count_roots.failed", "count"),
    ("roots.count_roots.self_s", "s"),
    ("roots.locate_roots.calls", "count"),
    ("roots.locate_roots.self_s", "s"),
    ("flow.find_crossings.calls", "count"),
    ("flow.find_crossings.self_s", "s"),
    ("flow.fredholm_index.calls", "count"),
    ("flow.crossings", "count"),
    ("griddisc.assemble.self_s", "s"),
    ("griddisc.assemble_adjoint.self_s", "s"),
    ("griddisc.nullity.calls", "count"),
    ("griddisc.nullity.self_s", "s"),
    ("griddisc.nullity.unreliable", "count"),
    ("griddisc.svd.calls", "count"),
    ("griddisc.svd.s", "s"),
    ("griddisc.svd.gflop_computed", "GFLOP"),
    ("griddisc.matrix_mb_computed", "MB"),
    ("conslaw.shock_profile.self_s", "s"),
    ("conslaw.zero_speed_selection.self_s", "s"),
    ("conslaw.newton_iters", "count"),
    ("conslaw.lstsq.calls", "count"),
    ("conslaw.lstsq.s", "s"),
    ("conslaw.lstsq.gflop_computed", "GFLOP"),
    ("edgebif.edge_scaling.self_s", "s"),
    ("edgebif.edge_eigenvalue.calls", "count"),
    ("edgebif.edge_eigenvalue.self_s", "s"),
    ("edgebif.newton_iters", "count"),
    ("edgebif.lstsq.calls", "count"),
    ("edgebif.lstsq.s", "s"),
    ("edgebif.lstsq.gflop_computed", "GFLOP"),
    ("configio.load_config.self_s", "s"),
    ("configio.from_json.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
]


# dense call groups reported on their own; every other dense call stays in
# the self time of the span that encloses it
SPLIT_LINALG = {name.rpartition(".")[0] for name, _ in PER_LAYER
                if name.split(".")[1] in ("svd", "lstsq")}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full",
                   help="'tiny' shrinks every workload for the self-tests")
    p.add_argument("--prepare", metavar="DIR",
                   help="internal: write the seed's inputs to DIR and exit")
    return p.parse_args(argv)


# -- provenance ----------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout, or None when the checkout is no git repository.

    git may not look above the checkout, so an enclosing repository is
    never reported.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "specflow").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _blas_version():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _provenance(args):
    import numpy
    import scipy
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": _blas_version(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up --------------------------------------------------------------------

def _measure_setup(args, workdir):
    """Median wall time of fresh interpreters that import and write inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--prepare",
               str(workdir / f"prep{k}"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size]
        start = perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    first = _tree_bytes(workdir / "prep0")
    for k in range(1, len(times)):
        if _tree_bytes(workdir / f"prep{k}") != first:
            raise RuntimeError("the same seed produced different inputs")
    return statistics.median(times), times, workdir / "prep0"


def _tree_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


# -- timed phase ---------------------------------------------------------------

def _run_passes(runner, tasks, seconds, max_passes=None, tracer=None):
    """Whole passes over the task list while another pass fits in `seconds`.

    A pass may overrun `seconds` by a tenth; the first pass always runs.
    """
    records = []
    pass_walls = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for task in tasks:
            rec = runner.run(task, tracer)
            rec["pass"] = len(pass_walls)
            records.append(rec)
        pass_walls.append(perf_counter() - pass_start)
        elapsed = perf_counter() - start
        if max_passes is not None and len(pass_walls) >= max_passes:
            break
        if elapsed + elapsed / len(pass_walls) > 1.1 * seconds:
            break
    return records, pass_walls


def _judge(checker, tasks, records):
    """Fill rec["failure"]: None for a checked answer, else the reason."""
    by_id = {t["id"]: t for t in tasks}
    for rec in records:
        rec["failure"] = rec["error"] or checker.check(by_id[rec["id"]], rec["answer"])
    for p in sorted({rec["pass"] for rec in records}):
        in_pass = [r for r in records if r["pass"] == p]
        answers = {r["id"]: r["answer"] for r in in_pass if r["failure"] is None}
        bad = set(checker.cocycle_failures(tasks, answers))
        for rec in in_pass:
            if rec["id"] in bad:
                rec["failure"] = "cocycle identity i01 + i12 = i02 broken"


def _end_to_end(records, pass_walls, setup_s):
    """Medians over every pass: on a shared machine identical work drifts
    between a fast and a slow phase that each last tens of seconds, and a
    median over the timed phase repeats better than the fastest pass."""
    per_task = {}
    for rec in records:
        per_task.setdefault(rec["id"], []).append(rec["seconds"])
    correct = sum(rec["failure"] is None for rec in records)
    return {
        "setup_s": setup_s,
        "answers_per_s": correct / sum(pass_walls),
        "answer_s_p50": statistics.median(rec["seconds"] for rec in records),
        "answer_s_max": max(statistics.median(t) for t in per_task.values()),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(summary, linalg, counters, wall_untraced, wall_traced):
    task_s = summary["task"]["total_s"]
    entry_self_s = sum(summary.get(n, {}).get("self_s", 0.0) for n in ENTRY_SPANS)
    crossings_calls = summary.get("flow.find_crossings", {}).get("calls", 0)
    margin_calls = summary.get("charmatrix.axis_margin", {}).get("calls", 0)
    special = {
        "flow.margin_evals_per_index":
            margin_calls / crossings_calls if crossings_calls else 0.0,
        "trace.overhead_frac": (wall_traced - wall_untraced) / wall_untraced,
        "trace.coverage_frac": 1.0 - entry_self_s / task_s,
    }
    out = {}
    for name, _ in PER_LAYER:
        owner, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif owner in SPLIT_LINALG:
            value = linalg.get(owner, {}).get(field, 0)
        elif name in counters:
            value = counters[name]
        elif field in ("calls", "self_s"):
            value = summary.get(owner, {}).get(field, 0)
        else:
            value = 0
        out[name] = value
    return out


def _save_spans(tracer, path):
    import numpy as np
    name, parent, start, end = tracer.arrays()
    np.savez_compressed(path, names=np.array(tracer.names), name=name,
                        parent=parent, start=start, end=end)


# -- main ----------------------------------------------------------------------

def main(argv=None):
    args = _parse(argv)
    if not (SRC / "specflow" / "__init__.py").is_file():
        print(f"perfbench: no specflow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import specflow
    if Path(specflow.__file__).resolve().parent != (SRC / "specflow").resolve():
        print(f"perfbench: specflow imported from {specflow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        print(f"perfbench: workloads are {workloads.WORKLOADS}, sizes "
              f"{workloads.SIZES}", file=sys.stderr)
        return 2
    configs = SRC / "specflow" / "configs"
    if args.prepare:
        workloads.prepare(args.workload, args.seed, args.size,
                          Path(args.prepare), configs)
        return 0

    from harness import Checker, TaskRunner
    from tracer import Tracer

    prov = _provenance(args)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    spans = None
    try:
        if args.trace:
            taskdir = workdir / "prep"
            workloads.prepare(args.workload, args.seed, args.size, taskdir, configs)
            setup_times = []
        else:
            setup_s, setup_times, taskdir = _measure_setup(args, workdir)
        tasks = json.loads((taskdir / "tasks.json").read_text())["tasks"]
        runner = TaskRunner(taskdir, workdir / "out")
        checker = Checker(taskdir)
        if args.trace:
            # an untraced warm-up pass gives the reference answers; the
            # untraced pass after the traced one gives the overhead base
            base, _ = _run_passes(runner, tasks, 0.0, max_passes=1)
            with Tracer() as tracer:
                records, walls = _run_passes(runner, tasks, 0.0, max_passes=1,
                                             tracer=tracer)
            _, walls_u = _run_passes(runner, tasks, 0.0, max_passes=1)
            _judge(checker, tasks, records)
            for rec, ref in zip(records, base):
                same = json.dumps(rec["answer"], sort_keys=True) == \
                    json.dumps(ref["answer"], sort_keys=True)
                if rec["failure"] is None and not same:
                    rec["failure"] = "traced answer differs from untraced"
            spans = tracer.summary(SPLIT_LINALG)
            metrics = _per_layer(*spans, tracer.counters, walls_u[0], walls[0])
            units = dict(PER_LAYER)
            _save_spans(tracer, OUT / f"spans-{args.workload}-{args.seed}.npz")
        else:
            records, walls = _run_passes(runner, tasks, args.seconds)
            _judge(checker, tasks, records)
            metrics = _end_to_end(records, walls, setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_id = {t["id"]: t for t in tasks}
    failures = [{"id": r["id"], "pass": r["pass"], "reason": r["failure"],
                 "task": by_id[r["id"]]} for r in records if r["failure"]]
    attempted = len(records)
    prov["loadavg_after"] = list(os.getloadavg())
    prov["peak_rss_mb"] = _peak_rss_mb()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{tag}.json", "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "spans": spans,
                   "pass_seconds": walls, "setup_seconds": setup_times,
                   "failures": failures,
                   "task_seconds": [[r["id"], r["pass"], r["seconds"]]
                                    for r in records]}, fh, indent=1)

    print("provenance " + json.dumps(prov, sort_keys=True))
    for f in failures:
        print(f"FAILED {f['id']} (pass {f['pass']}): {f['reason']}")
    print(f"tasks {attempted} in {len(walls)} pass(es), timed phase "
          f"{sum(walls):.3f} s, "
          f"fail_frac {len(failures) / attempted:.4g}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
