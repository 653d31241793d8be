"""Pipeline benchmark for snapgrid: the CLI run the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # both workloads in turn

Run it from the root of a checkout; it puts ``src`` on the children's
``PYTHONPATH`` and works in ``.perfbench_runs/``, which it removes again.

Each stage is a fresh ``python3 -m snapgrid.cli <stage>`` process with the
default ``--jobs 1``, started only after the previous one exited: a
single-client closed loop on one core of the machine. The benchmark
measures from outside the program. Per stage process it takes the wall
time from spawn to exit and the peak RSS that ``os.wait4`` reports for that
one child (``RUSAGE_CHILDREN`` would be a running maximum over all
children).

``--trace 0`` runs ``synth`` ``SETUP_REPEATS`` times (the set-up), then the
workload's whole stage sequence, each stage followed by one reference
process (see ``REFERENCE``), again and again for about ``--seconds`` (the
last pipeline ends within half a pipeline of the target), and prints the
end-to-end metrics as medians over those pipelines:

    setup_s              wall time of one synth, at reference speed (median of the set-ups)
    setup_rss_mb         peak RSS of the synth process (median of the set-ups)
    pipeline_ref_s       sum of the stage processes' wall times, at reference speed
    records_per_ref_s    corpus records / pipeline_ref_s
    peak_rss_mb          highest peak RSS of any stage process
    disk_mb              bytes the stages left in the run directory

"At reference speed" is the wall time divided by the mean time of the
reference processes (the pipeline's; for the set-ups, the run's) over
``REFERENCE_S``: the time the work would take on a host that runs the
reference in ``REFERENCE_S``. The raw wall times and every stage's wall
and CPU time are in the detail line.

``--trace 1`` runs one traced ``synth``, one untraced pipeline and then one
traced pipeline through ``traced_stage.py``, and prints the per-layer
metrics: self times, call counts and work counts of each module's public
functions, summed over the stage processes.

Every stage invocation is checked (``checks.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the provenance and
the raw samples behind every median.

Which layer should move which end-to-end metric, on which workload:

    layer       moves                                  expected on
    cli         startup: pipeline_ref_s                 rule_sweep (16 processes on a small corpus)
                self: pipeline_ref_s                    paper_stages, rule_sweep
    records     pipeline_ref_s, peak_rss_mb, disk_mb    paper_stages (reads), rule_sweep (writes)
    voting      pipeline_ref_s                          rule_sweep
    geo         pipeline_ref_s                          paper_stages
    spatial     pipeline_ref_s                          paper_stages
    temporal    bucketing: pipeline_ref_s               paper_stages
                clustering: pipeline_ref_s              rule_sweep (fixed cost, larger share)
    annotation  pipeline_ref_s (fixed cost)             rule_sweep (larger share)
    regression  none expected                           (fixed 130-row fit)
    synth       setup_s, setup_rss_mb                   largest on paper_stages

rule_sweep's corpus is a quarter of paper_stages' per city, so fixed
per-process and per-stage costs are most of its time and records-layer
reads are a small share; its six extra classify runs make the vote and the
JSONL writes of classify its largest per-record work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

SETUP_REPEATS = 3
# The host's speed drifts by 10-20% over minutes, and a run of under a
# minute cannot average that out. So the time metrics are reported at
# reference speed, using a reference process that runs none of the
# program: Python start-up and the import of the program's third-party
# stack, most of a small stage's time. Every stage of a measured pipeline
# is followed by one. Over 12 minutes of alternating reference and stage
# processes on a 2-vCPU Xeon host, the wall time of 30-45 s windows of
# stages spread 11-16% (IQR/median) from window to window, and its ratio to
# the window's mean reference time 5-7%. A lighter reference (importing
# numpy and scipy.linalg only, 0.5 s) tracked the stages worse: in one
# stretch it ran 20% faster while the stages did not. A single stage is
# steadied much less (21% to 17%), so no per-stage time is an end-to-end
# metric.
REFERENCE = "import csv, json, zoneinfo, numpy, scipy.linalg, scipy.stats, yaml"
REFERENCE_S = 1.3  # about the reference's median wall time on that host
# A run must end within 180 s; stop starting work well before that.
RUN_BUDGET_S = 165.0

PAPER_STAGES = tuple(
    (s,) for s in ("grid", "ingest", "annotate", "classify", "extent",
                   "spatial", "temporal", "cluster", "regress", "report")
)
# The paper's 7 voting rules, majority last so that the downstream stages
# read the default labels. Every stage runs at least once, so every
# per-layer time is measured on every workload.
SWEEP_STAGES = (
    PAPER_STAGES[:3]
    + (("classify", "--rule", "single"),)
    + tuple(("classify", "--rule", "threshold", "--threshold", str(p)) for p in (10, 30, 50, 70, 90))
    + (("classify", "--rule", "majority"),)
    + PAPER_STAGES[4:]
)


@dataclass(frozen=True)
class Workload:
    name: str
    cities: int
    records: int  # per city
    stages: tuple
    # Check the planted night uplift and tile-law family; needs the spatial
    # and temporal stages and enough records to have the statistical power.
    recovery: bool = False

    @property
    def corpus(self) -> int:
        return self.cities * self.records


# Every CLI process pays 1-2 s of interpreter and import start-up on two
# cores, so the corpora are sized for one pipeline with its reference
# processes in 25-40 s; at paper scale (10 x 30k records) one pipeline
# alone takes about 70 s. At 3k records per city the planted tile-law
# family won fewer than half the cities on 2 of 5 seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_stages", 10, 4_000, PAPER_STAGES, recovery=True),
        Workload("rule_sweep", 10, 1_000, SWEEP_STAGES),
    )
}

END_TO_END = {
    "setup_s": "s",
    "setup_rss_mb": "MB",
    "pipeline_ref_s": "s",
    "records_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
}

STAGE_NAMES = ("synth",) + tuple(s[0] for s in PAPER_STAGES)

# name -> unit; "s" metrics are self times unless the name says otherwise.
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.load_config.s": "s",
    "cli.load_config.calls": "count",
    "cli.write_json.s": "s",
    **{f"cli.stage.{s}.s": "s" for s in STAGE_NAMES},
    **{f"cli.stage.{s}.rss_mb": "MB" for s in STAGE_NAMES},
    "records.parse_snaps.s": "s",
    "records.parse_snaps.calls": "count",
    "records.parse_snaps.records": "count",
    "records.parse_snaps.failures": "count",
    "records.parse_snaps.mb": "MB",
    "records.write_snaps.s": "s",
    "records.write_snaps.calls": "count",
    "records.write_snaps.records": "count",
    "records.write_snaps.mb": "MB",
    "records.to_local_time.s": "s",
    "records.to_local_time.calls": "count",
    "records.filter_active.s": "s",
    "voting.classify_scores.s": "s",
    "voting.classify_scores.calls": "count",
    "voting.frames": "count",
    "voting.evaluate.s": "s",
    "voting.extent.s": "s",
    "geo.locate.s": "s",
    "geo.locate.calls": "count",
    "geo.build_grid.s": "s",
    "geo.build_grid.calls": "count",
    "spatial.tile_counts.s": "s",
    "spatial.tile_counts.calls": "count",
    "spatial.out_of_grid": "count",
    "spatial.compare_fits.s": "s",
    "spatial.compare_fits.calls": "count",
    "spatial.heatmap_export.s": "s",
    "spatial.heatmap_export.rows": "count",
    "temporal.hourly_profile.s": "s",
    "temporal.week_vectors.s": "s",
    "temporal.kmeans.s": "s",
    "temporal.kmeans.calls": "count",
    "temporal.kmeans.iterations": "count",
    "temporal.silhouette.s": "s",
    "temporal.elbow_curve.s": "s",
    "temporal.embed_2d.s": "s",
    "annotation.load_annotations_csv.s": "s",
    "annotation.load_annotations_csv.items": "count",
    "annotation.fleiss_kappa.s": "s",
    "annotation.adjudicate.s": "s",
    "regression.load_city_stats.s": "s",
    "regression.regression_report.s": "s",
    "synth.gen_corpus.s": "s",
    "synth.gen_corpus.records": "count",
    "synth.gen_annotations.s": "s",
    "synth.gen_regression_cities.s": "s",
    "synth.write_s": "s",
    # Traced stage wall time = cli.startup_s + cli.self_s + every layer's
    # self time + trace.remainder_s (tracer set-up, span writing, exit).
    "trace.stage_wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class StageRun:
    argv: tuple
    dir: Path
    wall_s: float = 0.0
    cpu_s: float = 0.0  # user + system time of the child
    rss_mb: float = 0.0
    exit: Optional[int] = None  # None: killed by SIGKILL (the run deadline)
    output: Optional[bytes] = None
    trace: Optional[dict] = None
    problems: list = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def failed(self) -> bool:
        return self.exit != 0 or bool(self.problems)


@dataclass
class Pipeline:
    dir: Path
    stages: list = field(default_factory=list)
    wall_s: float = 0.0  # sum of the stage processes' wall times
    disk_mb: float = 0.0
    reference_s: list = field(default_factory=list)


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(run: StageRun, cli_args: list, deadline: Deadline, trace_path: Optional[Path]) -> None:
    """Run one stage process to completion and record its wall time and peak RSS."""
    log = run.dir.parent / f"{run.dir.name}.{run.name}.stderr"
    t0 = time.monotonic()
    if trace_path is None:
        cmd = [sys.executable, "-m", "snapgrid.cli"] + cli_args
    else:
        cmd = [sys.executable, str(HERE / "traced_stage.py"), str(trace_path), repr(t0)] + cli_args
    with open(log, "ab") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
    lock = threading.Lock()
    reaped = False

    def kill():
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(deadline.left(), 1.0), kill)
    timer.start()
    try:
        # Wait without reaping, so no signal can reach a recycled pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        run.wall_s = time.monotonic() - t0
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)  # interrupted: never leave the child running
        raise
    finally:
        with lock:
            reaped = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    run.rss_mb = usage.ru_maxrss * 1024 / 1e6
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.exit = None if proc.returncode == -signal.SIGKILL else proc.returncode
    if run.exit != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] or ["(no stderr)"]
        run.problems.append(f"exit {run.exit}: {tail[0]}")
    if trace_path is not None and trace_path.exists():
        run.trace = json.loads(trace_path.read_text())


def run_synth(w: Workload, seed: int, out: Path, deadline: Deadline, traced: bool) -> StageRun:
    out.mkdir(parents=True)
    argv = ("synth", "--seed", str(seed), "--out-dir", str(out),
            "--cities", str(w.cities), "--records", str(w.records))
    run = StageRun(argv, out)
    spawn(run, list(argv), deadline, out.parent / f"{out.name}.synth.trace" if traced else None)
    return run


def _files(d: Path) -> dict:
    return {p.name: p.stat().st_size for p in d.iterdir() if p.is_file()}


def run_reference(deadline: Deadline) -> float:
    """Wall time of one reference process."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", REFERENCE], cwd=ROOT, stdout=subprocess.DEVNULL,
                   check=True, timeout=max(deadline.left(), 1.0))
    return time.monotonic() - t0


def run_pipeline(w: Workload, setup: Path, out: Path, deadline: Deadline, traced: bool,
                 reference: bool = False) -> Pipeline:
    """Run the workload's stages on a fresh copy of the synth inputs in ``out``.

    With ``reference``, a reference process follows every stage.
    """
    out.mkdir(parents=True)
    for name in checks.SYNTH_FILES:
        shutil.copyfile(setup / name, out / name)
    inputs = set(_files(out))
    config = str(out / "pipeline.yaml")
    pipe = Pipeline(out)
    for i, argv in enumerate(w.stages):
        run = StageRun(argv, out)
        trace_path = out.parent / f"{out.name}.{i:02d}.{argv[0]}.trace" if traced else None
        spawn(run, [argv[0], "--config", config, *argv[1:]], deadline, trace_path)
        output = out / checks.STAGE_OUTPUT[run.name]
        run.output = output.read_bytes() if run.exit == 0 and output.exists() else None
        pipe.stages.append(run)
        if run.exit != 0:
            break
        if reference:
            pipe.reference_s.append(run_reference(deadline))
    pipe.wall_s = sum(st.wall_s for st in pipe.stages)
    pipe.disk_mb = sum(size for name, size in _files(out).items() if name not in inputs) / 1e6
    return pipe


def run_measured(w, setup_dir, work, seconds, deadline, planted) -> list:
    """Pipelines with reference processes for about ``seconds`` (at least one).

    Another pipeline starts only if the measured time would then end
    nearer to ``seconds`` than it is now.
    """
    pipes = []
    start = time.monotonic()
    while True:
        pipe = run_pipeline(w, setup_dir, work / f"run{len(pipes)}", deadline, traced=False,
                            reference=True)
        checks.check_pipeline(pipe, planted, w.recovery)
        if pipes:
            checks.compare_runs(pipes[0], pipe)
        pipes.append(pipe)
        measured = time.monotonic() - start
        if any(st.failed for st in pipe.stages) or measured + measured / len(pipes) / 2 >= seconds \
                or deadline.left() < 1.5 * measured / len(pipes):
            return pipes


def _median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end(w: Workload, setups: list, pipes: list) -> tuple[dict, dict]:
    # A pipeline's wall time over how much slower than REFERENCE_S the host
    # ran the reference during it; the set-ups use every reference of the run.
    at_ref = [p.wall_s * REFERENCE_S / statistics.mean(p.reference_s) for p in pipes]
    setup_slowdown = statistics.mean(t for p in pipes for t in p.reference_s) / REFERENCE_S
    samples = {
        "setup_s": [s.wall_s / setup_slowdown for s in setups],
        "setup_rss_mb": [s.rss_mb for s in setups],
        "pipeline_ref_s": at_ref,
        "records_per_ref_s": [w.corpus / t for t in at_ref],
        "peak_rss_mb": [max(st.rss_mb for st in p.stages) for p in pipes],
        "disk_mb": [p.disk_mb for p in pipes],
    }
    raw = {
        "setup_wall_s": [s.wall_s for s in setups],
        "pipeline_wall_s": [p.wall_s for p in pipes],
        "reference_s": [p.reference_s for p in pipes],
    }
    return {k: _median(v) for k, v in samples.items()}, {**samples, **raw}


def _add(out: dict, key: str, value: float) -> None:
    out[key] = out.get(key, 0) + value


def per_layer(synth: StageRun, traced: Pipeline, untraced: list) -> tuple[dict, dict]:
    """Sum the traced processes' spans into per-function self times and counts."""
    m: dict = {}
    layer_self: dict = {}
    for run in [synth] + traced.stages:
        _add(m, f"cli.stage.{run.name}.s", run.wall_s)
        key = f"cli.stage.{run.name}.rss_mb"
        m[key] = max(m.get(key, 0.0), run.rss_mb)
        t = run.trace
        if t is None:
            continue
        for name, start, end, _parent, child_s in t["spans"]:
            self_s = end - start - child_s
            if name.startswith("stage."):
                name = "cli.self"
            if run.name == "synth":
                if name != "cli.self":
                    _add(m, f"{name}_s" if name == "synth.write" else f"{name}.s", self_s)
                continue
            if name == "cli.self":
                _add(m, "cli.self_s", self_s)
            else:
                _add(m, f"{name}.s", self_s)
                _add(m, f"{name}.calls", 1)
            _add(layer_self, name.split(".")[0], self_s)
        for name, (calls, seconds) in t["hot"].items():
            _add(m, f"{name}.s", seconds)
            _add(m, f"{name}.calls", calls)
            _add(layer_self, name.split(".")[0], seconds)
        for name, value in t["counts"].items():
            _add(m, name, value)
        if run.name != "synth":
            startup = t["t_import"] - t["t_spawn"]
            _add(m, "cli.startup_s", startup)
            _add(m, "trace.stage_wall_s", run.wall_s)
            _add(m, "trace.remainder_s", run.wall_s - startup - sum(
                end - start for name, start, end, parent, _c in t["spans"] if parent is None))
    m["trace.overhead_s"] = traced.wall_s - _median([p.wall_s for p in untraced])
    metrics = {name: float(m.get(name, 0)) for name in PER_LAYER}
    return metrics, {"all": m, "layer_self_s": layer_self}


def provenance(w: Workload, seed: int, seconds: int, trace: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():  # a bare checkout has no commit; never ask a parent repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for p in sorted((SRC / "snapgrid").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cities": w.cities,
        "records_per_city": w.records,
        "corpus_records": w.corpus,
        "stages": [" ".join(s) for s in w.stages],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(w: Workload, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns the result object and its details."""
    deadline = Deadline(RUN_BUDGET_S)
    detail = {"provenance": provenance(w, seed, seconds, trace)}
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        setups = []
        for k in range(1 if trace else SETUP_REPEATS):
            setups.append(run_synth(w, seed, work / f"setup{k}", deadline, traced=bool(trace)))
            if setups[-1].exit != 0:
                break
        checks.compare_setups(setups)

        def ran(p):
            return p is not None and len(p.stages) == len(w.stages) and all(st.exit == 0 for st in p.stages)

        pipes: list = []
        traced = planted = None
        if setups[-1].exit == 0:
            try:
                planted = checks.Planted(json.loads((setups[0].dir / "manifest.json").read_text()))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                setups[0].problems.append(f"unreadable manifest: {exc!r}")
        if planted is not None:
            if not trace:
                pipes = run_measured(w, setups[0].dir, work, seconds, deadline, planted)
            else:
                # One untraced pipeline for trace.overhead_s.
                pipes = [run_pipeline(w, setups[0].dir, work / "run0", deadline, traced=False)]
                checks.check_pipeline(pipes[0], planted, w.recovery)
            if trace and ran(pipes[-1]):
                traced = run_pipeline(w, setups[0].dir, work / "traced", deadline, traced=True)
                checks.check_pipeline(traced, planted, w.recovery)
                checks.compare_runs(pipes[0], traced)
        runs = setups + [st for p in pipes + [traced] if p is not None for st in p.stages]
        failed = sum(r.failed for r in runs)
        detail["problems"] = [f"{' '.join(r.argv)}: {msg}" for r in runs for msg in r.problems]
        detail["failed_frac"] = failed / len(runs)
        detail["stage_wall_cpu_s"] = [[" ".join(st.argv), st.wall_s, st.cpu_s]
                                      for st in runs[len(setups):]]
        # Metrics are printed whenever every stage ran; failed checks show in "correct".
        metrics, units = {}, PER_LAYER if trace else END_TO_END
        complete = bool(pipes) and all(map(ran, pipes))
        if complete and trace and ran(traced):
            metrics, detail["per_layer"] = per_layer(setups[0], traced, pipes)
        elif complete and not trace:
            metrics, detail["samples"] = end_to_end(w, setups, pipes)
        detail["loadavg_end"] = os.getloadavg()
        result = {
            "correct": failed == 0 and bool(metrics),
            "attempted": len(runs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return {"result": result, "detail": detail}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def print_run(out: dict, file=sys.stdout) -> None:
    """Human-readable table, the detail line, then the result line last."""
    res, detail = out["result"], out["detail"]
    prov = detail["provenance"]
    print(f"# {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"corpus={prov['cities']}x{prov['records_per_city']} records", file=file)
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}", file=file)
    print(f"  {'failed_frac':<40} {detail['failed_frac']:>14.6g} fraction "
          f"({res['failed']}/{res['attempted']} stage invocations)", file=file)
    if "per_layer" in detail:
        layers = detail["per_layer"]["layer_self_s"]
        m = res["metrics"]
        print(f"  traced stage wall {m['trace.stage_wall_s']['value']:.3f} s = startup "
              f"{m['cli.startup_s']['value']:.3f} + self "
              + " + ".join(f"{k} {v:.3f}" for k, v in sorted(layers.items()))
              + f" + remainder {m['trace.remainder_s']['value']:.3f} s", file=file)
    for problem in detail["problems"]:
        print(f"  FAIL {problem}", file=file)
    print(json.dumps({"detail": detail}), file=file)
    print(json.dumps(res), file=file, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snapgrid" / "cli.py").is_file():
        print(f"perfbench: no snapgrid sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        out = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        print_run(out)
        ok = ok and out["result"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
