"""Byte identity of every artifact between a git revision and the working tree.

    python3 tests/identity.py REF [--quick]

Exports ``REF`` with ``git archive`` into a temporary directory and runs it and
the working tree side by side, each stage a ``python3 -m snapgrid.cli``
process of its own tree, over the matrix:

- synth, grid, ingest, annotate, classify under each of the 7 voting rules
  (the default one last), extent, spatial, temporal, cluster, regress and
  report;
- at seeds 1-10 and 20 at 10 cities x 4k and 10 x 1k records, and at seed
  20 at 10 x 30k; ``--quick`` runs 10 x 1k at seeds 1-3 only;
- the working tree's ingest once more with one worker process
  (``records._WORKERS = 1``), its files compared with the reference's too.

It compares every file's SHA-256, each ``cleaned.npz`` member's dtype, shape
and bytes, and each stage's exit status, stdout and stderr with the run
directory masked. Then it runs the error cases of ``tests/test_cli.py``
(its tests named ``*exits*`` or ``*fails_in_one_line*``) against each tree
and compares the exit status (or ``SystemExit``) and stderr of every
``cli.main`` call they make, temporary paths masked.

It prints one line per difference and exits 1 on any, 0 when every
artifact and message is the same. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RULES = [["--rule", "single"], *(["--rule", "threshold", "--threshold", str(t)] for t in (10, 30, 50, 70, 90)), []]
READERS = ("extent", "spatial", "temporal", "cluster", "regress", "report")
FULL = [(seed, 10, n) for n in (4000, 1000) for seed in (*range(1, 11), 20)] + [(20, 10, 30000)]
QUICK = [(seed, 10, 1000) for seed in (1, 2, 3)]
ERROR_CASES = "exits or fails_in_one_line"  # the pytest -k selection of test_cli.py's error cases
CALLS = "identity-calls.json"  # where the plugin below writes the calls it saw
# runs one stage with records._WORKERS set first: python3 -c ONE_WORKER N STAGE ARGS...
ONE_WORKER = "import sys; from snapgrid import cli, records; records._WORKERS = int(sys.argv.pop(1)); cli.run()"


def _stage(tree: Path, run: Path, argv: list[str], workers: int | None = None) -> tuple:
    """One stage process of ``tree``: its argv, exit status, stdout and stderr, ``run`` masked."""
    head = ["-c", ONE_WORKER, str(workers)] if workers else ["-m", "snapgrid.cli"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, *head, *argv], env=env, capture_output=True, text=True)
    mask = lambda text: text.replace(str(run), "<run>")
    return " ".join(map(mask, argv)), done.returncode, mask(done.stdout), mask(done.stderr)


def _pipeline(tree: Path, run: Path, seed: int, n_cities: int, n_records: int, one_worker: bool) -> dict:
    """Every stage of the matrix over a fresh corpus in ``run``: {label: (argv, status, stdout, stderr)}. Each
    rule's classify.json is kept as ``classify<argv>.json``."""
    config = ["--config", str(run / "pipeline.yaml")]
    steps = {"synth": _stage(tree, run, ["synth", "--seed", str(seed), "--out-dir", str(run), "--cities",
                                         str(n_cities), "--records", str(n_records)])}
    for stage in ("grid", "ingest", "annotate"):
        steps[stage] = _stage(tree, run, [stage, *config])
    if one_worker:
        steps["ingest-1-worker"] = _stage(tree, run, ["ingest", *config, "--out-dir", str(run / "1-worker")], 1)
    for rule in RULES:
        label = " ".join(["classify", *rule])
        steps[label] = _stage(tree, run, ["classify", *config, *rule])
        if rule and (run / "classify.json").exists():
            shutil.copy(run / "classify.json", run / f"classify{'_'.join(rule)}.json")
    for stage in READERS:
        steps[stage] = _stage(tree, run, [stage, *config])
    return steps


def _digests(run: Path) -> dict[str, str]:
    return {str(p.relative_to(run)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run.rglob("*")) if p.is_file()}


def _npz_differences(ref: Path, got: Path) -> list[str]:
    with np.load(ref) as a, np.load(got) as b:
        out = [f"member {name} only in {side}" for side, x, y in (("REF", a, b), ("tree", b, a))
               for name in x.files if name not in y.files]
        for name in (n for n in a.files if n in b.files):
            x, y = a[name], b[name]
            for what, u, v in (("dtype", x.dtype, y.dtype), ("shape", x.shape, y.shape)):
                if u != v:
                    out.append(f"member {name}: {what} {u} != {v}")
            if x.dtype == y.dtype and x.shape == y.shape and x.tobytes() != y.tobytes():
                out.append(f"member {name}: bytes differ")
    return out


def _compare_runs(point: str, ref: Path, got: Path, ref_steps: dict, got_steps: dict) -> list[str]:
    out = []
    for label, step in got_steps.items():
        want = ref_steps["ingest" if label == "ingest-1-worker" else label][1:]
        for what, u, v in zip(("exit status", "stdout", "stderr"), want, step[1:]):
            if u != v:
                out.append(f"{point}: {label}: {what} {u!r} != {v!r}")
    ref_files, got_files = _digests(ref), _digests(got)
    for name in ("cleaned.npz", "ingest.json"):
        if "ingest-1-worker" in got_steps and got_files.get(f"1-worker/{name}") != ref_files.get(name):
            out.append(f"{point}: ingest-1-worker: {name} differs from the reference's")
    for name in sorted(set(ref_files) | set(got_files)):
        if name.startswith("1-worker/"):
            continue
        if name not in got_files or name not in ref_files:
            out.append(f"{point}: {name} only in {'REF' if name in ref_files else 'the tree'}")
        elif ref_files[name] != got_files[name]:
            out.append(f"{point}: {name}: sha256 differs")
            if name.endswith(".npz"):
                out += (f"{point}: {name} {line}" for line in _npz_differences(ref / name, got / name))
    return out


def _error_cases(tree: Path, work: Path) -> list:
    """The ``cli.main`` calls that test_cli.py's error cases make against ``tree``'s source, each as [test id,
    argv, status, stderr], paths under pytest's temporary directory masked."""
    record, base = work / CALLS, work / "pytest"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(ROOT / "tests")]))
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "identity", "-p", "no:cacheprovider",
                    f"--basetemp={base}", "-k", ERROR_CASES, str(ROOT / "tests" / "test_cli.py")],
                   env=env, cwd=work, capture_output=True)
    if not record.exists():
        return [["(pytest recorded no call)", None, None, None]]
    return json.loads(record.read_text().replace(str(base), "<tmp>"))


# loaded by pytest as a plugin (-p identity): every cli.main call of the session, written to CALLS in the working
# directory at its end
_CALLS: list = []


def pytest_configure(config):
    from snapgrid import cli

    main = cli.main

    def recorded(argv=None):
        outer, sys.stderr = sys.stderr, io.StringIO()
        status = None
        try:
            status = main(argv)
        except SystemExit as exc:
            status = f"SystemExit({exc.code})"
            raise
        finally:
            text, sys.stderr = sys.stderr.getvalue(), outer
            outer.write(text)
            _CALLS.append([os.environ.get("PYTEST_CURRENT_TEST", "").split(" ")[0], argv, status, text])
        return status

    cli.main = recorded  # before test_cli.py is imported, which takes main from the module


def pytest_sessionfinish(session, exitstatus):
    Path(CALLS).write_text(json.dumps(_CALLS, default=str))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git revision to compare the working tree with, such as HEAD~1")
    parser.add_argument("--quick", action="store_true", help="10 x 1k records at seeds 1-3 only")
    args = parser.parse_args()
    differences, points = [], QUICK if args.quick else FULL
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        ref_tree = Path(tmp) / "ref"
        ref_tree.mkdir()
        subprocess.run(f"git -C {shlex.quote(str(ROOT))} archive {shlex.quote(args.ref)} | tar -x -C "
                       f"{shlex.quote(str(ref_tree))}", shell=True, check=True)
        with ThreadPoolExecutor(max_workers=2) as pool:  # the two trees at once, each stage after the last
            for seed, n_cities, n_records in points:
                point = f"seed {seed}, {n_cities} x {n_records}"
                runs = [Path(tmp) / side / f"{seed}-{n_records}" for side in ("ref-run", "tree-run")]
                ref_steps, got_steps = pool.map(_pipeline, (ref_tree, ROOT), runs, *zip(
                    (seed, n_cities, n_records, False), (seed, n_cities, n_records, True)))
                found = _compare_runs(point, *runs, ref_steps, got_steps)
                print(f"{point}: {len(found)} differences", file=sys.stderr)
                differences += found
                for run in runs:
                    shutil.rmtree(run)
            works = [Path(tmp) / side for side in ("ref-cases", "tree-cases")]
            for work in works:
                work.mkdir()
            ref_calls, got_calls = pool.map(_error_cases, (ref_tree, ROOT), works)
        by_test = [{}, {}]  # test id -> its calls, in each tree
        for calls, tests in zip((ref_calls, got_calls), by_test):
            for call in calls:
                tests.setdefault(call[0], []).append(call[1:])
        both = [test for test in by_test[1] if test in by_test[0]]
        for test in both:
            for k, (want, got) in enumerate(zip(*(tests[test] for tests in by_test)), 1):
                if want != got:
                    differences.append(f"error case {test}, call {k}: {want!r} != {got!r}")
            if len(by_test[0][test]) != len(by_test[1][test]):
                differences.append(f"error case {test}: {len(by_test[0][test])} calls != {len(by_test[1][test])}")
        # a test that fails against one tree before it calls main, such as one of a new function, is not compared
        print(f"error cases: {sum(len(by_test[1][test]) for test in both)} cli.main calls of {len(both)} tests "
              f"compared; {len(by_test[1]) - len(both)} tests called main only in the tree, "
              f"{len(by_test[0]) - len(both)} only in REF", file=sys.stderr)
    for line in differences:
        print(line)
    if not differences:
        print(f"identical: {len(points)} runs and {len(both)} error-case tests against {args.ref}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
