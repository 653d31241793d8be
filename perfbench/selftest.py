"""Self-test of the pipeline benchmark on a corpus that runs in seconds.

    python3 perfbench/selftest.py

It is not part of the repository's test suite. It checks that

- BENCHMARK.json names exactly the metrics ``run.py`` defines, with their units;
- a ``--trace 0`` run prints every end-to-end metric, with its unit, in the
  table and in the result line, and ``failed_frac`` 0;
- a ``--trace 1`` run does the same for every per-layer metric, and the
  traced stage wall time is accounted for by start-up, self times and the
  reported remainder;
- a ``report.json`` corrupted after the report stage is counted in
  ``failed`` and ``failed_frac``;
- without the program's sources next to it, the benchmark exits non-zero
  and prints no result.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys

import run

TINY = run.Workload("selftest", 10, 300, run.PAPER_STAGES)


def _run(trace: int) -> tuple[dict, str]:
    out = run.run_workload(TINY, seed=7, seconds=1, trace=trace)
    buf = io.StringIO()
    run.print_run(out, file=buf)
    return out, buf.getvalue()


def _check_printed(text: str, units: dict) -> None:
    lines = text.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, result
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    table = {line.split()[0]: line.split()[2] for line in lines[1:] if line.startswith("  ")
             and len(line.split()) >= 3}
    for name, unit in units.items():
        assert table.get(name) == unit, f"{name} not printed with unit {unit}"
    assert table.get("failed_frac") == "fraction", "failed_frac not printed"


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def check_untraced() -> None:
    out, text = _run(trace=0)
    _check_printed(text, run.END_TO_END)
    assert out["detail"]["failed_frac"] == 0.0


def check_traced() -> None:
    out, text = _run(trace=1)
    _check_printed(text, run.PER_LAYER)
    m = out["detail"]["per_layer"]["all"]
    accounted = m["cli.startup_s"] + sum(out["detail"]["per_layer"]["layer_self_s"].values())
    assert abs(m["trace.stage_wall_s"] - accounted - m["trace.remainder_s"]) < 1e-6
    assert m["geo.locate.calls"] > 0 and m["records.to_local_time.calls"] > 0


def check_corrupt_report() -> None:
    real_spawn = run.spawn

    def corrupting_spawn(stage, cli_args, deadline, trace_path):
        real_spawn(stage, cli_args, deadline, trace_path)
        if stage.name == "report":
            (stage.dir / "report.json").write_text('{"seed": ')

    run.spawn = corrupting_spawn
    try:
        out = run.run_workload(TINY, seed=7, seconds=1, trace=0)
    finally:
        run.spawn = real_spawn
    res, detail = out["result"], out["detail"]
    assert not res["correct"] and res["failed"] == 1, res
    assert detail["failed_frac"] == 1 / res["attempted"], detail["failed_frac"]
    assert [p.split(":")[0] for p in detail["problems"]] == ["report"], detail["problems"]


def check_bare_directory() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "rule_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if run.WORK.exists() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()


def main() -> int:
    for check in (check_benchmark_json, check_bare_directory, check_untraced,
                  check_traced, check_corrupt_report):
        check()
        print(f"ok {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
