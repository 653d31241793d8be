"""Run one snapgrid CLI stage with spans around the library's public functions.

    python3 traced_stage.py SPANS_JSON T_SPAWN STAGE [CLI ARGS...]

T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process; ``time.monotonic()`` reads the system-wide CLOCK_MONOTONIC, so the
difference to the moment ``import snapgrid.cli`` returns is the stage's
start-up time. The stage itself is the root span. Every listed function is
wrapped by rebinding each ``snapgrid.*`` module attribute that refers to
the same function object, so names imported with ``from x import f`` (such
as ``spatial.locate`` or ``temporal.to_local_time``) are wrapped as well.
Functions called once per record only add to a per-name count and time;
all others record one span per call. Spans stay in memory and are written
to SPANS_JSON when the stage ends, whatever its outcome.
"""

from __future__ import annotations

import json
import os
import sys
import time

_now = time.monotonic


# Counters map (args, result) of one call to {metric name: amount}.
def _parse_counts(args, result):
    return {
        "records.parse_snaps.records": len(result[0]),
        "records.parse_snaps.failures": len(result[1]),
        "records.parse_snaps.mb": os.path.getsize(args[0]) / 1e6,
    }


def _write_counts(args, result):
    return {
        "records.write_snaps.records": len(args[0]),
        "records.write_snaps.mb": os.path.getsize(args[1]) / 1e6,
    }


# (module, function, span name, counter). Span names are "<layer>.<function>".
STAGE_TARGETS = (
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "_write_json", "cli.write_json", None),
    ("records", "parse_snaps", "records.parse_snaps", _parse_counts),
    ("records", "write_snaps", "records.write_snaps", _write_counts),
    ("records", "filter_active", "records.filter_active", None),
    ("voting", "evaluate", "voting.evaluate", None),
    ("voting", "extent", "voting.extent", None),
    ("geo", "build_grid", "geo.build_grid", None),
    ("spatial", "tile_counts", "spatial.tile_counts",
     lambda a, r: {"spatial.out_of_grid": r.out_of_grid}),
    ("spatial", "compare_fits", "spatial.compare_fits", None),
    ("spatial", "heatmap_export", "spatial.heatmap_export",
     lambda a, r: {"spatial.heatmap_export.rows": len(a[1].tiles)}),
    ("temporal", "hourly_profile", "temporal.hourly_profile", None),
    ("temporal", "week_vectors", "temporal.week_vectors", None),
    ("temporal", "kmeans", "temporal.kmeans",
     lambda a, r: {"temporal.kmeans.iterations": r.n_iter}),
    ("temporal", "silhouette", "temporal.silhouette", None),
    ("temporal", "elbow_curve", "temporal.elbow_curve", None),
    ("temporal", "embed_2d", "temporal.embed_2d", None),
    ("annotation", "load_annotations_csv", "annotation.load_annotations_csv",
     lambda a, r: {"annotation.load_annotations_csv.items": r.n_items}),
    ("annotation", "fleiss_kappa", "annotation.fleiss_kappa", None),
    ("annotation", "adjudicate", "annotation.adjudicate", None),
    ("regression", "load_city_stats", "regression.load_city_stats", None),
    ("regression", "regression_report", "regression.regression_report", None),
)

# Called once per record: aggregated, never one span per call.
STAGE_HOT_TARGETS = (
    ("records", "to_local_time", "records.to_local_time", None),
    ("geo", "locate", "geo.locate", None),
    ("voting", "classify_scores", "voting.classify_scores",
     lambda a, r: {"voting.frames": len(a[0])}),
)

# The synth stage's writers are all accounted to one name.
SYNTH_TARGETS = (
    ("synth", "gen_corpus", "synth.gen_corpus",
     lambda a, r: {"synth.gen_corpus.records": len(r[0])}),
    ("synth", "gen_annotations", "synth.gen_annotations", None),
    ("synth", "gen_regression_cities", "synth.gen_regression_cities", None),
    ("records", "write_snaps", "synth.write", None),
    ("regression", "write_city_stats", "synth.write", None),
    ("synth", "write_manifest", "synth.write", None),
)


class Tracer:
    """In-memory spans for one stage process; the open spans form a stack."""

    def __init__(self):
        self.spans = []  # finished: [name, start, end, parent index, child seconds]
        self.stack = []  # open: [name, start, parent index, child seconds, own index]
        self.hot = {}  # name -> [calls, seconds]
        self.counts = {}  # metric name -> amount

    def open_span(self, name):
        parent = self.stack[-1][4] if self.stack else None
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children can name their parent
        self.stack.append([name, _now(), parent, 0.0, index])

    def close_span(self):
        name, start, parent, child_s, index = self.stack.pop()
        end = _now()
        self.spans[index] = [name, start, end, parent, child_s]
        if self.stack:
            self.stack[-1][3] += end - start

    def _count(self, amounts):
        for metric, amount in amounts.items():
            self.counts[metric] = self.counts.get(metric, 0) + amount

    def span(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span()
            if counter is not None:
                self._count(counter(args, result))
            return result

        return wrapper

    def aggregate(self, fn, name, counter):
        slot = self.hot.setdefault(name, [0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                slot[0] += 1
                slot[1] += elapsed
                if stack:
                    stack[-1][3] += elapsed
            if counter is not None:
                self._count(counter(args, result))
            return result

        return wrapper


def _rebind(original, wrapper) -> int:
    """Point every snapgrid.* attribute that is ``original`` at ``wrapper``."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "snapgrid" or mod_name.startswith("snapgrid.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def install(tracer: Tracer, stage: str) -> None:
    modules = {name: sys.modules[f"snapgrid.{name}"] for name in
               ("cli", "records", "voting", "geo", "spatial", "temporal",
                "annotation", "regression", "synth")}
    if stage == "synth":
        plan = [(t, tracer.span) for t in SYNTH_TARGETS]
    else:
        plan = [(t, tracer.span) for t in STAGE_TARGETS]
        plan += [(t, tracer.aggregate) for t in STAGE_HOT_TARGETS]
    for (mod, fn_name, name, counter), make in plan:
        original = getattr(modules[mod], fn_name)
        if _rebind(original, make(original, name, counter)) == 0:
            raise RuntimeError(f"could not wrap snapgrid.{mod}.{fn_name}")


def main() -> int:
    spans_path, t_spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    import snapgrid.cli as cli

    t_import = _now()
    tracer = Tracer()
    install(tracer, argv[0])
    tracer.open_span(f"stage.{argv[0]}")
    try:
        return cli.main(argv)
    finally:
        tracer.close_span()
        with open(spans_path, "w") as fh:
            json.dump({"t_spawn": t_spawn, "t_import": t_import, "spans": tracer.spans,
                       "hot": tracer.hot, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
