"""mildlab benchmark: CLI workloads, end-to-end metrics, an outside-in traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0

One run repeats rounds of one workload (each round calls ``mildlab.cli.main``
once per part, on configs generated from ``--seed``; see ``workloads.py``)
in this process for about ``--seconds`` (another round starts only if it
should end within half a round of the deadline), after one untimed warm-up
round.  It checks every invocation's artifacts (see ``gate.py``) and prints
one ``name value unit`` line per metric, then one JSON object as the last
line of standard output.

``--trace 0`` reports the end-to-end metrics, measured on unwrapped code:

- ``setup_s``: median time of fresh processes that import ``mildlab.cli``
  and run ``parse_config`` and the semigroup, graph and initial-datum builds,
  alternating over the parts' configs;
- ``wall_s``: median time of one round of ``main(argv)`` calls, artifacts on
  disk;
- ``steps_per_s``: certified time steps (trajectories recorded in the
  artifacts x ``n_steps``) of a round per second of that round, median;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics per round from spans recorded around mildlab's public functions
(``spans.py``), plus ``trace.overhead_frac`` and ``trace.unattributed_frac``.
On standard error it names each part's dominant layer and the per-step costs
that ROADMAP's baseline table lists.  Spans of the first traced round, the
environment record and all metrics are written to ``.perfbench_out/`` in the
checkout.

Failed operations are counted in the JSON's ``failed`` out of ``attempted``
and printed as ``failed_frac``; it is not a bounded metric, since it is 0 on
a correct program.  The run exits with status 2 and prints no result when
the checkout has no mildlab sources.
"""

from __future__ import annotations

import argparse
import itertools
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import envinfo
import gate
import spans
from workloads import DEFAULT_SEED, WORKLOADS, Part

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 4  # per part
INVOCATION = "benchmark.invocation"

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "noise.export_series_csv.s": "s",
    "noise.export_series_csv.bytes": "bytes",
    "noise.export_series_csv.mb_per_s": "MB/s",
    "verify.report.atomic_write_text.s": "s",
    "scalar_monotone.yosida_array.s": "s",
    "scalar_monotone.yosida_array.calls": "count",
    "scalar_monotone.yosida_array.us_per_call": "us",
    "scalar_monotone.yosida_array.us_per_step": "us",
    "scalar_monotone.MonotoneGraph.mid_values.calls": "count",
    "scalar_monotone.evals_per_resolve": "evals/call",
    "solver.solve_mild.s": "s",
    "solver.solve_regularized.s": "s",
    "solver.solve_regularized.calls": "count",
    "solver.solve_regularized.self_s": "s",
    "solver.steps": "count",
    "solver.lambda_levels": "count",
    "solver.extract_g.s": "s",
    "solver.residual_check.s": "s",
    "semigroup.convolve_series.s": "s",
    "semigroup.HeatSemigroup.s": "s",
    "semigroup.substep.flop": "flop",
    "semigroup.substep.gflop_per_s": "GFLOP/s",
    "noise.sample_path.s": "s",
    "noise.sample_path.calls": "count",
    "noise.NoisePath.fields.s": "s",
    "grid_space.FieldSeries.sup_norm.s": "s",
    "grid_space.FieldSeries.sup_norm.calls": "count",
    "verify.studies.apriori_constants_study.s": "s",
    "verify.studies.cauchy_rate_study.s": "s",
    "verify.studies.self_s": "s",
    "verify.report.map_ordered.s": "s",
    "verify.report.map_ordered.busy_frac": "fraction",
    "config.parse_config.s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_cli():
    """mildlab.cli.main from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mildlab" / "cli.py").is_file():
        raise FileNotFoundError(f"no mildlab sources under {src}")
    sys.path.insert(0, str(src))
    import mildlab.cli

    if Path(mildlab.cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"mildlab imported from {mildlab.cli.__file__}, not {src}")
    return mildlab.cli.main


class Session:
    """Repeated invocations of one part, each checked by the gate.

    Each invocation writes under its own output root and nothing is deleted
    until the run ends, so no file-system work of freeing earlier artifacts
    overlaps a timed invocation.
    """

    def __init__(self, cli_main, part: Part, seed: int, workers: int):
        self.cli_main = cli_main
        self.part = part
        self.workers = workers
        self.work = OUT / "work" / part.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.config_path = OUT / f"{part.name}.json"
        self.config_path.write_text(json.dumps(part.build_config(seed, part.name)))
        self.reference = gate.load_reference(part.name) if seed == DEFAULT_SEED else None
        self.first = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []   # every invocation, in order

    def invoke(self, recorder: spans.SpanRecorder | None = None):
        """One checked CLI call; returns (wall seconds, gate outcome)."""
        out_root = self.work / str(len(self.walls))
        argv = [*self.part.command, str(self.config_path), "--workers", str(self.workers),
                "--output-root", str(out_root)]
        sink = io.StringIO()
        code = error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if recorder is None:
                    code = self.cli_main(argv)
                else:
                    code = recorder.call(INVOCATION, self.cli_main, argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            error = repr(exc)
        wall = time.perf_counter() - start
        self.walls.append(wall)
        outcome = gate.inspect(self.part, out_root / self.part.name, code, error)
        if self.first is None:
            self.first = outcome
        else:
            gate.compare_digests(self.part, self.first, outcome)
        if self.reference is not None:
            gate.compare_reference(self.part, self.reference, outcome)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        return wall, outcome


def measure_setup(sessions: list[Session], repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        for session in sessions:
            probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                     str(session.config_path)]
            start = time.perf_counter()
            subprocess.run(probe, cwd=ROOT, check=True, timeout=60)
            times.append(time.perf_counter() - start)
    return times


def run_round(sessions: list[Session], recorders: dict | None = None) -> tuple[float, int]:
    """One invocation per part; returns (wall seconds, certified time steps)."""
    wall = steps = 0
    for session in sessions:
        if recorders is None:
            dt, outcome = session.invoke()
        else:
            rec = recorders[session.part.name]
            with spans.Wrappers(rec):
                dt, outcome = session.invoke(rec)
            rec.add("certified.lambda_levels", outcome.trajectories)
        wall += dt
        steps += outcome.trajectories * session.part.n_steps()
    return wall, steps


def more_time(deadline: float, walls: list[float]) -> bool:
    """Start another round only if it should end within half of one past the deadline."""
    return not walls or time.perf_counter() + 0.5 * statistics.median(walls) <= deadline


def end_to_end(sessions: list[Session], seconds: float) -> dict:
    walls, rates = [], []
    deadline = time.perf_counter() + seconds
    while more_time(deadline, walls):
        wall, steps = run_round(sessions)
        walls.append(wall)
        rates.append(steps / wall)
    return {
        "setup_s": statistics.median(measure_setup(sessions, SETUP_REPEATS)),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(sessions: list[Session], seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; per-layer metrics per round.

    Returns the round metrics and each part's recorder.
    """
    ids = itertools.count(1)
    recorders = {s.part.name: spans.SpanRecorder(ids) for s in sessions}
    plain, wrapped = [], []
    deadline = time.perf_counter() + seconds
    while more_time(deadline, [a + b for a, b in zip(plain, wrapped)]):
        plain.append(run_round(sessions)[0])
        wrapped.append(run_round(sessions, recorders)[0])
    metrics = layer_metrics(spans.SpanRecorder.merged(list(recorders.values())), len(wrapped))
    metrics["trace.overhead_frac"] = statistics.median(wrapped) / statistics.median(plain) - 1.0
    metrics["trace.rounds"] = len(wrapped)
    return metrics, recorders


def layer_metrics(rec: spans.SpanRecorder, n_rounds: int) -> dict:
    """Per-layer metrics per round from a recorder's spans and counters."""
    self_s = spans.self_times(rec.spans)
    names = {s.id: s.name for s in rec.spans}
    total, calls, own = defaultdict(float), defaultdict(int), defaultdict(float)
    for s in rec.spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        own[s.name] += self_s[s.id]
        if names.get(s.parent) == "solver.solve_regularized":
            total["in step loop: " + s.name] += s.duration
    c = rec.counters
    per = lambda x: x / n_rounds  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s" and name.endswith(".s"):
            out[name] = per(total[name[:-2]])
        elif unit == "count" and name.endswith(".calls"):
            out[name] = per(calls[name[:-6]] or c[name])
    export, resolve, steps = "noise.export_series_csv", "scalar_monotone.yosida_array", c["solver.steps"]
    study_own = sum(v for k, v in own.items() if k.startswith("verify.studies."))
    out.update({
        "noise.export_series_csv.bytes": per(c[export + ".bytes"]),
        "noise.export_series_csv.mb_per_s": ratio(c[export + ".bytes"] / 1e6, total[export]),
        "scalar_monotone.yosida_array.us_per_call": 1e6 * ratio(total[resolve], calls[resolve]),
        "scalar_monotone.yosida_array.us_per_step": 1e6 * ratio(
            total["in step loop: " + resolve], steps),
        "scalar_monotone.evals_per_resolve": ratio(
            c["scalar_monotone.MonotoneGraph.mid_values.calls"], calls[resolve]),
        "solver.solve_regularized.self_s": per(own["solver.solve_regularized"]),
        "solver.steps": per(steps),
        "semigroup.substep.flop": per(c["semigroup.substep.flop"]),
        "semigroup.substep.gflop_per_s": ratio(c["semigroup.substep.flop"] / 1e9,
                                               own["solver.solve_regularized"]),
        "solver.lambda_levels": per(c["certified.lambda_levels"]),
        "verify.studies.self_s": per(study_own + own[spans.MAP_ITEM]),
        "verify.report.map_ordered.busy_frac": ratio(
            total[spans.MAP_ITEM], c["verify.report.map_ordered.capacity_s"]),
        "trace.unattributed_frac": ratio(own[INVOCATION], total[INVOCATION]),
        "trace.wall_s": per(total[INVOCATION]),
    })
    return out


def report_layers(part: Part, rec: spans.SpanRecorder, n_rounds: int) -> list[str]:
    """A part's dominant layer and its costs in the units of ROADMAP's baseline table."""
    m = layer_metrics(rec, n_rounds)
    candidates = {
        "export (noise.export_series_csv.s)": m["noise.export_series_csv.s"],
        "resolvent (scalar_monotone.yosida_array.s)": m["scalar_monotone.yosida_array.s"],
        "semigroup + step loop (solver.solve_regularized.self_s)":
            m["solver.solve_regularized.self_s"],
        "study code (verify.studies.self_s)": m["verify.studies.self_s"],
        "noise sampling (noise.sample_path.s)": m["noise.sample_path.s"],
        "residual (solver.residual_check.s)": m["solver.residual_check.s"],
    }
    name, value = max(candidates.items(), key=lambda kv: kv[1])
    wall, steps = m["trace.wall_s"], m["solver.steps"]
    loop = 1e6 * m["solver.solve_regularized.self_s"] / steps if steps else 0.0
    return [
        f"{part.name}: dominant layer {name}, {value:.3f} s per invocation summed over "
        f"threads; traced wall {wall:.3f} s",
        f"{part.name}: export {m['noise.export_series_csv.s'] / wall:.1%} of traced wall; "
        f"resolvent {m['scalar_monotone.yosida_array.us_per_step']:.1f} us/step; "
        f"semigroup substep + step loop {loop:.1f} us/step at M={part.grid_size()}; "
        f"{m['scalar_monotone.evals_per_resolve']:.1f} graph evaluations per resolve",
    ]


def first_round_spans(recorders: dict) -> list:
    """Spans of the first traced round as [id, name, start, end, parent, thread]."""
    rounds = [min((s for s in rec.spans if s.name == INVOCATION), key=lambda s: s.start)
              for rec in recorders.values()]
    t0, t1 = min(s.start for s in rounds), max(s.end for s in rounds)
    threads = {}
    merged = spans.SpanRecorder.merged(list(recorders.values())).spans
    return [
        [s.id, s.name, s.start - t0, s.end - t0, s.parent,
         threads.setdefault(s.thread, len(threads))]
        for s in sorted(merged, key=lambda s: s.start)
        if t0 <= s.start and s.end <= t1
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    workers = envinfo.nproc()
    envinfo.pin_blas_threads(workers)
    try:
        cli_main = load_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = envinfo.record(ROOT, workers)
    print(f"perfbench env: {json.dumps(env, sort_keys=True)}", file=sys.stderr)

    sessions = [Session(cli_main, part, args.seed, workers) for part in workload.parts]
    run_round(sessions)  # warm-up: checked, not timed
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        metrics, recorders = traced(sessions, args.seconds)
        record["layers"] = [line for part in workload.parts for line in
                            report_layers(part, recorders[part.name], metrics["trace.rounds"])]
        record["spans"] = first_round_spans(recorders)
        for line in record["layers"]:
            print(f"perfbench: {line}", file=sys.stderr)
        units = PER_LAYER
    else:
        metrics = end_to_end(sessions, args.seconds)
        units = END_TO_END
    shutil.rmtree(OUT / "work", ignore_errors=True)

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    problems = [f"{s.part.name}: {p}" for s in sessions for p in s.problems]
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    # walls: each part's invocations in order; the first is the warm-up, and
    # with --trace 1 the rest alternate untraced and traced
    record.update(result=result, problems=problems, metrics=metrics,
                  walls={s.part.name: s.walls for s in sessions})
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
