"""Batch front-end: config parsing, study orchestration, artifact output.

Subcommands (consumers are scripts and CI, not interactive humans):

    mildlab sample-noise CONFIG     sample and export the configured paths
    mildlab solve CONFIG            run the continuation per seed, export u (.npy)
    mildlab study NAME CONFIG       run one named study (its config section
                                    must be present under "studies")
    mildlab check-invariants CONFIG run the fast cross-module battery

Artifacts land under <output root>/<output_dir>/ with a manifest.json;
writes are atomic (temp file + rename), and every JSON artifact has sorted
keys and a two-space indent.  solution<i>.json holds the path's seed, the
drift and every MildSolution field but the trajectories u and g.  --workers
N runs the paths of solve, sample-noise and the cauchy, l1, moment,
propagation and apriori studies, one path per task that samples it (the
parent holds only seeds), or the solves of contraction_extension, on N
forked processes; a platform without fork runs them in order, and
chain_rule, bernoulli, eiconv and check-invariants run in one process.
Reruns with the same config and seed are byte-identical and independent of
--workers.  Exit status: 0 all selected verdicts pass, 2 inconclusive, 1
error or failed verdict.
The environment variable MILDLAB_OUTPUT_ROOT overrides the output root.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write_text, atomic_writer, json_text
from .config import STUDY_KEYS, RunConfig, parse_config
from .errors import MildlabError, within
from .noise import export_noise_sidecar, export_series_csv, path_seeds, sample_path
from .solver import solve_mild
from .verify import (apriori_constants_study, bernoulli_study,
                     cauchy_rate_study, chain_rule_study,
                     contraction_extension_study, eiconv_demo,
                     l1_convergence_study, moment_study, propagation_study,
                     run_invariant_battery)
from .verify.report import StudyReport, config_digest, map_ordered
from .verify.studies import MOMENT_PATHS

EXIT_PASS, EXIT_ERROR, EXIT_INCONCLUSIVE = 0, 1, 2


def _output_dir(cfg: RunConfig, root_override: str | None) -> Path:
    root = root_override or os.environ.get("MILDLAB_OUTPUT_ROOT") or "."
    return Path(root) / cfg.output_dir


def _write_manifest(cfg: RunConfig, out: Path, subcommand: str, artifacts: list[str]):
    manifest = {
        "version": __version__,
        "subcommand": subcommand,
        "digest": config_digest(cfg.raw),
        "config": cfg.raw,
        "artifacts": sorted(artifacts),
    }
    atomic_write_text(out / "manifest.json", json_text(manifest))


class _Paths(Sequence):
    """The first n configured noise paths, each sampled when it is indexed.

    len() samples nothing; paths[i] calls this module's sample_path with seed
    i, so only the process that indexes a path (its pool task) holds it.
    """

    def __init__(self, cfg: RunConfig, n: int):
        self._seeds = path_seeds(cfg.master_seed, n)
        self._args = (cfg.build_semigroup(), cfg.spec, cfg.T, cfg.delta)

    def __len__(self) -> int:
        return len(self._seeds)

    def __getitem__(self, i: int):
        return sample_path(*self._args, int(self._seeds[i]))


def _map_paths(cfg: RunConfig, job, workers: int) -> list:
    """job(i, path i) for each configured path on the pool; results in path order.

    A task samples its own path, so only job's result crosses a process.
    """
    paths = _Paths(cfg, cfg.n_paths)
    return map_ordered(lambda i: job(i, paths[i]), range(len(paths)), workers)


def _cmd_sample_noise(args, cfg: RunConfig, out: Path, workers: int) -> int:
    def export(i: int, path) -> None:
        export_series_csv(path.fields, path.times, out / f"noise_path{i}.csv")
        export_noise_sidecar(path, out / f"noise_path{i}.json")

    _map_paths(cfg, export, workers)
    _write_manifest(cfg, out, "sample-noise",
                    [f"noise_path{i}{ext}" for i in range(cfg.n_paths)
                     for ext in (".csv", ".json")])
    return EXIT_PASS


def _cmd_solve(args, cfg: RunConfig, out: Path, workers: int) -> int:
    graph, u0 = cfg.build_graph(), cfg.build_initial(cfg.build_semigroup().grid)

    def solve(i: int, path) -> bool:
        sol = solve_mild(graph, u0, path, cfg.solver)
        with atomic_writer(out / f"solution{i}_u.npy", binary=True) as fh:
            np.lib.format.write_array(fh, sol.u.values, version=(1, 0), allow_pickle=False)
        record = {"seed": path.seed, "drift": cfg.raw["drift"], **sol.certificate()}
        atomic_write_text(out / f"solution{i}.json", json_text(record))
        return sol.converged

    converged = _map_paths(cfg, solve, workers)
    _write_manifest(cfg, out, "solve",
                    [f"solution{i}{ext}" for i in range(cfg.n_paths)
                     for ext in ("_u.npy", ".json")])
    return EXIT_PASS if all(converged) else EXIT_INCONCLUSIVE


def _default_forcing(sg):
    nodes = sg.grid.nodes

    def forcing(times: np.ndarray) -> np.ndarray:
        shape = np.sin(np.pi * nodes) + 0.4 * np.sin(2.0 * np.pi * nodes)
        wave = np.cos(2.0 * np.pi * times)
        return np.outer(wave, shape)

    return forcing


def _run_study(name: str, cfg: RunConfig, workers: int) -> StudyReport:
    """The study at the run's own q, delta and paths (each sampled when indexed)."""
    sg, graph, solver = cfg.build_semigroup(), cfg.build_graph(), cfg.solver
    u0, params = cfg.build_initial(sg.grid), cfg.studies[name]
    paths = _Paths(cfg, max(cfg.n_paths, MOMENT_PATHS) if name == "moment" else cfg.n_paths)
    if name == "cauchy":
        return cauchy_rate_study(graph, solver.q, paths, solver, u0, workers=workers)
    if name == "l1":
        return l1_convergence_study(graph, paths, solver, u0, workers=workers)
    if name == "chain_rule":
        return chain_rule_study(solver.q, sg, _default_forcing(sg), u0,
                                T=cfg.T, deltas=(2.0 * cfg.delta, cfg.delta))
    if name == "bernoulli":
        return bernoulli_study(seed=cfg.master_seed)
    if name == "eiconv":
        return eiconv_demo()
    if name == "moment":
        return moment_study(graph, solver.q, cfg.p, paths, solver, u0, workers=workers)
    if name == "propagation":
        return propagation_study(graph, solver.q, solver.r, cfg.d, paths, solver, u0,
                                 frozen_constant=params["frozen_constant"],
                                 workers=workers)
    if name == "contraction_extension":
        return contraction_extension_study(graph, solver.q, paths[0], solver, workers=workers)
    if name == "apriori":
        return apriori_constants_study(graph, tuple(params["qs_linear"]),
                                       tuple(params["qs_square"]), paths, solver, u0,
                                       workers=workers)


def _cmd_study(args, cfg: RunConfig, out: Path, workers: int) -> int:
    name = args.name
    if name not in STUDY_KEYS:
        print(f"error: unknown study {name!r}; known: {', '.join(STUDY_KEYS)}",
              file=sys.stderr)
        return EXIT_ERROR
    if name not in cfg.studies:
        print(f"error: study {name!r} has no config section under 'studies'; "
              "refusing to run with implicit parameters", file=sys.stderr)
        return EXIT_ERROR
    report = _run_study(name, cfg, workers)
    report.inputs["config_digest"] = config_digest(cfg.raw)
    written = report.save(out / name)
    _write_manifest(cfg, out, f"study {name}", [f"{name}/{file}" for file in written])
    print(f"{report.study}: {report.verdict}")
    return {"pass": EXIT_PASS, "inconclusive": EXIT_INCONCLUSIVE}.get(report.verdict, EXIT_ERROR)


def _cmd_check_invariants(args, cfg: RunConfig, out: Path, workers: int) -> int:
    sg = cfg.build_semigroup()
    checks = run_invariant_battery(M=sg.grid.M, nu=sg.nu, seed=cfg.master_seed)
    payload = {"checks": [{**asdict(c), "passed": c.passed} for c in checks],
               "all_passed": all(c.passed for c in checks)}
    atomic_write_text(out / "invariants" / "report.json", json_text(payload))
    _write_manifest(cfg, out, "check-invariants", ["invariants/report.json"])
    for c in checks:
        if not c.passed:
            print(f"FAIL {c.name}: violation {c.violation:.3e} > {c.tolerance:.3e}")
    print(f"invariants: {sum(c.passed for c in checks)}/{len(checks)} passed")
    return EXIT_PASS if payload["all_passed"] else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mildlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # a subcommand's _cmd_* rides on its parser: main calls args.run(args, cfg, out, workers)
    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("config", help="path to the JSON config file")
        p.add_argument("--workers", type=int, default=None,
                       help="number of forked processes that run the paths of "
                            "solve, sample-noise and the cauchy, l1, moment, "
                            "propagation and apriori studies, or the solves of the "
                            "contraction_extension study, >= 1 (default: CPU "
                            "count); results do not depend on it, and a platform "
                            "without fork runs in order")
        p.add_argument("--output-root", default=None,
                       help="root for output_dir (default: MILDLAB_OUTPUT_ROOT or '.')")

    common(sub.add_parser("sample-noise", help="sample and export noise paths"), _cmd_sample_noise)
    common(sub.add_parser("solve", help="run the continuation and export trajectories"), _cmd_solve)
    study = sub.add_parser("study", help="run one named verification study")
    study.add_argument("name", help=f"one of: {', '.join(STUDY_KEYS)}")
    common(study, _cmd_study)
    common(sub.add_parser("check-invariants", help="run the invariant battery"),
           _cmd_check_invariants)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers is not None and not within(args.workers, ">= 1"):
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg = parse_config(Path(args.config).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error reading config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MildlabError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    workers = args.workers or os.cpu_count() or 1
    out = _output_dir(cfg, args.output_root)
    try:
        return args.run(args, cfg, out, workers)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MildlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
