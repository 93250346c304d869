"""Batch front-end: config parsing, study orchestration, artifact output.

Subcommands (consumers are scripts and CI, not interactive humans):

    mildlab sample-noise CONFIG     sample and export the configured paths
    mildlab solve CONFIG            run the continuation per seed, export u/g
    mildlab study NAME CONFIG       run one named study (its config section
                                    must be present under "studies")
    mildlab check-invariants CONFIG run the fast cross-module battery

Artifacts land under <output root>/<output_dir>/ with a manifest.json;
writes are atomic (temp file + rename).  Reruns with the same config and
seed are byte-identical and independent of --workers.  Exit status: 0 all
selected verdicts pass, 2 inconclusive, 1 error or failed verdict.
The environment variable MILDLAB_OUTPUT_ROOT overrides the output root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import STUDY_KEYS, RunConfig, parse_config
from .errors import MildlabError
from .noise import export_noise_sidecar, export_series_csv, path_seeds, sample_path
from .solver import solve_mild
from .verify import (apriori_constants_study, bernoulli_study,
                     cauchy_rate_study, chain_rule_study,
                     contraction_extension_study, eiconv_demo,
                     l1_convergence_study, moment_study, propagation_study)
from .verify.report import StudyReport, atomic_write_text, config_digest

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
    atomic_write_text(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _paths(cfg: RunConfig, sg, n: int):
    seeds = path_seeds(cfg.master_seed, n)
    spec = cfg.build_noise_spec()
    return [sample_path(sg, spec, cfg.T, cfg.delta, int(s)) for s in seeds]


def _cmd_sample_noise(cfg: RunConfig, out: Path) -> int:
    sg = cfg.build_semigroup()
    artifacts = []
    for i, path in enumerate(_paths(cfg, sg, cfg.n_paths)):
        csv_name, json_name = f"noise_path{i}.csv", f"noise_path{i}.json"
        export_series_csv(path.fields, path.times, out / csv_name)
        export_noise_sidecar(path, out / json_name)
        artifacts += [csv_name, json_name]
    _write_manifest(cfg, out, "sample-noise", artifacts)
    return EXIT_PASS


def _cmd_solve(cfg: RunConfig, out: Path) -> int:
    sg = cfg.build_semigroup()
    graph = cfg.build_graph()
    u0 = cfg.build_initial(sg.grid)
    solver_cfg = cfg.solver_config()
    artifacts = []
    inconclusive = False
    for i, path in enumerate(_paths(cfg, sg, cfg.n_paths)):
        sol = solve_mild(graph, u0, path, sg, solver_cfg)
        times = path.times
        export_series_csv(sol.u, times, out / f"solution{i}_u.csv")
        export_series_csv(sol.g, times, out / f"solution{i}_g.csv")
        run_record = {
            "seed": path.seed,
            "drift": cfg.raw["drift"],
            "final_lambda": sol.final_lambda,
            "residual": sol.residual,
            "converged": sol.converged,
            "schedule_exhausted": not sol.converged,
            "lambdas": sol.lambdas,
            "gaps": sol.gaps,
            "sup_norms": sol.sup_norms,
        }
        atomic_write_text(out / f"solution{i}.json",
                          json.dumps(run_record, sort_keys=True, indent=2) + "\n")
        artifacts += [f"solution{i}_u.csv", f"solution{i}_g.csv", f"solution{i}.json"]
        inconclusive |= not sol.converged
    _write_manifest(cfg, out, "solve", artifacts)
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_PASS


def _default_forcing(cfg: RunConfig, sg):
    nodes = sg.grid.nodes

    def forcing(times: np.ndarray) -> np.ndarray:
        shape = np.sin(np.pi * nodes) + 0.4 * np.sin(2.0 * np.pi * nodes)
        wave = np.cos(2.0 * np.pi * times)
        return np.outer(wave, shape)

    return forcing


def _run_study(name: str, cfg: RunConfig, workers: int) -> StudyReport:
    params = cfg.studies[name]
    sg = cfg.build_semigroup()
    graph = cfg.build_graph()
    u0 = cfg.build_initial(sg.grid)
    solver_cfg = cfg.solver_config()
    if name == "cauchy":
        paths = _paths(cfg, sg, params["n_paths"])
        return cauchy_rate_study(graph, params["q"], paths, sg,
                                 solver_cfg, u0, workers=workers)
    if name == "l1":
        paths = _paths(cfg, sg, params["n_paths"])
        return l1_convergence_study(graph, paths, sg, solver_cfg, u0, workers=workers)
    if name == "chain_rule":
        return chain_rule_study(params["q"], sg, _default_forcing(cfg, sg), u0,
                                T=cfg.T, deltas=tuple(params["deltas"]))
    if name == "bernoulli":
        return bernoulli_study(n_samples=params["n_samples"], seed=cfg.master_seed)
    if name == "eiconv":
        return eiconv_demo(n_max=params["n_max"])
    if name == "moment":
        paths = _paths(cfg, sg, params["n_paths"])
        return moment_study(graph, params["q"], cfg.p, paths, sg,
                            solver_cfg, u0, workers=workers)
    if name == "propagation":
        paths = _paths(cfg, sg, params["n_paths"])
        return propagation_study(graph, cfg.q, cfg.r, cfg.d, paths, sg,
                                 solver_cfg, u0,
                                 frozen_constant=params["frozen_constant"],
                                 workers=workers)
    if name == "contraction_extension":
        path = _paths(cfg, sg, 1)[0]
        return contraction_extension_study(graph, cfg.q, path, sg, solver_cfg,
                                           workers=workers)
    if name == "apriori":
        paths = _paths(cfg, sg, params["n_paths"])
        return apriori_constants_study(graph, tuple(params["qs_linear"]),
                                       tuple(params["qs_square"]), paths, sg,
                                       solver_cfg, u0, workers=workers)
    raise MildlabError(f"unknown study {name!r}")


def _cmd_study(name: str, cfg: RunConfig, out: Path, workers: int) -> int:
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
    report.save(out / name)
    _write_manifest(cfg, out, f"study {name}",
                    [f"{name}/report.json", f"{name}/series.csv"])
    print(f"{report.study}: {report.verdict}")
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_ERROR


def _cmd_check_invariants(cfg: RunConfig, out: Path) -> int:
    from .verify import run_invariant_battery

    checks = run_invariant_battery(M=cfg.M, nu=cfg.nu, seed=cfg.master_seed)
    payload = {
        "checks": [
            {"name": c.name, "violation": c.violation,
             "tolerance": c.tolerance, "passed": c.passed}
            for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    atomic_write_text(out / "invariants" / "report.json",
                      json.dumps(payload, sort_keys=True, indent=2) + "\n")
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

    def common(p):
        p.add_argument("config", help="path to the JSON config file")
        p.add_argument("--workers", type=int, default=None,
                       help="worker pool size, >= 1 (default: config, then CPU count)")
        p.add_argument("--output-root", default=None,
                       help="root for output_dir (default: MILDLAB_OUTPUT_ROOT or '.')")

    common(sub.add_parser("sample-noise", help="sample and export noise paths"))
    common(sub.add_parser("solve", help="run the continuation and export trajectories"))
    study = sub.add_parser("study", help="run one named verification study")
    study.add_argument("name", help=f"one of: {', '.join(STUDY_KEYS)}")
    common(study)
    common(sub.add_parser("check-invariants", help="run the invariant battery"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_ERROR
    try:
        cfg = parse_config(Path(args.config).read_text())
    except OSError as exc:
        print(f"error reading config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MildlabError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    workers = args.workers or cfg.workers or os.cpu_count() or 1
    out = _output_dir(cfg, args.output_root)
    try:
        if args.subcommand == "sample-noise":
            return _cmd_sample_noise(cfg, out)
        if args.subcommand == "solve":
            return _cmd_solve(cfg, out)
        if args.subcommand == "study":
            return _cmd_study(args.name, cfg, out, workers)
        if args.subcommand == "check-invariants":
            return _cmd_check_invariants(cfg, out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MildlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
