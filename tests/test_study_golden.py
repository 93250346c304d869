"""Pinned study bytes: sha256 of report.json and series.csv for four studies.

Each study runs through ``cli.main`` with ``--workers 1`` on a small fixed
config.  The digests pin what the solver, the L^q reductions and the report
layer produce together, so a refactor of the stepper or of a study must
leave every one of them unchanged.  They were recorded on Linux x86-64 with
numpy 2.4 and OpenBLAS; at these grid sizes the transforms' bits do not
depend on the BLAS thread count.
"""

import hashlib
import json

import pytest

from mildlab.cli import main

BASE = {
    "grid": {"M": 31, "nu": 1.0},
    "time": {"T": 0.25, "delta": 2.0**-8},
    "seeds": {"master": 20260101, "n_paths": 3},
    "output_dir": "golden",
}
CONFIGS = {
    "cauchy": {"studies": {"cauchy": {}}},
    "l1": {"drift": {"kind": "sign"}, "studies": {"l1": {}}},
    "moment": {"grid": {"M": 15, "nu": 1.0}, "time": {"T": 0.0625, "delta": 2.0**-8},
               "seeds": {"master": 20260101, "n_paths": 100}, "studies": {"moment": {}}},
    "apriori": {"studies": {"apriori": {}}},
}
GOLDEN = {
    "apriori": ("31ca5c8cb0ef0237a3d31476951ab2fad74bc5d1e5f87987ef22e6a3b2a5d268",
                "dee4df1ff0a4b4b32a3de7980564a8c879c276dae936a1c2e2409dc190a0f267"),
    "cauchy": ("bc4d61594fa2a6720a8a81502842c108a3e1854561361f02af1ac81612a1264a",
               "fc6651fd9f113f8d465e850afe0c103c753c69072c3e8ba3877667f4ef453161"),
    "l1": ("30bb0e879082357c18a28fc680a537ed1dc1ffd36364ce569d2a9b4e98ea5886",
           "98c11ac37c2008f6902be7e51cf10e3e43b289031a7dd64b7695eefdf915f071"),
    "moment": ("526f07f6f248a3bc6ca0433b31b1390912cfecc55421a53a99da71f8a0888e08",
               "9897b7b0012fceeb001106a8481d7787a13dc582cf5b3f304c9c0f29fde5ea6e"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_study_bytes_are_pinned(name, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**BASE, **CONFIGS[name]}))
    code = main(["study", name, str(cfg), "--workers", "1", "--output-root", str(tmp_path)])
    assert code == 0
    out = tmp_path / "golden" / name
    assert (sha256(out / "report.json"), sha256(out / "series.csv")) == GOLDEN[name]
