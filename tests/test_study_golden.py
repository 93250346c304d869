"""Pinned output bytes: sha256 of the artifacts of six studies, solve and sample-noise.

Each command runs through ``cli.main`` with ``--workers 1`` on a small fixed
config.  The digests pin what the noise sampler, the solver, the L^q
reductions and the report layer produce together, so a refactor of the
stepper or of a study must leave every one of them unchanged.  They were recorded on Linux x86-64 with
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


# every artifact a command lists in its manifest, on BASE (+ the study's section)
COMMANDS = {
    "contraction_extension": ["study", "contraction_extension"],
    "propagation": ["study", "propagation"],
    "sample-noise": ["sample-noise"],
    "solve": ["solve"],
}
ARTIFACTS = {
    "contraction_extension": {
        "contraction_extension/report.json":
            "8dee2f5af9456b241b6c23935e3475e2d887e0ab018f0cf2120d02df8b897cee",
        "contraction_extension/series.csv":
            "54def3926d1151bb806c425a0b3fb22336ab39bde3edc53631a40efd4dac8bab",
    },
    "propagation": {
        "propagation/report.json":
            "3a6f6190a72552494acb5dd92d703166368c0453801c6c50c14d98c629c69fac",
        "propagation/series.csv":
            "f63614629f990df0151016eb0eddc75c2f443a35e559912a7cd9be436c64af37",
    },
    "sample-noise": {
        "noise_path0.csv":
            "af7b43a81239d8a52ef815d6d355353b3525b880cc43516a83fe406f48d1536c",
        "noise_path0.json":
            "a96a2fc2d76bf7c0f2cb85929e3c0ad67fa9ca2dd10233bbea2bbfd7173eb01d",
        "noise_path1.csv":
            "e7117a26accdf052ad3e521a076513ad1d6d3a80b40938440914e4e42a8aa338",
        "noise_path1.json":
            "0145d977ec4970698a152ee95826031580ddfd72a22f7a6298be7c2ac6c368bb",
        "noise_path2.csv":
            "ee2252cfb275939b6c0cd0c49356a64914122c2fc51322bec7cb5cc94b4f5919",
        "noise_path2.json":
            "b3ece7ef09503cf5593211445f310aa08ac9687e1f6ff85cfcf95d0a2a4f9387",
    },
    "solve": {
        "solution0.json":
            "e93e7130ea85a9307dd4551b81d3e1df6db7c74a81a4871ef75bb34c791b6e48",
        "solution0_g.csv":
            "f0f4fbafb095f2e58a4022ed65afcefa9a046e57f44d530026fb79c8889bbe17",
        "solution0_u.csv":
            "bb0bc6af3100b482530bb33645553a893aa3177ede71d95e7032c0ea5f472fb3",
        "solution1.json":
            "2a6ce08958bff02b4f1c58aa966e25fa7aaa7f96fcd242916f0cdbe994e4e87e",
        "solution1_g.csv":
            "a076add7c54a063b707e66a67ce74d59def28de393e1d5884ef828d56dca27c5",
        "solution1_u.csv":
            "afae69ee990b5044edc14986fbf0c51ab514192d0d255b7948aa19575735105a",
        "solution2.json":
            "12cdbbef3cd71bbb4f1eb0416f75ad79a6cb0556711bec55e7730f53c79cb9f2",
        "solution2_g.csv":
            "5cc53a79bbb9e48c27ccad11cd24f4941b3bd11c0268660e41a2b2bf1fece2ce",
        "solution2_u.csv":
            "33f82eedd8e093524c64be3934191c4b228591ba1d1d287260c1172befd1746a",
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_bytes_are_pinned(name, tmp_path):
    command = COMMANDS[name]
    cfg = tmp_path / "config.json"
    section = {"studies": {command[1]: {}}} if command[0] == "study" else {}
    cfg.write_text(json.dumps({**BASE, **section}))
    code = main([*command, str(cfg), "--workers", "1", "--output-root", str(tmp_path)])
    assert code == 0
    out = tmp_path / "golden"
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert {a: sha256(out / a) for a in listed} == ARTIFACTS[name]
