"""Pinned output bytes: sha256 of the artifacts of every study, solve and sample-noise.

Each command runs through ``cli.main`` with ``--workers 1`` on a small fixed
config.  The digests pin what the noise sampler, the solver, the L^q
reductions and the report layer produce together, so a refactor of the
stepper or of a study must leave every one of them unchanged.  They were
recorded on Linux x86-64 with numpy 2.4 and OpenBLAS.  The modal transforms
are FFTs and the stepper is built without the BLAS; both are tested to give
the same bits under one and two BLAS threads.
"""

import hashlib
import json

import pytest

from mildlab.cli import main
from mildlab.config import STUDY_KEYS

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
    # the zero datum's violation is positive, so the first-order check runs
    "chain_rule": {"initial": {"kind": "zero"}, "studies": {"chain_rule": {}}},
    "bernoulli": {"studies": {"bernoulli": {}}},
    "eiconv": {"studies": {"eiconv": {}}},
}
GOLDEN = {
    "apriori": ("31ca5c8cb0ef0237a3d31476951ab2fad74bc5d1e5f87987ef22e6a3b2a5d268",
                "dee4df1ff0a4b4b32a3de7980564a8c879c276dae936a1c2e2409dc190a0f267"),
    "bernoulli": ("2138165ed7da3d0004a53bf4b3f2927443a2e4f3dc52bea68393d096349540e5",
                  "1917fecf61796963b4dfa0b3fa6493dcea6d4e6e47cd9b020a4ddb2c7a9e9576"),
    "cauchy": ("49aa44de826bab9e119e3f83351fb60939c5d087530a463adc9ca60c5c07ffdb",
               "1520cdeb39b67f2eb1c8a4ad78a217d81fc23cbd6b0a59d827268e43e96aa722"),
    "chain_rule": ("4f9885157b00e427be07d3695c9f3e2b139de29c31bc58d3a360714e23a581aa",
                   "e3f12e08043d119f277a098eb5358760000aa16d5c5c0a08b5c59fba244449ea"),
    "eiconv": ("66923c4378c864104649556a0c1ed1888962888423147a53630447e813c20394",
               "b3087011eef59ce1d31e90a19726ad18df95ed26282fe1e7258a546b61b86062"),
    "l1": ("d0fde1f333c198626ecefdb4c3beb0f66a614449f27e00fbcaec663664134b61",
           "1a7e6b4e87b77ae525dfd3b7841a5284243c1fbed748f95e0f8dc321781d8700"),
    "moment": ("ae6d942f7de7be777c8d8dcde6ee49633a65c1097e56a64345d6bb27ff758c19",
               "2868d65f5fe98fd7138f162dc4281c189762b370dd1cb92cdbe07efa8dc6c38d"),
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
            "76e405e7b2306a39d4edcbe1f3a029ff12d4b2cc0a6e651ff7c00a2c7d79f15c",
        "contraction_extension/series.csv":
            "54def3926d1151bb806c425a0b3fb22336ab39bde3edc53631a40efd4dac8bab",
    },
    "propagation": {
        "propagation/report.json":
            "e4aa1a3f47f08c4d609f4a7f76d52b08c3b761533fe807f147fe9f8bdcb7176f",
        "propagation/series.csv":
            "961eb36e4317be6c617906d1e273553a927e8f86f2051c20e464752cbaa6105d",
    },
    "sample-noise": {
        "noise_path0.csv":
            "49da68f922471c9f6d64285376264a1ec37f92011cd89901d338b7ca07c9c01d",
        "noise_path0.json":
            "a96a2fc2d76bf7c0f2cb85929e3c0ad67fa9ca2dd10233bbea2bbfd7173eb01d",
        "noise_path1.csv":
            "64751f8c18e735687cd3f1d0cafe6844a43ed3c319afa801780b85f3f62b55de",
        "noise_path1.json":
            "0145d977ec4970698a152ee95826031580ddfd72a22f7a6298be7c2ac6c368bb",
        "noise_path2.csv":
            "4c192cac2e772fb50cba47723ea2adefe1484b4d278f2322532ad99cd18db840",
        "noise_path2.json":
            "b3ece7ef09503cf5593211445f310aa08ac9687e1f6ff85cfcf95d0a2a4f9387",
    },
    "solve": {
        "solution0.json":
            "169f13a99d15547428bbdabf66fe93f3f9ce80e93852b33bb95477d643193813",
        "solution0_u.npy":
            "05ecb92ba40af94e80891cb7aca5e5714453eb5863a6bab4061321be18443274",
        "solution1.json":
            "5fd2a50061968387ee459ca618a97399c799619d56bca171bfe5dfbf038e0521",
        "solution1_u.npy":
            "9c58c681fce6f76fd79c024b0f08e8efe59e395be227f3c6f2a788a0d8f5ad77",
        "solution2.json":
            "e6e0e988caac13754eb76f581cb94790bc6968aec91f852472c5824a5405138a",
        "solution2_u.npy":
            "31f35709eb2635cf5a384542048304bbbd3f04d82d0441ab99a0df3525967c86",
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
    # nothing is written that the manifest does not list
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == {"manifest.json", *listed}


def test_every_study_is_pinned():
    pinned = set(GOLDEN) | {command[1] for command in COMMANDS.values() if command[0] == "study"}
    assert pinned == set(STUDY_KEYS)


# solve through the generic root engine, and the check-invariants battery, which
# runs apply_semigroup, yosida_of_yosida_array and the engine on the quartic
ENGINE_CASES = {
    "check-invariants": (["check-invariants"], {}),
    "solve-piecewise": (["solve"], {
        "drift": {"kind": "piecewise", "breakpoints": [0.0],
                  "expressions": ["x**3 - 1", "x**3 + 1"], "d": 3, "C_f": 2},
        "lambda_schedule": [2.0**-6, 2.0**-7, 2.0**-8]}),
}
ENGINE_ARTIFACTS = {
    "check-invariants": {
        "invariants/report.json":
            "3ef8504e968a91bdb48e2dbe345287764e88cfe09a53c17a3114195565f6db5a",
    },
    "solve-piecewise": {
        "solution0.json":
            "b96e1dcec04a2ab34dd2e05b6d11625fbfe476e8e8d6380d15f956b1d57c5fb8",
        "solution0_u.npy":
            "6bbabd66a28e29444b33e34747c3196ea8ea3bfa6043ccb16374ffbb31feeb38",
        "solution1.json":
            "95c803feb4351022bd072417a19143a75fa57fafe5cb75b3be99888d9b446d45",
        "solution1_u.npy":
            "ee6450f6e209007b0be5587233880c767dbdee5ab0b7339f8f7f0f03a4735ef7",
        "solution2.json":
            "4da9f9a41a250391049101338b2b92a7567ab1d1dac1d03a71b6436d6eeae6ac",
        "solution2_u.npy":
            "36d82e70c58724072581f9d8ac71ed8687d41c415d1c0c78cc723e25f4644510",
    },
}


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_and_battery_bytes_are_pinned(name, tmp_path):
    command, section = ENGINE_CASES[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**BASE, **section}))
    code = main([*command, str(cfg), "--workers", "1", "--output-root", str(tmp_path)])
    assert code == 0
    out = tmp_path / "golden"
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert {a: sha256(out / a) for a in listed} == ENGINE_ARTIFACTS[name]
