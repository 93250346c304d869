"""Pinned bytes of the benchmark's four parts: every artifact's sha256 and the exit code.

Each part of ``perfbench/workloads.PARTS`` (read, not edited) runs through
``cli.main`` at the master seeds 20260101 and 1 and at ``--workers`` 1 and
2: 16 invocations, 72 artifacts.  Both worker counts must give the bytes
recorded below, so a refactor that moves any bit of what the benchmark runs
fails here.  A deliberate output change re-records the table (``python
tests/test_bench_digests.py`` prints it) and says what moved and why.  The
digests were recorded on Linux x86-64 with numpy 2.4 and OpenBLAS.  The
modal transforms are FFTs and the stepper is built without the BLAS; both
are tested to give the same bits under one and two BLAS threads.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mildlab.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import PARTS  # noqa: E402

SEEDS = (20260101, 1)


def run_part(name: str, seed: int, workers: int, root: Path) -> tuple[int, dict]:
    """(exit code, {artifact: sha256}) of one part's invocation under `root`."""
    part = PARTS[name]
    cfg = root / f"{name}.json"
    cfg.write_text(json.dumps(part.build_config(seed, name)))
    code = main([*part.command, str(cfg), "--workers", str(workers),
                 "--output-root", str(root)])
    out = root / name
    return code, {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(out.rglob("*")) if p.is_file()}


# (part, seed) -> (exit code, {artifact: sha256}), the same at --workers 1 and 2
PINNED = {
    ("solve-default", 20260101): (0, {
        "manifest.json":
            "302875260d1adbb1f034c261899ab4d2ae186c7f57033a92d370dc426867a9fe",
        "solution0.json":
            "11d57d4d79aa221a9af11e90f95cbcc6704246598d0f82301914e3b56d02000f",
        "solution0_u.npy":
            "e97274fe371f5cbd571e466a155d0bec865a64e3bf8783893c63c3dbacfa8554",
        "solution1.json":
            "16c624068bd4536f23debc52bc65d159ef087128012234418ee915df6cfe0d70",
        "solution1_u.npy":
            "50f174dcfa8cb90b181aabc6956813bdf4af2607b55762a076d0e21abe7105f1",
        "solution2.json":
            "a6b00ece3645cb7b81f9f72ca650bcfd081b0b4873a2ba34745e3d07b37336d2",
        "solution2_u.npy":
            "d2e1c5d970ab4916384c4bd423954ac5b9bb73690267e7c04e2c40c43b90c8da",
        "solution3.json":
            "9e6fda5cb4fe52b774515d7806543f05e27a304807382f02d74e23eef89563c3",
        "solution3_u.npy":
            "bb9ce726ee413030b1e874f15ee9803dc15e2a56c639ff244b1166d02a01b9d4",
    }),
    ("solve-default", 1): (0, {
        "manifest.json":
            "8053c6dd753feeaaea7f59377078121488dc4ede750fb03ca26e33ed58b705b2",
        "solution0.json":
            "050081e1e75b39abd3cfe07c318213df4c1b4d15cb10218598001d4b058f2f45",
        "solution0_u.npy":
            "64804fbdcc0962e698f476ff4df621bda78c5e752291fa1f9e751f415a8f8c46",
        "solution1.json":
            "4be897a0cd7a6b87f07bd106d2b328f18f708f2cdc718a201700b75098f87aa5",
        "solution1_u.npy":
            "0e757926ee94793f254061523c3aca3ebf45993a08c57b1543ab403b2fc50d42",
        "solution2.json":
            "f4b7850b8202c2133533365da877cb43125f20d06319cecf9203b70f29018da6",
        "solution2_u.npy":
            "30ef14ade8e51125d4607523af76ec2abe2c5e2d751b86a8c10b82ddfed52ccd",
        "solution3.json":
            "717e6cff452a62988b682f13b6199d513ac1fe9a9e04dbe8550c110667d97c7d",
        "solution3_u.npy":
            "8ce55d9ef4f2fef0edf65567f67163449fd8673227731f45ebb19dfbb2a95c69",
    }),
    ("solve-piecewise", 20260101): (0, {
        "manifest.json":
            "282591cbb57cc1e24faae65723afaece37c2925f284b727b638ddaa69c6d7a26",
        "solution0.json":
            "549108c202ccea7bea1339cf5b48141cdd018b0e88d5bb20c0f20921703dc9fc",
        "solution0_u.npy":
            "f4816bf02b6b743a28ac507884029114723af893a7e6edc5d5c2215afcd60cfe",
    }),
    ("solve-piecewise", 1): (0, {
        "manifest.json":
            "7fe10e5c3efa5801079ceabd498f92e64be9c15e93e027e3de431e3ea04fafaf",
        "solution0.json":
            "658ed95a4b84f50c2dd428bc49ff34297f3209ddbeb30c476ca14fe98dc57443",
        "solution0_u.npy":
            "4df713df2198b5fb801a3536be6e314d7732873d39c0d6ae68151b682a0b7f53",
    }),
    ("study-apriori", 20260101): (0, {
        "apriori/report.json":
            "e5aeb73264693a77af99f5920e1ebd6ea2410d64ce7b1411af8ae45f214a5ecb",
        "apriori/series.csv":
            "39af65f0f411aa89a350290969a876f24736455139f31f8943450b49a36c4e91",
        "manifest.json":
            "feedeffa26b8c7456336b7db11f0cbe6772a12349b7829b776af03d7177fb625",
    }),
    ("study-apriori", 1): (0, {
        "apriori/report.json":
            "810eb25a88721baad794413acf23b4579f290f750c54e7a08f813f1f3d762384",
        "apriori/series.csv":
            "39af65f0f411aa89a350290969a876f24736455139f31f8943450b49a36c4e91",
        "manifest.json":
            "31b7216a2443f5a18d9a58c4dc8c00d2aa7a68146c0274de8a4712d1f6c99da0",
    }),
    ("study-fine-sign", 20260101): (0, {
        "cauchy/report.json":
            "1a83a03e0ee1aca5140c506b65de6ee0009ed6f87a7a600099e44945016cc4b5",
        "cauchy/series.csv":
            "e09dea0a0c4cb1257b1ec458be4a41e0f222f30c3405d756cdb9a0c46c172643",
        "manifest.json":
            "6bea71b35754d0f1082d10534a82a7bf3dfd0decf37d35a4adcdd2b9792bccd6",
    }),
    ("study-fine-sign", 1): (0, {
        "cauchy/report.json":
            "2e347d3ada06d5ee815088c6f22e7102e09fe1c5deed489813058e107b3e0d6d",
        "cauchy/series.csv":
            "59128d7d8e32b9dfef62600c58b350a585d3744ec678cdd11528f91e9cfd0a7c",
        "manifest.json":
            "b1ce2063f4adc1f55407839f3f0fc6d2db4504a6edc77d2b427b11b0ac837f9b",
    }),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(PARTS))
def test_benchmark_part_bytes_are_pinned(name, seed, workers, tmp_path):
    assert run_part(name, seed, workers, tmp_path) == PINNED[name, seed]


def test_every_part_and_seed_is_pinned():
    assert set(PINNED) == {(name, seed) for name in PARTS for seed in SEEDS}


if __name__ == "__main__":
    import contextlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        runs = {}
        for name in sorted(PARTS):
            for seed in SEEDS:
                root = Path(tmp) / f"{name}-{seed}"
                root.mkdir()
                runs[name, seed] = run_part(name, seed, 1, root)
    print("PINNED = {")
    for (name, seed), (code, digests) in runs.items():
        print(f"    ({name!r}, {seed}): ({code}, {{")
        for artifact, digest in digests.items():
            print(f"        {artifact!r}:\n            {digest!r},")
        print("    }),")
    print("}")
