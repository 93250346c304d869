"""Pinned artifact bytes: sha256 of small fixed exports.

The inputs are built by exact arithmetic, without the solver or BLAS, so the
digests do not depend on the platform.  They pin the bytes the export layer
writes: CRLF rows "time,node,value" in the noise CSVs, LF rows in a study's
series.csv, the .17g digits and the report's JSON layout.  A rewrite of the
export layer must keep both digests, and the series export must write what a
plain csv.writer loop writes for any values.
"""

import csv
import hashlib

import numpy as np
import pytest

from mildlab.atomic import atomic_writer
from mildlab.grid_space import FieldSeries, Grid
from mildlab.noise import export_series_csv
from mildlab.verify import StudyReport

SERIES_CSV_SHA256 = "83a2f94414f737dec27e0780704e30e7502cca4028333294bdf9b18b6d04ce6c"
STUDY_REPORT_SHA256 = {
    "report.json": "edc71b7577d403f01556b61eb21acd97a1b3fd3f4057b5885c838071f13c04c4",
    "series.csv": "97372979d9c3e9bedc7a547930ddc620238855ef48914e73ef12a96c119185bc",
}


def fixed_series() -> tuple[FieldSeries, np.ndarray]:
    """Four snapshots on a 3-node grid with short, long and exponent digits."""
    values = np.arange(12, dtype=float).reshape(4, 3) / 7.0 - 0.5
    values[1, 1] = -2.5e-17
    values[2, 0] = 1e300
    values[3, 2] = 0.0
    return FieldSeries(Grid(3), values), np.arange(4) / 3.0


def fixed_report() -> StudyReport:
    report = StudyReport(
        study="golden",
        claim="fixed synthetic report",
        inputs={"seeds": [3, 1], "q": 1.5, "drift": "sign"},
        series={"b_series": [1.0 / 3.0, -0.0, 1e-300], "a_series": [2, 0.1]},
        fitted={"slope": 2.0 / 3.0, "nan": float("nan")},
        thresholds={"slack": 1e-8},
        checks={"holds": True, "second": True},
    )
    return report.finalize()


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_export_series_csv_bytes(tmp_path):
    fields, times = fixed_series()
    dest = tmp_path / "series_u.csv"
    export_series_csv(fields, times, dest)
    data = dest.read_bytes()
    assert data.count(b"\r\n") == 1 + 4 * 3
    assert sha256(dest) == SERIES_CSV_SHA256


def reference_series_csv(fields: FieldSeries, times: np.ndarray, dest) -> None:
    """The series export written one csv.writer row at a time."""
    with open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "node", "value"])
        for n, row in enumerate(fields.values):
            t = f"{times[n]:.17g}"
            for i, value in enumerate(row):
                writer.writerow([t, i + 1, f"{value:.17g}"])


def test_export_series_csv_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(20260101)
    values = rng.standard_normal((65, 31)) * 10.0 ** rng.integers(-300, 300, (65, 31))
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, 1.0 / 3.0]
    values[rng.integers(0, 65, 40), rng.integers(0, 31, 40)] = rng.choice(specials, 40)
    values[0, :len(specials)] = specials
    times = np.arange(65) / 3.0
    times[1] = -0.0
    fields = FieldSeries(Grid(31), values)
    export_series_csv(fields, times, tmp_path / "fast.csv")
    reference_series_csv(fields, times, tmp_path / "reference.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_study_report_save_bytes(tmp_path):
    fixed_report().save(tmp_path / "golden")
    assert b"\r" not in (tmp_path / "golden" / "series.csv").read_bytes()
    assert {name: sha256(tmp_path / "golden" / name)
            for name in STUDY_REPORT_SHA256} == STUDY_REPORT_SHA256


@pytest.mark.parametrize("previous", [None, b"previous .npy bytes"])
def test_failed_binary_write_leaves_dest(tmp_path, previous):
    # the text writer's temp file and rename, here on bytes that stop partway
    dest = tmp_path / "solution0_u.npy"
    if previous is not None:
        dest.write_bytes(previous)
    values = np.arange(64 * 31, dtype=float).reshape(64, 31)
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_writer(dest, binary=True) as fh:
            np.lib.format.write_array(fh, values[:32], version=(1, 0), allow_pickle=False)
            fh.flush()
            assert len(list(tmp_path.iterdir())) == 1 + (previous is not None)
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == ([] if previous is None else [dest])
    assert previous is None or dest.read_bytes() == previous
    with atomic_writer(dest, binary=True) as fh:
        np.lib.format.write_array(fh, values, version=(1, 0), allow_pickle=False)
    assert list(tmp_path.iterdir()) == [dest]
    assert np.load(dest, allow_pickle=False).tobytes() == values.tobytes()
