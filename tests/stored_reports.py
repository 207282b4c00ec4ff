"""The tests' reader of stored report files.

A run writes each report as `<name>.csv` rows (time, measured, bound,
margin) and a `<name>.verdict` metadata file (`verify.dump_report`); the
engine itself only compares those files byte for byte, so the one parser of
them lives here."""

import os

from frontlab.grid import load_meta
from frontlab.verify import VerificationReport


def load_report(directory, name: str) -> VerificationReport:
    rows = []
    with open(os.path.join(directory, f"{name}.csv")) as fh:
        header = fh.readline()
        if header.strip() != "time,measured,bound,margin":
            raise ValueError(f"unexpected report CSV header: {header!r}")
        for line in fh:
            t, m, b, g = (float(p) for p in line.split(","))
            rows.append((t, m, b, g))
    verdict = os.path.join(directory, f"{name}.verdict")
    constants, notes = load_meta(verdict, required=("passed",), texts=("name", "passed"))
    constants.pop("name", None)
    passed = constants.pop("passed") == "true"
    return VerificationReport(name, passed, rows, constants, notes)
