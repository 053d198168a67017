"""Every corpus job's record, byte for byte against its stored copy.

When a record is meant to change, regenerate its copy with
`PYTHONPATH=src python -m logforms.cli --input jobs/NAME.job > tests/golden/NAME.json`.
"""

from pathlib import Path

import pytest

from logforms.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
JOBS = sorted((ROOT / "jobs").glob("*.job"))


def test_every_job_has_one_golden_record():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [p.stem for p in JOBS]


@pytest.mark.parametrize("jobfile", JOBS, ids=lambda p: p.stem)
def test_record_matches_golden(jobfile, capsys):
    assert main(["--input", str(jobfile)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{jobfile.stem}.json").read_text()
