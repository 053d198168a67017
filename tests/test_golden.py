"""Every corpus job's record, byte for byte against its stored copies: the
JSON record and the text record (stdout of `--output text`).

When a record is meant to change, regenerate its copies with
`PYTHONPATH=src python -m logforms.cli --input jobs/NAME.job > tests/golden/NAME.json`
and the same with `--output text > tests/golden/NAME.txt`.  Jobs stored beside
their records in `tests/golden` (kept out of the benchmark's corpus) have a
text record only.
"""

from pathlib import Path

import pytest

from logforms.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
JOBS = sorted((ROOT / "jobs").glob("*.job"))
TEXT_JOBS = sorted(JOBS + list(GOLDEN.glob("*.job")), key=lambda p: p.stem)


def test_every_job_has_one_golden_record():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [p.stem for p in JOBS]
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in TEXT_JOBS]


@pytest.mark.parametrize("jobfile", JOBS, ids=lambda p: p.stem)
def test_record_matches_golden(jobfile, capsys):
    assert main(["--input", str(jobfile)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{jobfile.stem}.json").read_text()


@pytest.mark.parametrize("jobfile", TEXT_JOBS, ids=lambda p: p.stem)
def test_text_record_matches_golden(jobfile, capsys):
    """The text record lists verdicts in the order the command set them."""
    assert main(["--input", str(jobfile), "--output", "text"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{jobfile.stem}.txt").read_text()
