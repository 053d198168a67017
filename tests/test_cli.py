"""Job parsing, dispatch, determinism and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from logforms.cli import main, run_job
from logforms.jobio import JobError, parse_job

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def test_parse_minimal_job():
    job = parse_job('ring { x, y, z };\ndivisor "x*y*z";\ncommand is-free;\n')
    assert job.ring == ["x", "y", "z"]
    assert job.divisor_text == "x*y*z"
    assert job.command == "is-free"


def test_parse_weighted_job():
    job = parse_job('ring { a, b };\nweights ( 2, 3 );\ndivisor "4*a^3 + 27*b^2";\ncommand is-free;\n')
    assert job.weights == [2, 3]


def test_parse_error_reports_position():
    with pytest.raises(JobError) as exc:
        parse_job('ring { x };\ndivisor "x*w";\ncommand is-free;\n')
    assert exc.value.line == 2


def test_parse_rejects_nonpositive_weights():
    with pytest.raises(JobError):
        parse_job('ring { x, y };\nweights ( 1, 0 );\ndivisor "x*y";\ncommand is-free;\n')


def test_parse_rejects_unknown_command():
    with pytest.raises(JobError):
        parse_job('ring { x };\ndivisor "x";\ncommand frobnicate;\n')


def test_parse_rejects_undeclared_parameter():
    with pytest.raises(JobError):
        parse_job('ring { x, y };\nparams { s };\ndivisor "x*y";\ncommand t1-log;\n')


@pytest.mark.parametrize("jobfile", sorted(JOBS.glob("*.job")), ids=lambda p: p.stem)
def test_echo_round_trip(jobfile):
    job = parse_job(jobfile.read_text())
    assert parse_job(job.echo()) == job


def test_record_echo_round_trip():
    text = (JOBS / "is_free_normal_crossing.job").read_text()
    job = parse_job(text)
    record = run_job(job)
    assert parse_job(record["input_echo"]) == job


def test_record_shape_and_values():
    job = parse_job((JOBS / "kev_four_planes.job").read_text())
    record = run_job(job)
    assert record["schema"] == "logforms/1"
    assert record["command"] == "kev-codim"
    assert record["dimensions"]["kev_codimension"]["value"] == 1
    assert record["flags"]["certified"] == "CERTIFIED"


def test_run_determinism_in_process():
    job_text = (JOBS / "mu_e_four_planes.job").read_text()
    a = json.dumps(run_job(parse_job(job_text)), sort_keys=True)
    b = json.dumps(run_job(parse_job(job_text)), sort_keys=True)
    assert a == b


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "logforms.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_cli_success_and_json(tmp_path):
    proc = _cli("--input", str(JOBS / "is_free_cross_ratio.job"))
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["verdicts"]["freeness"] == "FREE"
    assert record["certificates"]["saito_basis"]["unit"] in ("1", "-1")


def test_cli_subcommand_agreement(tmp_path):
    proc = _cli("is-free", "--input", str(JOBS / "is_free_normal_crossing.job"))
    assert proc.returncode == 0
    proc2 = _cli("derlog", "--input", str(JOBS / "is_free_normal_crossing.job"))
    assert proc2.returncode == 2


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.job"
    bad.write_text('ring { x };\ndivisor "x*w";\ncommand is-free;\n')
    proc = _cli("--input", str(bad))
    assert proc.returncode == 2
    assert "unknown variable" in proc.stderr


def test_cli_precondition_exit_code(tmp_path):
    bad = tmp_path / "nonreduced.job"
    bad.write_text('ring { x, y };\ndivisor "x^2*y";\ncommand is-free;\n')
    proc = _cli("--input", str(bad))
    assert proc.returncode == 3
    missing = tmp_path / "noparams.job"
    missing.write_text('ring { x, y };\ndivisor "x*y";\ncommand t1-log;\n')
    proc2 = _cli("--input", str(missing))
    assert proc2.returncode == 3


def test_cli_text_output():
    proc = _cli("--input", str(JOBS / "t1_four_planes.job"), "--output", "text")
    assert proc.returncode == 0
    assert "t1_log_relative: 1" in proc.stdout


def test_cli_flag_overrides_degree_bound():
    proc = _cli("--input", str(JOBS / "de_rham_plane_pair.job"), "--degree-bound", "4")
    record = json.loads(proc.stdout)
    degrees = set(record["tables"]["per_degree"])
    assert degrees == {str(d) for d in range(0, 5)}


@pytest.mark.parametrize("jobname, extra, argv", [
    ("de_rham_plane_pair", "option degree-bound -3;", []),
    ("is_free_normal_crossing", "option seed abc;", []),
    ("mu_e_four_planes", "option window abc;", []),
    ("is_free_normal_crossing", "option order foo;", []),
    ("de_rham_plane_pair", "", ["--degree-bound", "-1"]),
], ids=["degree-bound", "seed", "window", "order", "cli-degree-bound"])
def test_invalid_option_is_a_parse_error(tmp_path, capsys, jobname, extra, argv):
    job = tmp_path / "job.job"
    job.write_text((JOBS / f"{jobname}.job").read_text() + extra + "\n")
    assert main(["--input", str(job), *argv]) == 2
    assert "parse error: option" in capsys.readouterr().err
