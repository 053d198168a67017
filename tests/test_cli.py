"""Job parsing, dispatch, determinism and exit codes."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logforms.cli import HANDLERS, main, run_job
from logforms.jobio import COMMANDS, STATEMENTS, JobError, JobSpec, parse_job
from logforms.order import FIELD_MAX

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


def test_cli_rejects_a_power_too_large_to_expand(tmp_path):
    """(x+y+z)^200 has 20301 terms: the job exits 2 before it is multiplied
    out (it never finished before the bound)."""
    job = tmp_path / "power.job"
    job.write_text('ring { x, y, z };\ndivisor "(x+y+z)^200";\ncommand is-free;\n')
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "logforms.cli", "--input", str(job)],
                          capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert "power may expand to more than 1000 terms" in proc.stderr


def test_cli_rejects_a_power_too_costly_to_expand(tmp_path):
    """(x+y)^999 has 1000 terms, inside the term bound, but took 2.4 s to
    multiply out: the job exits 2 before it is."""
    job = tmp_path / "power.job"
    job.write_text('ring { x, y };\ndivisor "(x+y)^999";\ncommand is-free;\n')
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "logforms.cli", "--input", str(job)],
                          capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert "power may take more work to expand than the bound of 200000" in proc.stderr


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
    """The flag takes the place of the job's `option degree-bound 8`: the
    omega-check table stops at degree 4."""
    proc = _cli("--input", str(JOBS / "omega_check_normal_crossing.job"), "--degree-bound", "4")
    record = json.loads(proc.stdout)
    assert record["options"]["degree-bound"] == 4
    degrees = set(record["tables"]["graded_dimensions"]["values"])
    assert degrees == {str(d) for d in range(0, 5)}


@pytest.mark.parametrize("jobname, extra, argv", [
    ("de_rham_plane_pair", "option degree-bound -3;", []),
    ("is_free_normal_crossing", "option seed abc;", []),
    ("mu_e_four_planes", "option jet-cap 0;", []),
    ("de_rham_plane_pair", "", ["--degree-bound", "-1"]),
], ids=["degree-bound", "seed", "jet-cap", "cli-degree-bound"])
def test_invalid_option_is_a_parse_error(tmp_path, capsys, jobname, extra, argv):
    job = tmp_path / "job.job"
    job.write_text((JOBS / f"{jobname}.job").read_text() + extra + "\n")
    assert main(["--input", str(job), *argv]) == 2
    assert "parse error: option" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("window", "4"), ("order", "lex")],
                         ids=["window", "order"])
def test_removed_options_exit_2(tmp_path, capsys, option, value):
    """The `mu-e` de Rham route counts one finite table and reads no
    window, so there is no `window` option, and every answer is read in one term order, so there
    is no `order` option: each flag is an unknown argument and each job
    option an unknown option, both exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(["--input", str(JOBS / "mu_e_four_planes.job"), f"--{option}", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{option}" in capsys.readouterr().err
    job = tmp_path / "job.job"
    job.write_text((JOBS / "mu_e_four_planes.job").read_text() + f"option {option} {value};\n")
    assert main(["--input", str(job)]) == 2
    assert f"parse error: unknown option '{option}'" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(tmp_path, capsys):
    """A subcommand on the command line must be one of `COMMANDS`, also for
    a job that names no command of its own."""
    job = tmp_path / "job.job"
    job.write_text('ring { x, y };\ndivisor "x*y";\n')
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--input", str(job)])
    assert exc.value.code == 2
    assert "unknown command 'frobnicate'" in capsys.readouterr().err
    assert main(["is-free", "--input", str(job)]) == 0


# One single-fault job per JobError site: (id, job text, message, (line, column)
# of the fault, or None where the message carries no position).
JOB_ERRORS = [
    ("character", 'ring { x };\n@', "unexpected character '@'", (2, 1)),
    ("unterminated", 'ring { x };\ndivisor "x;\n', "unterminated string", (2, 9)),
    ("keyword", "{ x };", "expected statement keyword, found '{'", (1, 1)),
    ("statement", 'ring { x };\nsurface "x";', "unknown statement 'surface'", (2, 1)),
    ("semicolon", 'ring { x }\ndivisor "x";', "expected ';', found 'divisor'", (2, 1)),
    ("command", "command frobnicate;", "unknown command 'frobnicate'", (1, 9)),
    ("option-key", "option 3 4;", "unknown option '3'", (1, 8)),
    ("option-value", 'option seed "x";', "expected option value, found 'x'", (1, 13)),
    ("names", "ring { x, 1 };", "expected identifier, found '1'", (1, 11)),
    ("ints", "ring { x };\nweights ( a );", "expected integer, found 'a'", (2, 11)),
    ("strings", "ring { x };\ntarget-ring { w };\nmap ( x );",
     "expected quoted polynomial, found 'x'", (3, 7)),
    ("field-vector", 'ring { x };\nfields { "x" };', "expected '(', found 'x'", (2, 10)),
    ("duplicate-ring", "ring { x, x };", "duplicate variable in ring", None),
    ("duplicate-target-ring", "target-ring { w, w };", "duplicate variable in target-ring", None),
    ("duplicate-unfolding-ring", "unfolding-ring { u, u };",
     "duplicate variable in unfolding-ring", None),
    ("duplicate-unfolding-target", "unfolding-target { U, U };",
     "duplicate variable in unfolding-target", None),
    ("weights-length", "ring { x, y };\nweights ( 1 );", "weights length does not match ring", None),
    ("weights-positive", "ring { x, y };\nweights ( 1, 0 );", "weights must be strictly positive", None),
    ("target-weights-length", "target-ring { w };\ntarget-weights ( 1, 1 );",
     "target-weights length does not match target-ring", None),
    ("target-weights-positive", "target-ring { w };\ntarget-weights ( -1 );",
     "target-weights must be strictly positive", None),
    ("unfolding-weights-length", "unfolding-target { U };\nunfolding-weights ( );",
     "unfolding-weights length does not match unfolding-target", None),
    ("unfolding-weights-positive", "unfolding-target { U };\nunfolding-weights ( 0 );",
     "unfolding-weights must be strictly positive", None),
    ("params", "ring { x, y };\nparams { t };", "parameter 't' is not a ring variable", (2, 10)),
    ("divisor", 'ring { x };\ndivisor "x*w";', "divisor: unknown variable 'w'", (2, 10)),
    ("target-divisor", 'target-ring { w };\ntarget-divisor "w*x";',
     "target-divisor: unknown variable 'x'", (2, 17)),
    ("map", 'ring { x };\ntarget-ring { w };\nmap ( "y" );',
     "map component: unknown variable 'y'", (3, 8)),
    ("field", 'ring { x };\nfields { ("y") };', "field coefficient: unknown variable 'y'", (2, 12)),
    ("unfolding-map", 'unfolding-ring { u };\nunfolding-target { U };\nunfolding-map ( "v" );',
     "unfolding-map component: unknown variable 'v'", (3, 18)),
    ("unfolding-discriminant", 'unfolding-target { U };\nunfolding-discriminant "V";',
     "unfolding-discriminant: unknown variable 'V'", (2, 25)),
    ("inclusion", 'target-ring { w };\nunfolding-target { U };\ninclusion ( "v" );',
     "inclusion component: unknown variable 'v'", (3, 14)),
    ("map-arity", 'ring { x };\ntarget-ring { w, z };\nmap ( "x" );',
     "map needs one component per target variable", None),
    ("field-arity", 'ring { x, y };\nfields { ("x") };',
     "each field needs one coefficient per ring variable", None),
    ("unfolding-map-arity", 'unfolding-ring { u };\nunfolding-target { U, V };\nunfolding-map ( "u" );',
     "unfolding-map needs one component per unfolding-target variable", None),
    ("inclusion-arity", 'target-ring { w };\nunfolding-target { U, V };\ninclusion ( "w" );',
     "inclusion needs one component per unfolding-target variable", None),
    ("divisor-without-ring", 'divisor "1";', "divisor given without a ring", None),
    ("inclusion-without-ring", 'unfolding-target { U };\ninclusion ( "0" );',
     "inclusion needs a target-ring (the source of the inclusion)", None),
    ("duplicate-params", "ring { x, s };\nparams { s, s };", "duplicate variable in params", None),
    ("duplicate-ext-params", "ring { x, s };\next-params { s, s };",
     "duplicate variable in ext-params", None),
    ("map-variable-in-target-ring", 'ring { x };\ntarget-ring { w };\nmap ( "w" );',
     "map component: unknown variable 'w'", (3, 8)),
    ("params-name-in-keyword", "ring { x };\nparams { s };", "parameter 's' is not a ring variable",
     (2, 10)),
    ("ext-params-name-in-other-name", "ring { xs };\next-params { xs, s };",
     "parameter 's' is not a ring variable", (2, 18)),
    ("params-and-ext-params", "ring { x, s, t };\nparams { s, t };\next-params { t };",
     "parameter 't' is in both params and ext-params", (3, 14)),
    ("superscript-exponent", 'ring { x };\ndivisor "x^²";', "divisor: unexpected character '²'",
     (2, 10)),
    ("superscript-option", "option degree-bound ²;", "unexpected character '²'", (1, 21)),
    ("nesting", 'ring { x };\ndivisor "' + "(" * 300 + "x" + ")" * 300 + '";',
     "divisor: parentheses nested deeper than 100", (2, 10)),
    ("power", 'ring { x, y, z };\ndivisor "(x+y+z)^200";',
     "divisor: power may expand to more than 1000 terms", (2, 10)),
    ("product", 'ring { x, y, z };\ndivisor "(x+y+z)^43*(x+y+z)^43";',
     "divisor: product may expand to more than 1000 terms", (2, 10)),
]


@pytest.mark.parametrize("text, message, position", [c[1:] for c in JOB_ERRORS],
                         ids=[c[0] for c in JOB_ERRORS])
def test_job_error_message_and_position(text, message, position):
    with pytest.raises(JobError) as exc:
        parse_job(text + "\n")
    assert exc.value.message == message
    assert (exc.value.line, exc.value.col) == (position or (0, 0))


# Text a mutation inserts into a corpus job: job punctuation, comment and
# quote marks, numeric characters that are not decimal digits ('²', '½'), one
# that is ('٣'), a letter beyond ASCII, and runs of '(' deep enough to exhaust
# a recursive parser.
_INSERTS = st.one_of(st.text(st.sampled_from('{}(),;#"²½٣é'), min_size=1, max_size=3),
                     st.integers(1, 400).map(lambda n: "(" * n))


@given(st.sampled_from(sorted(JOBS.glob("*.job"))), st.data())
@settings(max_examples=300, deadline=None)
def test_parse_job_raises_nothing_but_job_error(jobfile, data):
    """Each example inserts one text into a corpus job, anywhere or right
    after a quote mark or an operator, where it lands inside a polynomial
    more often."""
    text = jobfile.read_text()
    after_operator = [i + 1 for i, ch in enumerate(text) if ch in '"*^+-']
    pos = data.draw(st.one_of(st.integers(0, len(text)), st.sampled_from(after_operator)))
    mutated = text[:pos] + data.draw(_INSERTS) + text[pos:]
    try:
        assert isinstance(parse_job(mutated), JobSpec)
    except JobError:
        pass


def test_every_command_has_one_handler():
    assert list(HANDLERS) == list(COMMANDS)


def test_each_polynomial_is_parsed_once(call_counter, capsys):
    """The job layer parses each of the six polynomial strings of the job
    onto the JobSpec, and the commands read them from there."""
    calls = call_counter("poly", "parse_poly")
    assert main(["--input", str(JOBS / "mu_e_four_planes.job")]) == 0
    assert len(calls) == 6


def test_job_file_not_utf8_exits_2(tmp_path, capsys):
    job = tmp_path / "job.job"
    job.write_bytes(b'ring { x };\n# \xff\ndivisor "x";\ncommand is-free;\n')
    assert main(["--input", str(job)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {job}: ")


def test_repeated_parameter_is_a_parse_error(tmp_path, capsys):
    job = tmp_path / "job.job"
    job.write_text((JOBS / "t1_four_planes.job").read_text().replace("params { s };",
                                                                     "params { s, s };"))
    assert main(["--input", str(job)]) == 2
    assert "duplicate variable in params" in capsys.readouterr().err


def test_readme_grammar_lists_the_statement_table():
    readme = (JOBS.parent / "README.md").read_text()
    block = readme.split("### Job file grammar", 1)[1].split("```")[1]
    keywords = [line.split()[0] for line in block.splitlines() if line.strip()]
    assert keywords == [*STATEMENTS, "command", "option"]


def test_ae_codim_jet_cap_run_out_exits_4(tmp_path, capsys):
    job = tmp_path / "job.job"
    job.write_text('ring { x, y };\ntarget-ring { X, Y };\nmap ( "x", "y^3" );\n'
                   'option jet-cap 8;\ncommand ae-codim;\n')
    assert main(["--input", str(job)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-stabilization" in captured.err


def test_exponent_beyond_the_packed_field_exits_4(tmp_path, capsys):
    """A divisor with an exponent beyond the Groebner kernel's packed field
    stops with exit 4 and names the bound, never a wrapped-around answer."""
    job = tmp_path / "job.job"
    job.write_text(f'ring {{ x, y }};\ndivisor "x^{FIELD_MAX + 1}*y + y^3";\ncommand is-free;\n')
    assert main(["--input", str(job)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-stabilization" in captured.err and str(FIELD_MAX) in captured.err


def _germ_job(tmp_path, comps: str) -> Path:
    job = tmp_path / "job.job"
    job.write_text(f'ring {{ x, y }};\ntarget-ring {{ X, Y }};\nmap ( {comps} );\n'
                   'command ae-codim;\n')
    return job


def test_ae_codim_direct_route_alone_is_certified(tmp_path, capsys):
    """Without unfolding data the slice route is the only route, and its
    stop is proven: (x, xy+y^5) has A_e-codimension 3, CERTIFIED."""
    assert main(["--input", str(_germ_job(tmp_path, '"x", "x*y+y^5"'))]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["routes"] == ["direct"]
    assert record["dimensions"]["ae_codim_direct"]["value"] == 3
    assert record["verdicts"] == {"finite": True}
    assert record["flags"]["certified"] == "CERTIFIED"


def test_ae_codim_of_a_germ_that_is_not_finitely_determined_exits_4(tmp_path, capsys):
    """(x, xy^2+y^4) is not finitely determined: its slices never close the
    window, and the jet-cap bound on the nonzero slices above D0 runs out."""
    assert main(["--input", str(_germ_job(tmp_path, '"x", "x*y^2+y^4"'))]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("non-stabilization: ") and "jet-cap 20" in captured.err


# the lips after the target change (X, W) -> (X, W + X^2), with the lips'
# stable unfolding and the inclusion (X, W - X^2, 0)
UNWEIGHTED_LIPS = (JOBS / "ae_codim_lips.job").read_text().replace(
    "target-weights ( 1, 3 );\n", "").replace(
    '"y^3 + x^2*y"', '"y^3 + x^2*y + x^2"').replace('"W" )', '"W - X^2" )')


@pytest.mark.parametrize("text", [
    'ring { x, y };\ntarget-ring { X, Y };\nmap ( "x", "y^3+x*y^4" );\ncommand ae-codim;\n',
    UNWEIGHTED_LIPS], ids=["x,y^3+x*y^4", "lips-after-a-target-change"])
def test_ae_codim_without_weights_exits_3(tmp_path, capsys, text):
    """(x, y^3+x*y^4) has no positive weights making both components
    homogeneous (3 w_y = w_x + 4 w_y), so the graded count does not apply.
    Nor has the lips after a target change, and the unfolding data its job
    gives do not help: on data without weights the Damon count is global,
    not shown local."""
    job = tmp_path / "job.job"
    job.write_text(text)
    assert main(["--input", str(job)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs positive weights" in captured.err


@pytest.mark.parametrize("comps", ['"x", "x*y"', '"0", "0"'], ids=["x*y", "zero"])
def test_ae_codim_of_a_germ_that_is_not_k_finite_is_infinite(tmp_path, capsys, comps):
    """(x, x*y) and the zero germ are not K-finite, so T A_e f, inside
    T K_e f + C^2, has infinite codimension: INFINITE with `finite: False`,
    exit 0."""
    assert main(["--input", str(_germ_job(tmp_path, comps))]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["dimensions"]["ae_codim_direct"]["value"] == "INFINITE"
    assert record["verdicts"] == {"finite": False}


def test_torsion_length_default_form_degree_counts_no_parameters():
    """Without `form-degree` the torsion length is taken in degree n - 1 of
    the forms module's own ring: the central germ of a map drops its
    parameters, so the four planes in x1, x2, x3 (params s) give degree 2."""
    family = parse_job('ring { x1, x2, x3, s };\nparams { s };\nweights ( 1, 1, 1, 1 );\n'
                       'target-ring { w1, w2, w3, w4 };\ntarget-weights ( 1, 1, 1, 1 );\n'
                       'target-divisor "w1*w2*w3*w4";\nmap ( "x1", "x2", "x3", "x1+x2+x3-s" );\n'
                       'command torsion-length;\n')
    germ = parse_job((JOBS / "torsion_four_planes.job").read_text())
    record, want = run_job(family), run_job(germ)
    assert record["verdicts"]["form_degree"] == want["verdicts"]["form_degree"] == 2
    assert record["dimensions"] == want["dimensions"]


OMEGA_PULLBACK = ('ring { x1, x2, x3 };\nweights ( 1, 1, 1 );\ntarget-ring { w1, w2, w3, w4 };\n'
                  'target-weights ( 1, 1, 1, 1 );\ntarget-divisor "w1*w2*w3*w4";\n'
                  'map ( "x1", "x2", "x3", "x1+x2+x3" );\ncommand omega-check;\n'
                  'option degree-bound 4;\n')


@pytest.mark.parametrize("text", [
    OMEGA_PULLBACK,
    (JOBS / "torsion_four_planes.job").read_text(),
    (JOBS / "torsion_lips.job").read_text(),
    (JOBS / "de_rham_four_planes_afd.job").read_text(),
], ids=["omega-check", "torsion-four-planes", "torsion-lips", "de-rham-check"])
def test_pullback_jobs_compose_h_once(text, call_counter):
    """A pullback job composes the target equation h with the map once: the
    germ's h o F, which gives the weights, is the one the forms module keeps,
    and no form equal to h is pulled back again (for normal crossing, the
    degree-0 logarithmic generator, the Saito determinant, is h itself)."""
    calls = call_counter("exterior", "pullback")
    run_job(parse_job(text))
    h = calls[0][0][0]  # the first form the job pulls back: h, as a 0-form
    assert h[0] == 0 and len(calls) >= 2
    assert sum(form == h for forms, *_ in calls for form in forms) == 1


LIPS_INCLUSION = ('ring { X, W };\nweights ( 1, 3 );\ntarget-ring { A, U, B };\n'
                  'target-weights ( 1, 2, 3 );\ntarget-divisor "4*(U+A^2)^3 + 27*B^2";\n'
                  'map ( "X", "0", "W" );\ncommand mu-e;\n')


def test_mu_e_of_the_lips_inclusion_ends_at_cartans_stop():
    """The lips discriminant pulled back by (X, 0, W): the zero component U
    takes its degree from the target weights, and mu_e_derham = 1, the one
    standard term of Omega^2 / R_2, is CERTIFIED at the default and at
    every degree bound 0..5: the count reads no bound.  (The name recalls
    the stop degree 5 the route once ended at; Cartan's formula now ends
    it at level n, with no degree.)"""
    for options in ["", *(f"option degree-bound {bound};\n" for bound in range(6))]:
        record = run_job(parse_job(LIPS_INCLUSION + options))
        assert record["dimensions"]["mu_e_derham"]["value"] == 1
        assert record["flags"]["certified"] == "CERTIFIED"


@pytest.mark.parametrize("weights, target_weights, comps", [
    ("40000, 40000", "1, 1", '"x", "y"'),
    ("1, 40000", "1, 1", '"x^40000", "y"'),
], ids=["bound-below-window", "nonzero-tail"])
def test_mu_e_bound_that_runs_out_exits_4(tmp_path, capsys, weights, target_weights, comps):
    """A map-only `mu-e` job whose terms leave the packed exponent fields:
    variables of weight above the field bound, and a component of degree
    above it.  The bound ran out, so exit 4, not an answer and not a
    missing precondition.  (The ids name a degree bound and a
    trailing-window stop that the route no longer has.)"""
    job = tmp_path / "job.job"
    job.write_text(f'ring {{ x, y }};\nweights ( {weights} );\ntarget-ring {{ a, b }};\n'
                   f'target-weights ( {target_weights} );\ntarget-divisor "a*b";\n'
                   f'map ( {comps} );\ncommand mu-e;\n')
    assert main(["--input", str(job)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "non-stabilization: mu-e could not run any route (derham: a term left the packed "
        "exponent fields: an exponent or weighted degree above 32767)\n")


@pytest.mark.parametrize("ring, target, comps", [
    ("u, v, w", "u*v*w", '"x", "0", "y"'),
    ("w1, w2, w3, w4", "w1*w2*w3*w4", '"x", "y", "x+y", "y"'),
], ids=["zero-pullback", "infinite-quotient"])
def test_mu_e_without_a_stop_degree_exits_3(tmp_path, capsys, ring, target, comps):
    """A map-only `mu-e` job whose Omega^n / R_n is infinite has no count:
    (x, 0, y) into normal crossing in C^3, where h o F = 0, and a
    non-generic map into normal crossing in C^4.  No bound would help, so
    the route error is a failed precondition (exit 3), not exit 4."""
    ones = ", ".join("1" for _ in ring.split(","))
    job = tmp_path / "job.job"
    job.write_text(f'ring {{ x, y }};\nweights ( 1, 1 );\ntarget-ring {{ {ring} }};\n'
                   f'target-weights ( {ones} );\ntarget-divisor "{target}";\n'
                   f'map ( {comps} );\ncommand mu-e;\n')
    assert main(["--input", str(job)]) == 3
    assert capsys.readouterr().err == (
        "precondition failure: mu-e could not run any route (derham: Omega^n/R_n is "
        "infinite)\n")


def test_mu_e_route_whose_inputs_fail_leaves_the_other_routes():
    """The four planes family with a target divisor that is not free: the
    de Rham route cannot build its set-up and reports why, and the
    alternating and good-equation routes still answer, CERTIFIED."""
    record = run_job(parse_job(
        'ring { x1, x2, x3, s };\nweights ( 1, 1, 1, 1 );\nparams { s };\n'
        'divisor "x1*x2*x3*(x1+x2+x3-s)";\ntarget-ring { a, b, c };\n'
        'target-weights ( 1, 1, 1 );\ntarget-divisor "a*b*c*(a+b+c)";\n'
        'map ( "x1", "x2", "x3" );\ncommand mu-e;\n'))
    assert record["routes"] == ["alternating", "good_equation"]
    assert record["verdicts"] == {"routes_agree": True, "route_errors": {
        "derham": "target divisor is not certified free (NOT_FREE); this command needs a "
                  "Saito basis"}}
    assert [record["dimensions"][f"mu_e_{r}"]["value"] for r in record["routes"]] == [1, 1]
    assert record["flags"]["certified"] == "CERTIFIED"


FOUR_PLANES_FAMILY = ('ring {{ x1, x2, x3, s }};\nweights ( 1, 1, 1, 1 );\nparams {{ s }};\n'
                      'divisor "{divisor}";\ntarget-ring {{ w1, w2, w3, w4 }};\n'
                      'target-weights ( 1, 1, 1, 1 );\ntarget-divisor "{target}";\n'
                      'map ( "x1", "x2", "x3", "x1+x2+x3-s" );\ncommand mu-e;\n')
NOT_REDUCED = "divisor equation is not reduced (repeated factor)"


def test_mu_e_total_space_divisor_not_reduced_leaves_the_derham_route():
    """The four planes family with the total-space divisor x1^2*x2*x3*(...):
    both family routes report that it is not reduced, and the de Rham route
    still answers 1, CERTIFIED."""
    record = run_job(parse_job(FOUR_PLANES_FAMILY.format(
        divisor="x1^2*x2*x3*(x1+x2+x3-s)", target="w1*w2*w3*w4")))
    assert record["routes"] == ["derham"]
    assert record["verdicts"] == {"routes_agree": True, "route_errors": {
        "alternating": NOT_REDUCED, "good_equation": NOT_REDUCED}}
    assert record["dimensions"]["mu_e_derham"]["value"] == 1
    assert record["flags"]["certified"] == "CERTIFIED"


def test_mu_e_target_divisor_not_reduced_leaves_the_family_routes():
    """The four planes family with the target divisor w1^2*w2*w3*w4: the de
    Rham route reports that it is not reduced, and the alternating and
    good-equation routes still answer 1, CERTIFIED."""
    record = run_job(parse_job(FOUR_PLANES_FAMILY.format(
        divisor="x1*x2*x3*(x1+x2+x3-s)", target="w1^2*w2*w3*w4")))
    assert record["routes"] == ["alternating", "good_equation"]
    assert record["verdicts"] == {"routes_agree": True,
                                  "route_errors": {"derham": NOT_REDUCED}}
    assert [record["dimensions"][f"mu_e_{r}"]["value"] for r in record["routes"]] == [1, 1]
    assert record["flags"]["certified"] == "CERTIFIED"


def test_mu_e_of_a_one_variable_germ_answers_by_every_route():
    """Two points x*(x - s) on the line, pulled back from normal crossing by
    (x, x - s): the de Rham route counts Omega^1 / R_1 with no level below
    0, and all three routes give 1."""
    record = run_job(parse_job(
        'ring { x, s };\nweights ( 1, 1 );\nparams { s };\ndivisor "x*(x-s)";\n'
        'target-ring { w1, w2 };\ntarget-weights ( 1, 1 );\ntarget-divisor "w1*w2";\n'
        'map ( "x", "x-s" );\ncommand mu-e;\n'))
    assert record["routes"] == ["alternating", "derham", "good_equation"]
    assert record["verdicts"] == {"routes_agree": True}
    assert [record["dimensions"][f"mu_e_{r}"]["value"] for r in record["routes"]] == [1, 1, 1]
    assert record["flags"]["certified"] == "CERTIFIED"


@pytest.mark.parametrize("command", ["torsion-length", "de-rham-check"])
def test_map_into_the_target_divisor_exits_3(tmp_path, capsys, command):
    """(x, 0, y) sends the plane into the normal crossing divisor a*b*c, so
    h o F = 0 and there is no pulled-back divisor: a failed precondition
    that names the cause, not a torsion length or an exact complex."""
    job = tmp_path / "job.job"
    job.write_text('ring { x, y };\nweights ( 1, 1 );\ntarget-ring { a, b, c };\n'
                   f'target-divisor "a*b*c";\nmap ( "x", "0", "y" );\ncommand {command};\n')
    assert main(["--input", str(job)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("precondition failure: h o F is zero: the map sends the source "
                            "into the target divisor\n")


def test_de_rham_without_a_weight_system_exits_3(tmp_path, capsys):
    """x*y*(x+y+x^2), pulled back from normal crossing, has no weights, not
    even with a zero among them: no homotopy applies and no slice is graded."""
    job = tmp_path / "job.job"
    job.write_text('ring { x, y };\ntarget-ring { u, v, w };\ntarget-divisor "u*v*w";\n'
                   'map ( "x", "y", "x+y+x^2" );\ncommand de-rham-check;\n')
    assert main(["--input", str(job)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs a weight system (none found)" in captured.err


def test_mu_e_without_weights_answers_by_the_family_routes():
    """The four planes family with no weights statement: the de Rham route,
    which needs a positive weight system, reports why it did not run, and
    the alternating and good-equation routes answer."""
    job = parse_job('ring { x1, x2, x3, s };\nparams { s };\n'
                    'divisor "x1*x2*x3*(x1+x2+x3-s)";\ntarget-ring { w1, w2, w3, w4 };\n'
                    'target-divisor "w1*w2*w3*w4";\nmap ( "x1", "x2", "x3", "x1+x2+x3-s" );\n'
                    'command mu-e;\n')
    record = run_job(job)
    assert record["routes"] == ["alternating", "good_equation"]
    assert record["verdicts"] == {"routes_agree": True,
                                  "route_errors": {"derham": "no positive weight system"}}
    assert [record["dimensions"][f"mu_e_{r}"]["value"] for r in record["routes"]] == [1, 1]
    assert record["flags"]["certified"] == "UNCERTIFIED-LOCAL"
