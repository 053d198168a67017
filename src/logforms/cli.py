"""Command-line interface: job files in, certified JSON records out.

Exit codes: 0 success, 2 parse error, 3 precondition failure,
4 non-stabilization, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache, partial
from typing import Optional

from .deformation import (
    DeformationError,
    DeformationSetup,
    InducingMap,
    ae_codim_damon,
    ae_normal_space_direct,
    good_equation_witness,
    ke_discriminant_reduced,
    kev_normal_space,
    mu_e_alternating,
    mu_e_derham,
    mu_e_good_equation,
    t1_log,
    theta_prime_minors,
)
from .exterior import pullback
from .forms import (
    FormsError,
    GradedDimensionTable,
    de_rham_report_sliced,
    forms_free,
    forms_pullback_degrees,
    pd_check,
    torsion_length,
)
from .groebner import StabilizationError
from .jobio import COMMANDS, OPTION_DOMAINS, JobError, JobSpec, check_option, parse_job
from .logarithmic import (
    Divisor,
    DivisorError,
    FreenessVerdict,
    InternalInvariantError,
    LogBasis,
    derlog,
    is_free,
    saito_check,
)
from .module import INFINITE, FreeElement, ModuleError
from .poly import Poly, PolyError, quasihomogeneous_weights

SCHEMA = "logforms/1"


class PreconditionError(ValueError):
    pass


# the errors `main` reports as a failed precondition (exit 3)
PRECONDITION_ERRORS = (PreconditionError, DivisorError, DeformationError, FormsError,
                       ModuleError, PolyError)


def _fmt_fraction(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _fmt_dim(d):
    return d if isinstance(d, int) else str(d)


def _basis_record(basis: LogBasis) -> dict:
    names = basis.divisor.names
    return {
        "fields": [[p.format(names) for p in col] for col in basis.theta],
        "unit": _fmt_fraction(basis.unit),
        "tangency_witnesses": [w.format(names) for w in basis.witnesses],
    }


def _weights_for(h: Poly, given) -> Optional[tuple]:
    """The given weights, or else those detected for h (None when it has none)."""
    return tuple(given) if given is not None else quasihomogeneous_weights(h)


def _weighted_divisor(names, h: Poly, given) -> Divisor:
    return Divisor(names, h, weights=_weights_for(h, given))


def _divisor_from_job(job: JobSpec) -> Divisor:
    if not job.ring or "divisor" not in job.polys:
        raise PreconditionError("this command needs 'ring' and 'divisor'")
    return _weighted_divisor(job.ring, job.polys["divisor"], job.weights)


def _free_basis(d: Divisor, what: str = "divisor") -> LogBasis:
    """The Saito basis of a divisor that must be certified free."""
    verdict = is_free(d)
    if verdict.kind != FreenessVerdict.FREE:
        raise PreconditionError(
            f"{what} is not certified free ({verdict.kind}); this command needs a Saito basis")
    return verdict.basis


def _target_basis(job: JobSpec) -> LogBasis:
    if not job.target_ring or "target-divisor" not in job.polys:
        raise PreconditionError("this command needs 'target-ring' and 'target-divisor'")
    return _free_basis(_weighted_divisor(job.target_ring, job.polys["target-divisor"],
                                         job.target_weights), "target divisor")


def _inducing_map(job: JobSpec) -> InducingMap:
    if "map" not in job.polys:
        raise PreconditionError("this command needs 'map'")
    return InducingMap(job.ring, job.target_ring, job.polys["map"],
                       s_indices=tuple(job.param_indices()),
                       t_indices=tuple(job.ext_param_indices()))


def _pullback_germ(job: JobSpec):
    """The certified target basis, the central germ of the map, the pulled-back
    equation h0 and the germ's weights (given, or detected from h0)."""
    e_basis = _target_basis(job)
    full = _inducing_map(job)
    imap = full.germ()
    h0 = pullback([(0, FreeElement([e_basis.divisor.h]))], imap.components, 0)[0].entries[0]
    if h0.is_zero():
        raise PreconditionError("h o F is zero: the map sends the source into the target divisor")
    return e_basis, imap, h0, full.germ_weights(_weights_for(h0, job.weights))


def _record(verdicts: dict, numbers, certified: bool = True,
            certificates: Optional[dict] = None, **parts) -> dict:
    """A command's record body.  `numbers` lists (name, value, route, proven);
    each becomes one `dimensions` entry, its value formatted by `_fmt_dim`.
    The flag is CERTIFIED exactly when `certified` and every `proven` hold."""
    proven = certified and all(ok for *_, ok in numbers)
    return {"verdicts": verdicts,
            "dimensions": {name: {"value": _fmt_dim(value), "route": route}
                           for name, value, route, _ in numbers},
            "certificates": certificates or {}, **parts,
            "flags": {"certified": "CERTIFIED" if proven else "UNCERTIFIED-LOCAL"}}


def _routes_record(prefix: str, routes: dict, agreement: Optional[bool], certified: bool,
                   verdicts: dict, **parts) -> dict:
    """The record of one number computed by several routes: `routes` maps each
    route that ran to (value, proven), reported as `prefix`_route.  An
    `agreement` of None (one route) adds no `routes_agree` verdict."""
    if agreement is not None:
        verdicts["routes_agree"] = parts["agreement"] = agreement
    numbers = [(f"{prefix}_{name}", v, name, ok) for name, (v, ok) in sorted(routes.items())]
    return _record(verdicts, numbers, certified, routes=sorted(routes), **parts)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_is_free(job: JobSpec, opts: dict) -> dict:
    verdict = is_free(_divisor_from_job(job))
    verdicts = {"freeness": verdict.kind}
    if verdict.reason:
        verdicts["reason"] = verdict.reason
    certificates = ({"saito_basis": _basis_record(verdict.basis)}
                    if verdict.basis is not None else {})
    return _record(verdicts, [("minimal_generators", verdict.generator_count,
                               "tangent-field syzygies + Nakayama", True)],
                   certificates=certificates)


def _cmd_derlog(job: JobSpec, opts: dict) -> dict:
    d = _divisor_from_job(job)
    gens = derlog(d)
    return _record({}, [("generator_count", len(gens), "syzygy module", True)],
                   certificates={"generators": [
                       {"field": [p.format(d.names) for p in f.entries],
                        "witness": w.format(d.names)} for f, w in gens]})


def _cmd_saito_check(job: JobSpec, opts: dict) -> dict:
    d = _divisor_from_job(job)
    if "fields" not in job.polys:
        raise PreconditionError("saito-check needs 'fields'")
    basis, reason = saito_check(d, [FreeElement(vec) for vec in job.polys["fields"]])
    if basis:
        return _record({"saito": "PASS"}, [],
                       certificates={"saito_basis": _basis_record(basis)})
    return _record({"saito": "FAIL", "reason": reason}, [])


def _forms_modules(job: JobSpec, degrees) -> tuple:
    """(modules, h, weights): the job's forms modules in the form degrees
    degrees(n), n the number of variables of their own ring (the central
    germ's, for a map), with the equation h of their divisor and its positive
    weights (given, or detected; None without)."""
    if "target-divisor" in job.polys and "map" in job.polys:
        e_basis, imap, h0, weights = _pullback_germ(job)
        return (forms_pullback_degrees(e_basis, imap.components, imap.source_names,
                                       degrees(imap.source_dim), weights, h0), h0, weights)
    d = _divisor_from_job(job)
    basis = _free_basis(d)
    return [forms_free(basis, k) for k in degrees(d.nvars)], d.h, d.weights


def _cmd_omega_check(job: JobSpec, opts: dict) -> dict:
    k = opts.get("form-degree", 1)
    m = _forms_modules(job, lambda n: (k,))[0][0]
    verdicts = {"kind": m.kind}
    tables = {}
    graded = m.grading() is not None
    if graded:
        tables["graded_dimensions"] = GradedDimensionTable(
            m.dimension_table(opts.get("degree-bound", 20))).as_dict()
    if m.kind == "free":
        verdicts["relation_module_free"] = pd_check(m)
    return _record(verdicts, [("rank", m.rank, "binomial(n, k)", True)], graded,
                   {"relations": [[p.format(m.names) for p in r.entries] for r in m.relations]},
                   tables=tables)


def _cmd_de_rham(job: JobSpec, opts: dict) -> dict:
    mods, h, weights = _forms_modules(job, lambda n: range(0, n + 1))
    if weights is None:
        weights = quasihomogeneous_weights(h, allow_zero=True)
    rep = de_rham_report_sliced(mods, opts.get("degree-bound", 12), weights)
    tables = {str(deg): info for deg, info in rep.pop("per_degree").items()}
    return _record(rep, [], tables={"per_degree": tables})


def _cmd_torsion_length(job: JobSpec, opts: dict) -> dict:
    k = opts.get("form-degree")
    m = _forms_modules(job, lambda n: (n - 1 if k is None else k,))[0][0]
    return _record({"form_degree": m.k},
                   [("torsion_length", torsion_length(m), "iterated colon saturation",
                     m.grading() is not None)])


def _cmd_kev(job: JobSpec, opts: dict) -> dict:
    setup = DeformationSetup(_target_basis(job), _inducing_map(job), weights=job.weights)
    _, dim = kev_normal_space(setup)
    return _record({"algebraically_transverse_off_origin": dim != INFINITE},
                   [("kev_codimension", dim, "normal space quotient",
                     job.weights is not None or dim == 0)])


def _cmd_t1_log(job: JobSpec, opts: dict) -> dict:
    d = _divisor_from_job(job)
    basis = _free_basis(d)
    params = job.param_indices()
    ext = job.ext_param_indices()
    if not params:
        raise PreconditionError("t1-log needs 'params'")
    _, dim_rel = t1_log(basis, params + ext, ext)
    _, dim_fib = t1_log(basis, params + ext, params + ext)
    graded = d.weights is not None
    return _record({}, [
        ("t1_log_relative", dim_rel, "parameter rows of the Saito matrix", graded),
        ("t1_log_fibre", dim_fib, "parameter rows mod base maximal ideal", graded)])


def _cmd_critical_ideal(job: JobSpec, opts: dict) -> dict:
    d = _divisor_from_job(job)
    basis = _free_basis(d)
    params = job.param_indices()
    if not params:
        raise PreconditionError("critical-ideal needs 'params'")
    minors = theta_prime_minors(basis, params, job.ext_param_indices())
    return _record({"unit_ideal": any(m.is_constant() and not m.is_zero() for m in minors)},
                   [("generator_count", len(minors), "maximal minors", True)],
                   certificates={"ideal_generators": [m.format(d.names) for m in minors]})


def _cmd_mu_e(job: JobSpec, opts: dict) -> dict:
    """Each route builds its own inputs: the de Rham route needs target data
    and the map, the alternating and good-equation routes the total-space
    divisor with parameters.  A route whose inputs or computation fail
    reports its error beside the routes that answer."""
    computations = {}
    if "target-divisor" in job.polys and "map" in job.polys:
        computations["derham"] = lambda: mu_e_derham(
            DeformationSetup(_target_basis(job), _inducing_map(job), weights=job.weights))
    if "divisor" in job.polys and job.params:
        divisor = cache(partial(_divisor_from_job, job))  # built once, inside each route
        params = job.param_indices()
        computations["alternating"] = lambda: mu_e_alternating(_free_basis(divisor()), params)
        computations["good_equation"] = lambda: mu_e_good_equation(
            d := divisor(), params, good_equation_witness(d.h, d.weights))
    routes = {}  # route -> (value, proven)
    errors = {}
    ran_out = False  # a route failed because its bound ran out
    for name, compute in computations.items():
        try:
            routes[name] = compute(), True
        except (*PRECONDITION_ERRORS, StabilizationError) as exc:
            errors[name] = str(exc)
            ran_out |= isinstance(exc, StabilizationError)
    if not routes:
        detail = "; ".join(f"{k}: {v}" for k, v in sorted(errors.items()))
        # a bound that ran out is non-stabilization (exit 4), not a missing input
        raise (StabilizationError if ran_out else PreconditionError)(
            "mu-e could not run any route"
            + (f" ({detail})" if detail else "; it needs family or map data"))
    agreement = len({v for v, _ in routes.values()}) == 1
    rec = _routes_record("mu_e", routes, agreement,
                         job.weights is not None or job.target_weights is not None, {})
    if errors:
        rec["verdicts"]["route_errors"] = errors  # text output lists it after routes_agree
    return rec


def _cmd_ae_codim(job: JobSpec, opts: dict) -> dict:
    if not job.ring or "map" not in job.polys or not job.target_ring:
        raise PreconditionError("ae-codim needs 'ring', 'target-ring' and 'map' (the germ)")
    direct = ae_normal_space_direct(job.polys["map"], cap=opts.get("jet-cap", 20))
    routes = {"direct": (direct, True)}
    certificates = {}
    agreement = None
    if "unfolding-discriminant" in job.polys and "inclusion" in job.polys:
        df_basis = _free_basis(_weighted_divisor(job.unfolding_target,
                                                 job.polys["unfolding-discriminant"],
                                                 job.unfolding_weights), "unfolding discriminant")
        certificates["discriminant_saito_basis"] = _basis_record(df_basis)
        incl = InducingMap(job.target_ring, job.unfolding_target, job.polys["inclusion"])
        damon = ae_codim_damon(df_basis, incl, weights=job.target_weights)
        routes["damon"] = damon, True
        agreement = direct == damon
    return _routes_record("ae_codim", routes, agreement, True, {"finite": direct != INFINITE},
                          certificates=certificates)


def _cmd_fitting_reduced(job: JobSpec, opts: dict) -> dict:
    d = _divisor_from_job(job)
    basis = _free_basis(d)
    params = job.param_indices()
    if len(params) != 1:
        raise PreconditionError("fitting-reduced needs exactly one parameter")
    reduced, chi, dim = ke_discriminant_reduced(basis, params[0])
    return _record({"fitting_ideal_is_maximal_ideal": reduced},
                   [("t1_log_relative", dim, "parameter rows", d.weights is not None)],
                   certificates={"fitting_ideal_generator": chi.format([job.params[0]])})


HANDLERS = {
    "is-free": _cmd_is_free,
    "derlog": _cmd_derlog,
    "saito-check": _cmd_saito_check,
    "omega-check": _cmd_omega_check,
    "de-rham-check": _cmd_de_rham,
    "torsion-length": _cmd_torsion_length,
    "kev-codim": _cmd_kev,
    "t1-log": _cmd_t1_log,
    "critical-ideal": _cmd_critical_ideal,
    "mu-e": _cmd_mu_e,
    "ae-codim": _cmd_ae_codim,
    "fitting-reduced": _cmd_fitting_reduced,
}


def run_job(job: JobSpec, options: Optional[dict] = None) -> dict:
    """Execute a validated job and assemble the result record."""
    opts = dict(job.options)
    for k, v in (options or {}).items():
        if v is not None:
            check_option(k, v)
            opts[k] = v
    if not job.command:
        raise PreconditionError("no command given (job file or command line)")
    handler = HANDLERS[job.command]
    body = handler(job, opts)
    record = {
        "schema": SCHEMA,
        "command": job.command,
        "input_echo": job.echo(),
        "options": dict(sorted(opts.items())),
        "seed": opts.get("seed", 0),
    }
    record.update(body)
    return record


def render_text(record: dict) -> str:
    lines = [f"command: {record['command']}"]
    for key in ("verdicts", "dimensions"):
        for k, v in record.get(key, {}).items():
            if isinstance(v, dict) and "value" in v:
                lines.append(f"{k}: {v['value']}    [{v.get('route', '')}]")
            else:
                lines.append(f"{k}: {v}")
    if record.get("routes"):
        lines.append("routes: " + ", ".join(record["routes"]))
    if "agreement" in record:
        lines.append(f"agreement: {record['agreement']}")
    flags = record.get("flags", {})
    if flags:
        lines.append(f"flags: {flags.get('certified', '')}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="logforms",
        description="Exact logarithmic-form computations on free and almost free divisors.")
    parser.add_argument("command", nargs="?", default=None,
                        help="subcommand; may also come from the job file")
    parser.add_argument("--input", required=True, help="job file")
    for key in OPTION_DOMAINS:
        parser.add_argument(f"--{key}", type=int, default=None)
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte determinism)")
    args = parser.parse_args(argv)
    # checked here, not by `choices`, so that the value of an unknown flag
    # is not read as the command
    if args.command not in (None, *COMMANDS):
        parser.error(f"unknown command {args.command!r} (choose from {', '.join(COMMANDS)})")

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    try:
        job = parse_job(text)
        if args.command:
            if job.command and job.command != args.command:
                print(f"error: job file declares command {job.command!r}, "
                      f"command line says {args.command!r}", file=sys.stderr)
                return 2
            job.command = args.command
        overrides = {k: getattr(args, k.replace("-", "_"), None) for k in OPTION_DOMAINS}
        record = run_job(job, overrides)
    except JobError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PRECONDITION_ERRORS as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3
    except StabilizationError as exc:
        print(f"non-stabilization: {exc}", file=sys.stderr)
        return 4
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 5

    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if args.timing:
        record["timing_ms"] = elapsed_ms
    if args.output == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_text(record))
        print(f"# elapsed {elapsed_ms} ms", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
