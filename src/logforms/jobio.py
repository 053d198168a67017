"""Declarative job files: parsing, validation and canonical echo.

A job is a list of statements, each ending with ';'; comments run from '#' to
end of line.  `STATEMENTS` declares every statement but two, in echo order,
and the shape of its argument:

    ring { x, y, z };                        # names
    weights ( 1, 1, 1 );                     # ints
    divisor "x*y*z";                         # string
    map ( "x", "x+y" );                      # strings
    fields { ("x", "0", "0"), ("0", "y", "0") };   # fields (string lists)
    command is-free;
    option degree-bound 20;

Polynomial strings use the package-wide grammar (+ - * ^, parentheses,
integer or a/b rational coefficients).
"""

from __future__ import annotations

import re
from typing import Optional

from .poly import ParseError, _Tokens, parse_poly


# The job language: statement keyword -> (JobSpec attribute, argument shape),
# in echo order.  `command` and `option` are parsed on their own.
STATEMENTS = {
    "ring": ("ring", "names"),
    "weights": ("weights", "ints"),
    "params": ("params", "names"),
    "ext-params": ("ext_params", "names"),
    "divisor": ("divisor_text", "string"),
    "fields": ("fields_text", "fields"),
    "target-ring": ("target_ring", "names"),
    "target-weights": ("target_weights", "ints"),
    "target-divisor": ("target_divisor_text", "string"),
    "map": ("map_text", "strings"),
    "unfolding-ring": ("unfolding_ring", "names"),
    "unfolding-target": ("unfolding_target", "names"),
    "unfolding-map": ("unfolding_map_text", "strings"),
    "unfolding-discriminant": ("unfolding_discriminant_text", "string"),
    "unfolding-weights": ("unfolding_weights", "ints"),
    "inclusion": ("inclusion_text", "strings"),
}

# Per list shape: its brackets, the token kind of one item (or the shape of a
# nested list) and the item's name in error messages.
_LISTS = {"names": ("{", "}", "name", "identifier"),
          "ints": ("(", ")", "int", "integer"),
          "strings": ("(", ")", "string", "quoted polynomial"),
          "fields": ("{", "}", "strings", None)}



def _quoted(texts) -> str:
    return ", ".join(f'"{t}"' for t in texts)


# The canonical echo of an argument, per shape.  Field vectors are written
# with tight parentheses, string lists with padded ones.
_ECHO = {"names": lambda v: "{ " + ", ".join(v) + " }",
         "ints": lambda v: "( " + ", ".join(map(str, v)) + " )",
         "string": lambda v: f'"{v}"',
         "strings": lambda v: "( " + _quoted(v) + " )",
         "fields": lambda v: "{ " + ", ".join(f"({_quoted(vec)})" for vec in v) + " }"}

# Validation: each weights statement with the ring it grades; and each
# polynomial statement with the ring its polynomials live in, the ring each of
# its vectors must match in length and the message when one does not (None for
# a single polynomial), and what one of its polynomials is called in error
# messages.
_WEIGHTED = (("weights", "ring"), ("target-weights", "target-ring"),
             ("unfolding-weights", "unfolding-target"))
_POLYNOMIALS = (
    ("divisor", "ring", None, None, "divisor"),
    ("target-divisor", "target-ring", None, None, "target-divisor"),
    ("map", "ring", "target-ring", "map needs one component per target variable",
     "map component"),
    ("fields", "ring", "ring", "each field needs one coefficient per ring variable",
     "field coefficient"),
    ("unfolding-map", "unfolding-ring", "unfolding-target",
     "unfolding-map needs one component per unfolding-target variable",
     "unfolding-map component"),
    ("unfolding-discriminant", "unfolding-target", None, None, "unfolding-discriminant"),
    ("inclusion", "target-ring", "unfolding-target",
     "inclusion needs one component per unfolding-target variable", "inclusion component"),
)


def _default(shape: str):
    return [] if shape == "names" else None


COMMANDS = (
    "is-free",
    "derlog",
    "saito-check",
    "omega-check",
    "de-rham-check",
    "torsion-length",
    "kev-codim",
    "t1-log",
    "critical-ideal",
    "mu-e",
    "ae-codim",
    "fitting-reduced",
)

# The least value of each option, an integer (None: any integer).
OPTION_DOMAINS = {"degree-bound": 0, "seed": None, "form-degree": 0, "jet-cap": 1}


class JobError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        if line:
            super().__init__(f"{message} (line {line}, column {col})")
        else:
            super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


def check_option(key: str, value, line: int = 0, col: int = 0):
    """Reject an option value outside its domain; job-file options and
    command-line overrides both pass through here."""
    if key not in OPTION_DOMAINS:
        raise JobError(f"unknown option {key!r}", line, col)
    domain = OPTION_DOMAINS[key]
    if not isinstance(value, int) or (domain is not None and value < domain):
        need = "an integer" if domain is None else f"an integer >= {domain}"
        raise JobError(f"option {key} needs {need}, not {value!r}", line, col)


# The job grammar for the tokenizer of `poly`: blanks and comments are
# skipped, a name may go on with '-', and an int may carry a minus sign.
_JOB_TOKENS = re.compile(r'(?P<skip>[^\S\n]+|#[^\n]*)|(?P<string>"[^"\n]*")|(?P<unterminated>")'
                         r"|(?P<int>-?\d+)|(?P<name>[^\W\d][\w-]*)|(?P<op>[{}(),;])|(?P<nl>\n)")


class JobSpec:
    """Validated job: one attribute per statement of `STATEMENTS` (a `names`
    statement defaults to [], any other to None), the command and options.
    `polys` holds the parsed polynomials of each polynomial statement given,
    keyed by its keyword and in its shape: a `Poly` for a string, a list for
    strings and a list of lists for fields."""

    def __init__(self):
        for attr, shape in STATEMENTS.values():
            setattr(self, attr, _default(shape))
        self.polys: dict = {}
        self.command: Optional[str] = None
        self.options: dict = {}

    def param_indices(self) -> list:
        return [self.ring.index(p) for p in self.params]

    def ext_param_indices(self) -> list:
        return [self.ring.index(p) for p in self.ext_params]

    # canonical echo -----------------------------------------------------

    def echo(self) -> str:
        out = []
        for kw, (attr, shape) in STATEMENTS.items():
            value = getattr(self, attr)
            if value != _default(shape):
                out.append(f"{kw} {_ECHO[shape](value)};")
        if self.command:
            out.append(f"command {self.command};")
        for k in sorted(self.options):
            out.append(f"option {k} {self.options[k]};")
        return "\n".join(out) + "\n"

    def __eq__(self, other):
        return isinstance(other, JobSpec) and self.__dict__ == other.__dict__


def _parse_list(toks: _Tokens, shape: str) -> list:
    """A bracketed list of one shape; the commas between items are optional."""
    opening, closing, item, what = _LISTS[shape]
    toks.expect(opening)
    vals = []
    while toks.peek()[0] != closing:
        if item in _LISTS:
            vals.append(_parse_list(toks, item))
        else:
            t = toks.next()
            if t[0] != item:
                raise JobError(f"expected {what}, found {t[1]!r}", t[2], t[3])
            vals.append(int(t[1]) if item == "int" else t[1])
        if toks.peek()[0] == ",":
            toks.next()
    toks.next()
    return vals


def parse_job(text: str) -> JobSpec:
    """Parse and validate a job file; raises JobError with line/column."""
    toks = _Tokens(text, _JOB_TOKENS, JobError)
    job = JobSpec()
    args: dict = {}  # statement keyword -> the tokens of its (last) argument
    while True:
        t = toks.next()
        if t[0] == "end":
            break
        if t[0] != "name":
            raise JobError(f"expected statement keyword, found {t[1]!r}", t[2], t[3])
        kw = t[1]
        if kw in STATEMENTS:
            attr, shape = STATEMENTS[kw]
            first = toks.pos
            value = toks.expect("string")[1] if shape == "string" else _parse_list(toks, shape)
            setattr(job, attr, value)
            args[kw] = toks.toks[first:toks.pos]
        elif kw == "command":
            c = toks.next()
            if c[0] != "name" or c[1] not in COMMANDS:
                raise JobError(f"unknown command {c[1]!r}", c[2], c[3])
            job.command = c[1]
        elif kw == "option":
            k = toks.next()
            if k[0] != "name":
                raise JobError(f"unknown option {k[1]!r}", k[2], k[3])
            v = toks.next()
            if v[0] not in ("int", "name"):
                raise JobError(f"expected option value, found {v[1]!r}", v[2], v[3])
            value = int(v[1]) if v[0] == "int" else v[1]
            check_option(k[1], value, k[2], k[3])
            job.options[k[1]] = value
        else:
            raise JobError(f"unknown statement {kw!r}", t[2], t[3])
        toks.expect(";")
    _validate(job, args)
    return job


def _validate(job: JobSpec, args: dict):
    """Check the parsed job against itself; `args` holds each statement's
    argument tokens, so a fault is placed inside the statement that holds it."""
    def arg(kw: str):
        return getattr(job, STATEMENTS[kw][0])

    def find_pos(kw: str, item: str):
        """Line and column of a name, or of the text of a quoted polynomial,
        in the argument of statement kw."""
        for kind, text, line, col in args[kw]:
            if text == item and kind in ("name", "string"):
                return line, col + (kind == "string")
        return 0, 0

    for kw, (_, shape) in STATEMENTS.items():
        if shape == "names" and len(set(arg(kw))) != len(arg(kw)):
            raise JobError(f"duplicate variable in {kw}")
    for kw, ring in _WEIGHTED:
        weights = arg(kw)
        if weights is not None:
            if len(weights) != len(arg(ring)):
                raise JobError(f"{kw} length does not match {ring}")
            if any(w <= 0 for w in weights):
                raise JobError(f"{kw} must be strictly positive")
    for kw in ("params", "ext-params"):
        for p in arg(kw):
            if p not in job.ring:
                raise JobError(f"parameter {p!r} is not a ring variable", *find_pos(kw, p))
    for p in job.ext_params:
        if p in job.params:
            raise JobError(f"parameter {p!r} is in both params and ext-params",
                           *find_pos("ext-params", p))
    if job.divisor_text is not None and not job.ring:
        raise JobError("divisor given without a ring")
    if job.inclusion_text is not None and not job.target_ring:
        raise JobError("inclusion needs a target-ring (the source of the inclusion)")
    # arity, polynomial syntax and variable scope; each polynomial is parsed
    # here, once, onto job.polys
    for kw, ring, arity, arity_message, what in _POLYNOMIALS:
        value = arg(kw)
        if value is None:
            continue
        shape = STATEMENTS[kw][1]
        vectors = value if shape == "fields" else [value] if shape == "strings" else [[value]]
        parsed = []
        for vec in vectors:
            if arity is not None and len(vec) != len(arg(arity)):
                raise JobError(arity_message)
            parsed.append([])
            for txt in vec:
                try:
                    parsed[-1].append(parse_poly(txt, arg(ring)))
                except ParseError as exc:
                    raise JobError(f"{what}: {exc.message}", *find_pos(kw, txt)) from exc
        job.polys[kw] = parsed if shape == "fields" else parsed[0] if shape == "strings" else parsed[0][0]
