"""Declarative job files: parsing, validation and canonical echo.

Grammar (statements end with ';', comments run from '#' to end of line):

    ring { x, y, z };
    weights ( 1, 1, 1 );
    params { s };
    ext-params { t };
    divisor "x*y*z";
    fields { ("x", "0", "0"), ("0", "y", "0") };
    target-ring { w1, w2 };
    target-divisor "w1*w2";
    target-weights ( 1, 1 );
    map ( "x", "x+y" );
    unfolding-ring { x, u, y };
    unfolding-target { X, U, W };
    unfolding-map ( "x", "u", "y^3+x^2*y+u*y" );
    unfolding-discriminant "4*(U+X^2)^3+27*W^2";
    unfolding-weights ( 1, 2, 3 );
    inclusion ( "X", "0", "W" );
    command is-free;
    option degree-bound 20;

Polynomial strings use the package-wide grammar (+ - * ^, parentheses,
integer or a/b rational coefficients).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .poly import ParseError, Poly, parse_poly


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

# The domain of each option: the words it may take, or the least value of an
# integer option (None: any integer).
OPTION_DOMAINS = {"degree-bound": 0, "order": ("wdegrevlex", "lex"), "seed": None,
                  "form-degree": 0, "jet-cap": 1, "window": 1}


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
    if isinstance(domain, tuple):
        if value not in domain:
            raise JobError(f"option {key} must be one of {', '.join(domain)}, not {value!r}",
                           line, col)
    elif not isinstance(value, int) or (domain is not None and value < domain):
        need = "an integer" if domain is None else f"an integer >= {domain}"
        raise JobError(f"option {key} needs {need}, not {value!r}", line, col)


class _JobTokens:
    def __init__(self, text: str):
        self.toks: list = []
        line, col = 1, 1
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                i += 1
                col += 1
                continue
            if ch == "#":
                while i < n and text[i] != "\n":
                    i += 1
                continue
            if ch == '"':
                j = i + 1
                while j < n and text[j] != '"':
                    if text[j] == "\n":
                        raise JobError("unterminated string", line, col)
                    j += 1
                if j >= n:
                    raise JobError("unterminated string", line, col)
                self.toks.append(("string", text[i + 1:j], line, col))
                col += j - i + 1
                i = j + 1
                continue
            if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_-"):
                    j += 1
                self.toks.append(("word", text[i:j], line, col))
                col += j - i
                i = j
                continue
            if ch in "{}(),;":
                self.toks.append((ch, ch, line, col))
                i += 1
                col += 1
                continue
            raise JobError(f"unexpected character {ch!r}", line, col)
        self.toks.append(("end", "", line, col))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise JobError(f"expected {kind!r}, found {t[1]!r}", t[2], t[3])
        return t


class JobSpec:
    """Validated job: rings, objects, command and options."""

    def __init__(self):
        self.ring: list = []
        self.weights: Optional[list] = None
        self.params: list = []
        self.ext_params: list = []
        self.divisor_text: Optional[str] = None
        self.fields_text: Optional[list] = None
        self.target_ring: list = []
        self.target_weights: Optional[list] = None
        self.target_divisor_text: Optional[str] = None
        self.map_text: Optional[list] = None
        self.unfolding_ring: list = []
        self.unfolding_target: list = []
        self.unfolding_map_text: Optional[list] = None
        self.unfolding_discriminant_text: Optional[str] = None
        self.unfolding_weights: Optional[list] = None
        self.inclusion_text: Optional[list] = None
        self.command: Optional[str] = None
        self.options: dict = {}

    # parsed objects -----------------------------------------------------

    def divisor_poly(self) -> Poly:
        return parse_poly(self.divisor_text, self.ring)

    def target_divisor_poly(self) -> Poly:
        return parse_poly(self.target_divisor_text, self.target_ring)

    def map_polys(self) -> list:
        return [parse_poly(t, self.ring) for t in self.map_text]

    def unfolding_discriminant_poly(self) -> Poly:
        return parse_poly(self.unfolding_discriminant_text, self.unfolding_target)

    def inclusion_polys(self) -> list:
        return [parse_poly(t, self.target_ring) for t in self.inclusion_text]

    def field_elements(self) -> list:
        return [[parse_poly(t, self.ring) for t in vec] for vec in self.fields_text]

    def param_indices(self) -> list:
        return [self.ring.index(p) for p in self.params]

    def ext_param_indices(self) -> list:
        return [self.ring.index(p) for p in self.ext_params]

    # canonical echo -----------------------------------------------------

    def echo(self) -> str:
        out = []
        if self.ring:
            out.append("ring { " + ", ".join(self.ring) + " };")
        if self.weights is not None:
            out.append("weights ( " + ", ".join(str(w) for w in self.weights) + " );")
        if self.params:
            out.append("params { " + ", ".join(self.params) + " };")
        if self.ext_params:
            out.append("ext-params { " + ", ".join(self.ext_params) + " };")
        if self.divisor_text is not None:
            out.append(f'divisor "{self.divisor_text}";')
        if self.fields_text is not None:
            vecs = ", ".join("(" + ", ".join(f'"{t}"' for t in vec) + ")" for vec in self.fields_text)
            out.append("fields { " + vecs + " };")
        if self.target_ring:
            out.append("target-ring { " + ", ".join(self.target_ring) + " };")
        if self.target_weights is not None:
            out.append("target-weights ( " + ", ".join(str(w) for w in self.target_weights) + " );")
        if self.target_divisor_text is not None:
            out.append(f'target-divisor "{self.target_divisor_text}";')
        if self.map_text is not None:
            out.append("map ( " + ", ".join(f'"{t}"' for t in self.map_text) + " );")
        if self.unfolding_ring:
            out.append("unfolding-ring { " + ", ".join(self.unfolding_ring) + " };")
        if self.unfolding_target:
            out.append("unfolding-target { " + ", ".join(self.unfolding_target) + " };")
        if self.unfolding_map_text is not None:
            out.append("unfolding-map ( " + ", ".join(f'"{t}"' for t in self.unfolding_map_text) + " );")
        if self.unfolding_discriminant_text is not None:
            out.append(f'unfolding-discriminant "{self.unfolding_discriminant_text}";')
        if self.unfolding_weights is not None:
            out.append("unfolding-weights ( " + ", ".join(str(w) for w in self.unfolding_weights) + " );")
        if self.inclusion_text is not None:
            out.append("inclusion ( " + ", ".join(f'"{t}"' for t in self.inclusion_text) + " );")
        if self.command:
            out.append(f"command {self.command};")
        for k in sorted(self.options):
            out.append(f"option {k} {self.options[k]};")
        return "\n".join(out) + "\n"

    def __eq__(self, other):
        return isinstance(other, JobSpec) and self.__dict__ == other.__dict__


def _parse_name_list(toks: _JobTokens) -> list:
    toks.expect("{")
    names = []
    while True:
        t = toks.next()
        if t[0] == "}":
            break
        if t[0] != "word":
            raise JobError(f"expected identifier, found {t[1]!r}", t[2], t[3])
        names.append(t[1])
        nxt = toks.peek()
        if nxt[0] == ",":
            toks.next()
    return names


def _parse_int_list(toks: _JobTokens) -> list:
    toks.expect("(")
    vals = []
    while True:
        t = toks.next()
        if t[0] == ")":
            break
        if t[0] != "int":
            raise JobError(f"expected integer, found {t[1]!r}", t[2], t[3])
        vals.append(int(t[1]))
        nxt = toks.peek()
        if nxt[0] == ",":
            toks.next()
    return vals


def _parse_string_list(toks: _JobTokens) -> list:
    toks.expect("(")
    vals = []
    while True:
        t = toks.next()
        if t[0] == ")":
            break
        if t[0] != "string":
            raise JobError(f"expected quoted polynomial, found {t[1]!r}", t[2], t[3])
        vals.append(t[1])
        nxt = toks.peek()
        if nxt[0] == ",":
            toks.next()
    return vals


def _parse_field_vectors(toks: _JobTokens) -> list:
    toks.expect("{")
    vecs = []
    while True:
        t = toks.peek()
        if t[0] == "}":
            toks.next()
            break
        vecs.append(_parse_string_list(toks))
        nxt = toks.peek()
        if nxt[0] == ",":
            toks.next()
    return vecs


def parse_job(text: str) -> JobSpec:
    """Parse and validate a job file; raises JobError with line/column."""
    toks = _JobTokens(text)
    job = JobSpec()
    while True:
        t = toks.next()
        if t[0] == "end":
            break
        if t[0] != "word":
            raise JobError(f"expected statement keyword, found {t[1]!r}", t[2], t[3])
        kw = t[1]
        if kw == "ring":
            job.ring = _parse_name_list(toks)
        elif kw == "weights":
            job.weights = _parse_int_list(toks)
        elif kw == "params":
            job.params = _parse_name_list(toks)
        elif kw == "ext-params":
            job.ext_params = _parse_name_list(toks)
        elif kw == "divisor":
            s = toks.expect("string")
            job.divisor_text = s[1]
        elif kw == "fields":
            job.fields_text = _parse_field_vectors(toks)
        elif kw == "target-ring":
            job.target_ring = _parse_name_list(toks)
        elif kw == "target-weights":
            job.target_weights = _parse_int_list(toks)
        elif kw == "target-divisor":
            s = toks.expect("string")
            job.target_divisor_text = s[1]
        elif kw == "map":
            job.map_text = _parse_string_list(toks)
        elif kw == "unfolding-ring":
            job.unfolding_ring = _parse_name_list(toks)
        elif kw == "unfolding-target":
            job.unfolding_target = _parse_name_list(toks)
        elif kw == "unfolding-map":
            job.unfolding_map_text = _parse_string_list(toks)
        elif kw == "unfolding-discriminant":
            s = toks.expect("string")
            job.unfolding_discriminant_text = s[1]
        elif kw == "unfolding-weights":
            job.unfolding_weights = _parse_int_list(toks)
        elif kw == "inclusion":
            job.inclusion_text = _parse_string_list(toks)
        elif kw == "command":
            c = toks.next()
            if c[0] != "word" or c[1] not in COMMANDS:
                raise JobError(f"unknown command {c[1]!r}", c[2], c[3])
            job.command = c[1]
        elif kw == "option":
            k = toks.next()
            if k[0] != "word":
                raise JobError(f"unknown option {k[1]!r}", k[2], k[3])
            v = toks.next()
            if v[0] not in ("int", "word"):
                raise JobError(f"expected option value, found {v[1]!r}", v[2], v[3])
            value = int(v[1]) if v[0] == "int" else v[1]
            check_option(k[1], value, k[2], k[3])
            job.options[k[1]] = value
        else:
            raise JobError(f"unknown statement {kw!r}", t[2], t[3])
        toks.expect(";")
    _validate(job, text)
    return job


def _validate(job: JobSpec, text: str):
    def find_pos(needle: str):
        pos = text.find(needle)
        if pos < 0:
            return 0, 0
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    for group, ring in (("ring", job.ring), ("target-ring", job.target_ring),
                        ("unfolding-ring", job.unfolding_ring),
                        ("unfolding-target", job.unfolding_target)):
        if len(set(ring)) != len(ring):
            raise JobError(f"duplicate variable in {group}")
    if job.weights is not None:
        if len(job.weights) != len(job.ring):
            raise JobError("weights length does not match ring")
        if any(w <= 0 for w in job.weights):
            raise JobError("weights must be strictly positive")
    if job.target_weights is not None:
        if len(job.target_weights) != len(job.target_ring):
            raise JobError("target-weights length does not match target-ring")
        if any(w <= 0 for w in job.target_weights):
            raise JobError("target-weights must be strictly positive")
    for p in job.params + job.ext_params:
        if p not in job.ring:
            line, col = find_pos(p)
            raise JobError(f"parameter {p!r} is not a ring variable", line, col)
    # polynomial syntax and variable scope
    def check_poly(txt: str, names: Sequence[str], what: str):
        try:
            parse_poly(txt, names)
        except ParseError as exc:
            line, col = find_pos(txt)
            raise JobError(f"{what}: {exc.message}", line, col) from exc

    if job.divisor_text is not None:
        if not job.ring:
            raise JobError("divisor given without a ring")
        check_poly(job.divisor_text, job.ring, "divisor")
    if job.target_divisor_text is not None:
        check_poly(job.target_divisor_text, job.target_ring, "target-divisor")
    if job.map_text is not None:
        if len(job.map_text) != len(job.target_ring):
            raise JobError("map needs one component per target variable")
        for c in job.map_text:
            check_poly(c, job.ring, "map component")
    if job.fields_text is not None:
        for vec in job.fields_text:
            if len(vec) != len(job.ring):
                raise JobError("each field needs one coefficient per ring variable")
            for c in vec:
                check_poly(c, job.ring, "field coefficient")
    if job.unfolding_map_text is not None:
        if len(job.unfolding_map_text) != len(job.unfolding_target):
            raise JobError("unfolding-map needs one component per unfolding-target variable")
        for c in job.unfolding_map_text:
            check_poly(c, job.unfolding_ring, "unfolding-map component")
    if job.unfolding_discriminant_text is not None:
        check_poly(job.unfolding_discriminant_text, job.unfolding_target, "unfolding-discriminant")
    if job.unfolding_weights is not None:
        if len(job.unfolding_weights) != len(job.unfolding_target):
            raise JobError("unfolding-weights length does not match unfolding-target")
        if any(w <= 0 for w in job.unfolding_weights):
            raise JobError("unfolding-weights must be strictly positive")
    if job.inclusion_text is not None:
        if not job.target_ring:
            raise JobError("inclusion needs a target-ring (the source of the inclusion)")
        if len(job.inclusion_text) != len(job.unfolding_target):
            raise JobError("inclusion needs one component per unfolding-target variable")
        for c in job.inclusion_text:
            check_poly(c, job.target_ring, "inclusion component")
