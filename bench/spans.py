"""Span recorder around calls into the public functions of `logforms`.

The recorder wraps functions from outside the package: it rebinds every
reference to a wrapped function in every `logforms.*` namespace (because
`from .groebner import normal_form` copies the reference into `forms` and
`deformation`), and patches class attributes for methods.  Spans live in
memory as [name, case, parent, start, end] and are written out at the end.

`order.term_key` and the `module` helpers are left unwrapped: they run
hundreds of thousands of times per case, so their cost shows in the self
time of their callers instead of being swamped by the recorder's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Wrapped callables per module.  "Class.method" wraps one method under that
# name; a bare class name wraps every method of the class under one name.
TARGETS = {
    "groebner": ("groebner_basis", "normal_form", "normal_form_with_cofactors",
                 "syzygy_module", "lift_over_generators", "kernel_of_map", "colon_single",
                 "intersect", "colon_ideal", "saturate", "submodule_contains",
                 "quotient_dimension", "minimal_generator_indices", "LinSpace.add",
                 "QuotientTable"),
    "poly": ("poly_gcd", "poly_exact_div", "is_squarefree", "parse_poly",
             "quasihomogeneous_weights"),
    "exterior": ("pullback", "ext_d", "wedge", "contract"),
    "logarithmic": ("derlog", "derlog_h", "is_free", "saito_check", "poly_det",
                    "log_form_generators"),
    "forms": ("forms_free", "forms_pullback", "pullback_relation_generators",
              "torsion_length", "subquotient_dimension", "cokernel_slice_dims",
              "de_rham_report_sliced", "GradedSlices.d_matrix", "GradedSlices.d_rank"),
    "deformation": ("mu_e_derham", "kev_normal_space", "ae_normal_space_direct",
                    "ae_codim_damon", "mu_e_alternating", "mu_e_good_equation",
                    "good_equation_witness", "t1_log", "theta_prime_minors",
                    "ke_discriminant_reduced", "SparseLinSpace.add"),
    "jobio": ("parse_job",),
    "cli": ("main", "run_job"),
}


def _gb_fingerprint(args, kwargs):
    gens = kwargs.get("generators", args[0] if args else ())
    order = kwargs.get("order", args[1] if len(args) > 1 else None)
    return tuple(gens), repr(order)


class Recorder:
    """Installs the wrappers, records spans and per-call outcomes."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.case = None
        self.outcomes = defaultdict(Counter)   # name -> {"true": .., "false": ..}
        self._gb_seen: set = set()
        self._undo: list = []

    # -- installation ----------------------------------------------------

    def install(self):
        for mod_name in TARGETS:
            importlib.import_module(f"logforms.{mod_name}")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "logforms" or name.startswith("logforms.")]
        for mod_name, targets in TARGETS.items():
            mod = sys.modules[f"logforms.{mod_name}"]
            for target in targets:
                owner_name, _, method = target.partition(".")
                obj = getattr(mod, owner_name)
                name = f"{mod_name}.{target}"
                if method:
                    self._patch(obj, method, self._wrap(name, obj.__dict__[method]))
                elif isinstance(obj, type):
                    for attr, fn in list(vars(obj).items()):
                        if callable(fn) and not isinstance(fn, type):
                            self._patch(obj, attr, self._wrap(name, fn))
                else:
                    wrapper = self._wrap(name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        rec = self
        if name == "groebner.groebner_basis":
            probe = self._probe_repeat
        elif name in ("groebner.LinSpace.add", "deformation.SparseLinSpace.add"):
            probe = self._probe_truth
        elif name == "logarithmic.saito_check":
            probe = self._probe_saito
        else:
            probe = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, rec.case, rec.stack[-1] if rec.stack else -1, 0.0, 0.0]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                rec.stack.pop()
            if probe is not None:
                probe(name, args, kwargs, result)
            return result

        return wrapper

    # -- outcome probes ----------------------------------------------------

    def _probe_repeat(self, name, args, kwargs, result):
        key = _gb_fingerprint(args, kwargs)
        self.outcomes[name]["true" if key in self._gb_seen else "false"] += 1
        self._gb_seen.add(key)

    def _probe_truth(self, name, args, kwargs, result):
        self.outcomes[name]["true" if result else "false"] += 1

    def _probe_saito(self, name, args, kwargs, result):
        self.outcomes[name]["true" if result[0] is not None else "false"] += 1

    # -- recording ---------------------------------------------------------

    def begin_case(self, case_id: str):
        self.case = case_id
        self._gb_seen = set()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the time of
        top-level spans."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        top = 0.0
        for i, (name, _, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if parent < 0:
                top += end - start
        return {"calls": dict(calls), "self_s": dict(self_s), "top_s": top,
                "outcomes": {k: dict(v) for k, v in self.outcomes.items()}}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
