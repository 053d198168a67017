"""The per-layer trace of the benchmark wraps `logforms` names by string."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, targets in spans.TARGETS.items():
        mod = importlib.import_module(f"logforms.{mod_name}")
        for target in targets:
            owner, _, method = target.partition(".")
            obj = getattr(mod, owner, None)
            assert callable(obj), f"logforms.{mod_name}.{owner} is missing"
            if method:
                assert method in vars(obj), f"{target} is not defined on the class itself"
