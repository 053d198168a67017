"""The benchmark reads `logforms` names: its trace wraps them by string, and
its cases import them or read them off a module."""

import importlib

from conftest import bench_reads, trace_targets


def test_every_trace_target_resolves():
    for mod_name, targets in trace_targets().items():
        mod = importlib.import_module(f"logforms.{mod_name}")
        for target in targets:
            owner, _, method = target.partition(".")
            obj = getattr(mod, owner, None)
            assert callable(obj), f"logforms.{mod_name}.{owner} is missing"
            if method:
                assert method in vars(obj), f"{target} is not defined on the class itself"


def test_every_name_the_benchmark_reads_resolves():
    """`from module import name` would succeed for each name `bench/*.py`
    imports or reads off a `logforms` module (a submodule counts)."""
    reads = bench_reads()
    assert {("logforms.deformation", "DeformationSetup"), ("logforms.forms", "forms_pullback"),
            ("logforms.logarithmic", "is_free"), ("logforms", "cli"),
            ("logforms.cli", "main")} <= reads
    missing = [f"{module}.{name}" for module, name in sorted(reads)
               if not hasattr(__import__(module, fromlist=[name]), name)]
    assert not missing, f"names the benchmark reads that do not resolve: {missing}"
