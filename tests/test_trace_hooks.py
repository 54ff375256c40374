"""The benchmark's tracer wraps graphcanon functions by name; every name it
looks up must exist where it looks."""

import importlib.util
from pathlib import Path

import graphcanon

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_on_its_owner():
    traced = load_spans().TRACED
    assert traced
    for path, attr, _ in traced:
        owner = graphcanon
        for part in path.split("."):
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{path}.{attr}"
