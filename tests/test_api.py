"""Public names resolve, and every entry point the benchmark tracer wraps exists.

``perfbench/tracer.py`` patches functions and methods by name for a traced
run; a name that no longer exists makes that run fail. The tracer's tables
are read here as data, so the check needs neither its import nor an edit.
"""

import ast
import importlib
from pathlib import Path

import pytest

import clifford_ym
from clifford_ym import fields, runner, yang_mills

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_table(name):
    """The literal value assigned to ``name`` at the top level of the tracer."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no {name}")


@pytest.mark.parametrize("module", [clifford_ym, runner, yang_mills],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_tracer_functions_exist():
    functions = tracer_table("FUNCTIONS")
    assert functions
    for span, modname, attr in functions:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is gone"


def test_tracer_methods_exist():
    methods = tracer_table("METHODS")
    assert methods
    for span, modname, clsname, attr in methods:
        cls = getattr(importlib.import_module(modname), clsname, None)
        assert cls is not None, f"{span}: {modname}.{clsname} is gone"
        # The tracer patches vars(cls)[attr], so the class itself must define it.
        assert callable(vars(cls).get(attr)), f"{span}: {clsname} defines no {attr}"


def test_field_vectors_define_compute_jets():
    # The tracer also wraps _compute_jets on every field-vector subclass.
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defining = [cls for cls in subclasses(fields.CliffordFieldVector)
                if "_compute_jets" in vars(cls)]
    assert fields.FrameGaugeFieldVector in defining
