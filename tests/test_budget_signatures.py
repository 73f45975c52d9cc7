"""One budget path: a public function takes either a ``window_budget`` (a
top-level builder, which makes the construction's one meter) or a ``meter``
(a step that charges the meter it is handed), never both."""

import importlib
import inspect
import pkgutil

import pytest

import orbitforge

MODULES = [
    importlib.import_module(f"orbitforge.{name}")
    for name in sorted(m.name for m in pkgutil.iter_modules(orbitforge.__path__))
    if name != "__main__"
]


def _public_callables(module):
    """(qualified name, callable) of the public functions and methods that
    ``module`` defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{module.__name__}.{name}.{attr}", member


def _takes_both(fn):
    params = inspect.signature(fn).parameters
    return "window_budget" in params and "meter" in params


def test_the_walk_sees_the_builders_and_the_steps():
    names = {name for module in MODULES for name, _ in _public_callables(module)}
    assert "orbitforge.witness.rokhlin_tower" in names
    assert "orbitforge.nrange.we_membership_witness" in names
    assert "orbitforge.vectors.BudgetMeter.charge" in names


def test_the_check_flags_a_function_taking_both():
    def both(x, window_budget=None, meter=None):
        return x

    def one(x, meter=None):
        return x

    assert _takes_both(both) and not _takes_both(one)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_public_function_takes_both_a_budget_and_a_meter(module):
    both = [name for name, fn in _public_callables(module) if _takes_both(fn)]
    assert not both
