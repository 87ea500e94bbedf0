"""The benchmark tracer's hooks name library attributes that still exist.

bench/tracing.py wraps functions and methods of mucone by name; a rename in
the library would otherwise only show up when the benchmark is run.
"""

import importlib.util
from pathlib import Path

import mucone

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_functions_resolve():
    for mod_name, attr, _, _ in _tracing().FUNCTIONS:
        assert callable(getattr(getattr(mucone, mod_name), attr)), (mod_name, attr)


def test_methods_defined_on_their_class():
    for mod_name, cls_name, meth, _, _ in _tracing().METHODS:
        cls = getattr(getattr(mucone, mod_name), cls_name)
        assert meth in cls.__dict__, (cls_name, meth)


def test_mu_cache_exists():
    assert isinstance(mucone.interp._MU_CACHE, dict)


def test_pivot_vector_goes_through_solve_u(monkeypatch):
    # the tracer's complement.solve_u_* metrics time this method and read
    # its positional (cmap, rays, target) arguments
    calls = []
    real = mucone.complement.ComplementMap.solve_u

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(mucone.complement.ComplementMap, "solve_u", counting)
    V = mucone.linalg.Vector
    cone = mucone.geometry.Cone([V([1, 0]), V([1, 2])])
    cmap = mucone.complement.standard_inner_product(2)
    u = mucone.interp.pivot_vector(cone, cmap, (1, 0), 1)
    assert calls == [((cmap, tuple(cone.generators), 1), {})]
    assert u == real(cmap, tuple(cone.generators), 1)
