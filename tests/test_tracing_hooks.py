"""The benchmark's hooks and workloads name library attributes that still exist.

bench/tracing.py wraps functions and methods of mucone by name, and the
workloads read `m.<module>.<name>` off a fresh import; a rename in the
library would otherwise only show up when the benchmark is run.  The
benchmark's own tests import mucone afresh, replacing the `mucone*` entries
of sys.modules, so these tests read the package that sys.modules holds
when each test runs.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def mucone():
    """The mucone package as sys.modules holds it now."""
    return importlib.import_module("mucone")


def test_functions_resolve(mucone):
    for mod_name, attr, _, _ in _tracing().FUNCTIONS:
        assert callable(getattr(getattr(mucone, mod_name), attr)), (mod_name, attr)


def test_methods_defined_on_their_class(mucone):
    for mod_name, cls_name, meth, _, _ in _tracing().METHODS:
        cls = getattr(getattr(mucone, mod_name), cls_name)
        assert meth in cls.__dict__, (cls_name, meth)


def test_bench_names_resolve(mucone):
    # bench/workloads.py binds the package as m.pkg and each module as m.<module>
    names = {(mod, attr) for path in sorted(BENCH.glob("*.py"))
             for mod, attr in re.findall(r"\bm\.(\w+)\.(\w+)", path.read_text())}
    assert ("geometry", "in_convex_hull") in names and ("linalg", "Matrix") in names
    for mod, attr in sorted(names):
        owner = mucone if mod == "pkg" else getattr(mucone, mod)
        assert hasattr(owner, attr), (mod, attr)


def test_mu_cache_exists(mucone):
    assert isinstance(mucone.interp._MU_CACHE, dict)


@pytest.fixture
def tracer(monkeypatch, mucone):
    """The benchmark's Tracer installed on the imported package; every
    attribute install replaces is restored after the test."""
    tracing = _tracing()
    for name, mod in list(sys.modules.items()):
        if name == "mucone" or name.startswith("mucone."):
            for key, val in list(vars(mod).items()):
                if not key.startswith("__"):
                    monkeypatch.setattr(mod, key, val)
    for mod_name, cls_name, meth, _, _ in tracing.METHODS:
        cls = getattr(getattr(mucone, mod_name), cls_name)
        monkeypatch.setattr(cls, meth, cls.__dict__[meth])
    t = tracing.Tracer()
    t.install(mucone)
    return t


def test_tracer_sees_the_normal_fan_and_mu_cache_hits(tracer, mucone):
    # the fan and the basic cells are built behind cached properties, which
    # must still call the module-level functions the tracer wraps
    p = mucone.geometry.Polytope([(0, 0), (1, 0), (1, 2)])
    cmap = mucone.complement.standard_inner_product(2)
    counts = {mucone.valuations.count_via_local_formula(p, cmap) for _ in range(2)}
    assert counts == {len(p.lattice_points())}
    nonbasic = [nc for _, nc in p.normal_cones if not nc.is_basic]
    assert nonbasic
    values = tracer.metrics(0.0)
    assert values["geometry.normal_cone_calls"] == len(p.faces)
    assert values["geometry.subdivide_calls"] == len(nonbasic)
    assert values["geometry.basic_cells"] == sum(len(nc.basic_cells) for nc in nonbasic)
    # the second count reads mu of every nonzero normal cone from the cache
    cached = [nc for _, nc in p.normal_cones if not nc.is_zero]
    assert tracer.counts["interp.mu_cache_hits"] >= len(cached)
    assert values["interp.mu_cache_hit_ratio"] > 0


def test_tracer_reads_a_direct_solve_u_call(tracer, mucone):
    # the tracer's complement.solve_u_* metrics time this method and key
    # its positional (cmap, rays, target) arguments
    V = mucone.linalg.Vector
    cmap = mucone.complement.standard_inner_product(2)
    rays = (V([1, 0]), V([1, 2]))
    u = cmap.solve_u(rays, 1)
    assert [w.dot(u) for w in rays] == [0, 1]
    cmap.solve_u(rays, 1)
    values = tracer.metrics(0.0)
    assert values["complement.solve_u_calls"] == 2
    assert values["complement.solve_u_distinct"] == 1
    assert tracer._solve_u_keys == {(id(cmap), rays, 1)}
