import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import ngfreg
from ngfreg import synthetic
from ngfreg.benchmark import run_benchmark, verify_variant_agreement
from ngfreg.geometry import Grid3
from ngfreg.lbfgs import lbfgs_minimize
from ngfreg.multilevel import MultilevelConfig
from ngfreg.ngf import NgfParams
from ngfreg.objective import LevelObjective

MODULES = ["ngfreg"] + [f"ngfreg.{m.name}" for m in pkgutil.iter_modules(ngfreg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not stale, f"{name}.__all__ names missing attributes: {stale}"


def test_the_settable_surface_of_a_registration_is_pinned():
    # a new setting of the registration path has to be added here on purpose
    assert list(inspect.signature(lbfgs_minimize).parameters) == ["f", "x0", "max_iterations"]
    # the fields that register and perfbench pass
    assert [f.name for f in dataclasses.fields(LevelObjective) if f.init] == [
        "template", "ref", "plan", "params", "alpha", "pt_variant", "workers"]
    # 10 settable values: the config's own 9 fields, ngf counted as its 2
    assert [f.name for f in dataclasses.fields(MultilevelConfig)] == [
        "num_levels", "coarsest_min_dim", "grid_ratio", "alpha", "ngf", "max_iterations",
        "precision", "workers", "pt_variant"]
    assert [f.name for f in dataclasses.fields(NgfParams)] == ["tau", "rho"]


@pytest.mark.parametrize("fn, names", [
    (synthetic.analytic_intensity, ["x", "y", "z"]),
    (synthetic.make_volume, ["grid"]),
    (synthetic.make_registration_pair, ["grid", "mapping"]),
    (synthetic.smooth_random_volume, ["grid", "seed", "amplitude"]),
    (verify_variant_agreement, ["dims", "seed"]),
    (run_benchmark, ["dims", "workers_list", "precisions", "variants", "reps",
                     "register_max_iter"]),
    (Grid3.same_extent, ["self", "other"]),
])
def test_parameters_no_caller_sets_stay_constants(fn, names):
    # amplitude, period_mm, smooth_passes, rel_tol, run_benchmark's seed and
    # same_extent's tol are module constants; a new parameter is added on purpose
    assert list(inspect.signature(fn).parameters) == names
