"""Every name a module lists in `__all__` resolves, so a removed function
cannot linger in a module's public list, and every public function that no
command enters has a stated reason to stay."""
import importlib
import inspect
import pkgutil
import sys

import pytest

import nks3
from nks3 import cli, fixtures

MODULES = sorted(m.name for m in pkgutil.iter_modules(nks3.__path__))


def test_every_module_is_listed():
    assert {"quat", "frame", "nkspace", "surface", "hsystem", "fixtures", "io", "cli"} \
        <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nks3.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert module.__all__ and not missing


def test_fixtures_public_names():
    # named fixtures are built only through make_fixture
    assert fixtures.__all__ == [
        "FIXTURE_NAMES", "POLE_MARGIN", "make_fixture", "non_adapted_grid",
        "SPHERE_RADIUS", "CYLINDER_RADIUS",
    ]


# public functions and methods that none of the five commands enters, each
# with the reason it stays; a name that gains a command caller, or a new
# name that none enters, fails the test below until this list is updated
NEVER_ENTERED = {
    "fixtures.non_adapted_grid": "the negative control of seven tests",
    "hsystem.sphere_fit": "criterion 07's reference, and a demo fits with it",
    "nkspace.Isometry.apply_point": "criterion 12; the planned cross-command isometry check",
    "nkspace.Isometry.push": "criterion 12; the planned cross-command isometry check",
    "nkspace.random_isometry": "criterion 12; the planned cross-command isometry check",
    "nkspace.gnorm": "bench/layers.py traces it; the ambient cross-checks use it",
    "nkspace.random_point": "about twenty test sites and a demo draw with it",
    "nkspace.random_tangent": "about twenty test sites and a demo draw with it",
    "nkspace.sectional_curvature": "its frozen-value test and a demo read it",
    "quat.unit": "the validated copy for a caller that keeps its array; bench/layers.py "
                 "traces it, and its checks are `unit_norm`'s, which every grid enters",
}


def _public_code():
    """Code object -> dotted name of every function in a module's `__all__`
    and every method, property or cached property its public classes
    define in that module's source (dataclass-generated methods excluded)."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"nks3.{name}")
        for n in module.__all__:
            obj = getattr(module, n)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[obj.__code__] = f"{name}.{n}"
            elif inspect.isclass(obj):
                for attr, v in vars(obj).items():
                    f = getattr(v, "fget", getattr(v, "func", v))
                    if inspect.isfunction(f) and f.__code__.co_filename == module.__file__:
                        out[f.__code__] = f"{name}.{n}.{attr}"
    return out


def test_public_names_no_command_enters(tmp_path, capsys):
    runs = [
        ["fixture", "--fixture", name, "--nu", "31", "--nv", "31",
         "--output", str(tmp_path / f"{name}.csv")]
        for name in fixtures.FIXTURE_NAMES
    ]
    for name in ("example1", "example2"):
        runs.append(["analyze", "--input", str(tmp_path / f"{name}.csv")])
        runs.append(["to-h", "--input", str(tmp_path / f"{name}.csv"),
                     "--output", str(tmp_path / f"{name}_h.csv")])
    for name in ("cmc_sphere", "cmc_cylinder"):
        runs.append(["from-h", "--input", str(tmp_path / f"{name}.csv"),
                     "--output", str(tmp_path / f"{name}_s.csv")])
    runs.append(["verify", "--samples", "100"])

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(["--command", *argv]) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    never = {v for k, v in _public_code().items() if k not in entered}
    assert never == set(NEVER_ENTERED)
