"""The traced benchmark looks up every function it names in `bench/layers.py`
by module and name; a rename in `nks3` must not leave one unresolved."""
import importlib
import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_benchmark_layer_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{mod}.{fn}"
        for mod, names in layers.LAYERS.items()
        for fn in names
        if not callable(getattr(importlib.import_module(f"nks3.{mod}"), fn, None))
    ]
    assert layers.LAYERS and not missing
