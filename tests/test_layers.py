"""Every layer the benchmark traces must still name a callable of the package.

The tracer marks a missing layer as absent and carries on, so a refactor that
renames one would silently drop its per-layer figures.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def resolves(target: str) -> bool:
    module_name, _, attr_path = target.partition(".")
    owner = importlib.import_module(f"wignerlab.{module_name}")
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    if isinstance(owner, type):
        raw = vars(owner).get(attr)
        return isinstance(raw, property) or callable(raw)
    return callable(getattr(owner, attr, None))


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    assert [target for target in layers if not resolves(target)] == []


def test_a_missing_layer_does_not_resolve():
    assert not resolves("scenarios.no_such_layer")
    assert not resolves("qsim.SpectralObservable.no_such_method")
