"""The benchmark's traced run wraps coarsecoh functions by name.

perfbench/layers.py lists them; a rename in the package would make the
traced run fail, so every listed name must resolve here.  The file is
loaded for its tables only; no tracer is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = load_layers()
    for span, module, path, _ in layers.LAYERS:
        owner = importlib.import_module("coarsecoh." + module)
        for part in path.split("."):
            assert hasattr(owner, part), "%s: coarsecoh.%s has no %s" % (
                span, module, path,
            )
            owner = getattr(owner, part)
        assert callable(owner), span


def test_every_counted_degree_op_resolves():
    grading = importlib.import_module("coarsecoh.grading")
    for cls_name, attr in load_layers().DEGREE_OPS:
        assert callable(getattr(getattr(grading, cls_name), attr))
