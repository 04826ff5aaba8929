"""The benchmark's traced run wraps library functions by name.

`perfbench/tracer.py` looks each name of its `LAYERS` table up on the
`gsflows` module of that layer, and `Class.method` names on the class.  A
rename in the library would break `perfbench/run.py --trace 1` with an
AttributeError that no other test sees.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for layer, names in load_tracer().LAYERS.items():
        home = importlib.import_module(f"gsflows.{layer}")
        for name in names:
            owner = home
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert missing == []
