"""The benchmark tracer's patch targets exist in the library.

``perfbench/tracing.py`` wraps modhom functions by (module, attribute) name
for per-layer traces.  A rename or deletion in the library would otherwise
show up only as an AttributeError in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (namespace, attr)
        for namespace, attr, *_ in tracing.WRAPS
        if not callable(getattr(importlib.import_module(namespace), attr, None))
    ]
    assert tracing.WRAPS and not missing
