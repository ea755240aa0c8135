"""Every function `perfbench/spans.py` hooks still exists.

The tracer records a hook whose target is missing as absent and leaves its
metrics out, and the traced run still ends correct; so renaming, moving or
deleting a hooked function shows here first.  The test goes when the hooks do.
"""

import importlib.util
import sys
from pathlib import Path

import orbitatlas  # noqa: F401
import orbitatlas.cli  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_hook_target_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    assert len(spans.HOOKS) > 20
    missing = [h.name for h in spans.HOOKS if not callable(spans._resolve(h.module, h.qualname)[1])]
    assert missing == []
