"""The benchmark's tracer patches program attributes by name; each must exist.

`perfbench/spans.py` lives outside the package and reports a hook whose
name is gone only at benchmark time, as a `missing hooks:` line.  This
test loads it by path and resolves every hook against `src/`, without
installing any.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    hooks = spans.hooks()
    assert hooks
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _, _ in hooks
        if getattr(spans.resolve(owner), attr, None) is None
    ]
    assert missing == []
