"""Every nclie function the benchmark's tracer wraps must still exist.

perfbench/ has tests of its own, outside this suite; this one catches a
refactor that drops or renames a traced name, which would otherwise break
only the benchmark.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    targets = layers.targets()
    missing = [f"{t.group}: {getattr(t.owner, '__name__', t.owner)}.{t.attr}"
               for t in targets if not hasattr(t.owner, t.attr)]
    assert not missing
    assert len(targets) == sum(len(attrs) for by_module in layers.GROUPS.values()
                               for attrs in by_module.values())
