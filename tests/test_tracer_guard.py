"""The traced benchmark run wraps percgame entry points by name; check they exist."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_existing_entry_points_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    from percgame import offspring
    targets = [(importlib.import_module(f"percgame.{module}"), attr)
               for module, attr, _ in spans._FUNCTIONS]
    targets += [(getattr(offspring, cls), attr)
                for cls in spans._DISTRIBUTIONS for attr in ("pgf", "sample")]
    for owner, attr in targets:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"
    # read, not wrapped, by the estimate_probs counter
    assert hasattr(importlib.import_module("percgame.oracle"), "DEFAULT_CHUNK_SIZE")
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(targets, originals))
