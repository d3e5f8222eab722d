"""The benchmark's span targets still exist where ``perfbench/spans.py`` looks.

``spans.install`` patches every timed or counted method through its owning
class's ``__dict__``, so a target method that moves into a base class (or
is renamed) breaks the benchmark with a ``KeyError``.  This test installs
the tracer exactly as the benchmark does and checks every target was
wrapped and is restored afterwards.
"""

import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def test_every_span_target_is_wrapped_and_restored():
    spans = _load_spans()
    targets = {
        (module_path, attr_path)
        for _, module_path, attr_path in spans.TIMED + spans.COUNTED
    }
    originals = {}
    for module_path, attr_path in sorted(targets):
        owner, name = spans._resolve(module_path, attr_path)
        if isinstance(owner, type):
            assert name in owner.__dict__, (
                f"{module_path}.{attr_path} is not defined in its own class body"
            )
        originals[module_path, attr_path] = (owner, name, _current(owner, name))

    restore = spans.install(spans.Tracer())
    try:
        for key, (owner, name, original) in originals.items():
            wrapped = _current(owner, name)
            assert wrapped is not original, key
            assert inspect.unwrap(wrapped) is original, key
    finally:
        restore()
    for key, (owner, name, original) in originals.items():
        assert _current(owner, name) is original, key
