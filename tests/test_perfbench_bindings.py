"""The benchmark's traced runs patch ptmc functions at their module
bindings; every binding it names must exist."""

from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_binding_resolves():
    # executed from its source text, so no bytecode is written next to it
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    patches = namespace["PATCHES"]
    assert patches
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in patches
               if not callable(getattr(module, attr, None))]
    assert missing == []
