"""The benchmark's tracer looks up each traced function by name at run time,
so a renamed function would silently break traced runs; this pins the names."""

import importlib.util
import sys
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parents[1] / "benchmarks" / "trace_child.py"


def test_trace_spans_resolve():
    import hubbard_lax.cli  # noqa: F401  (imports every traced module)

    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    assert trace_child.SPANS
    for span in trace_child.SPANS:
        module, name = span.split(".")
        if module == "cli":
            name = "cmd_" + name
        fn = getattr(sys.modules["hubbard_lax." + module], name, None)
        assert callable(fn), span
