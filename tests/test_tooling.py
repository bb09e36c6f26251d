"""The benchmark's tracer looks up each traced function by name at run time,
and keys some calls by their positional arguments, so a renamed function or
a reordered signature would silently break traced runs; this pins both.
The cold-start checks pin which commands pay for importing scipy and the
process pool: only the ones that use them. No command uses scipy;
only the tests' cross-checks import it."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv", [
    ["commute", "--n", "2", "--pairs", "1"],
    ["ness", "--n", "2", "--u", "1"],
])
def test_traced_run_keys_its_families(tmp_path, argv):
    # the tracer keys each assemble_family call by calling its key function
    # with the call's own arguments, so a keyword call or a reordered
    # signature would break the traced run alone
    spans = tmp_path / "spans.json"
    r = subprocess.run([sys.executable, str(TRACE_CHILD), str(spans), "job", *argv,
                        "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    rows = json.loads(spans.read_text())["spans"]
    assert not [row for row in rows if row[4]]
    keys = [row[5] for row in rows if row[0] == "lax_builder.assemble_family"]
    assert keys and all(re.fullmatch(r"\d+\|LaxParams\(.*\)", k) for k in keys), keys


def test_traced_commute_builds_one_family_per_point(tmp_path):
    # one pair is two parameter points: one family each, at the cutoff of
    # the longest chain, and one Omega per point and chain length
    spans = tmp_path / "spans.json"
    r = subprocess.run([sys.executable, str(TRACE_CHILD), str(spans), "job", "commute",
                        "--n", "2,3", "--pairs", "1", "--out", str(tmp_path / "out")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    names = [row[0] for row in json.loads(spans.read_text())["spans"]]
    assert names.count("lax_builder.assemble_family") == 2
    assert names.count("ness_engine.contract_omega") == 4


def test_traced_observe_builds_no_family(tmp_path):
    # the environment engine reads the transfer components from the level
    # band: no dense family at any length of a scaling series
    spans = tmp_path / "spans.json"
    r = subprocess.run([sys.executable, str(TRACE_CHILD), str(spans), "job", "observe",
                        "--n", "8", "--u", "1", "--scaling", "4,6,8",
                        "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    names = [row[0] for row in json.loads(spans.read_text())["spans"]]
    assert "observables.current_series" in names
    assert names.count("lax_builder.assemble_family") == 0


def test_oracle_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique without return_inverse imports numpy.ma on its first call;
    # the oracle groups its sectors without it
    probe = ("import sys\nfrom hubbard_lax.cli import main\n"
             "assert main(sys.argv[1:]) == 0\nprint('numpy.ma' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", probe, "oracle", "--n", "2", "--u", "1",
                        "--out", str(tmp_path)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def _heavy_modules_loaded(code: str, *argv: str) -> str:
    """The sorted list, as printed, of the packages among scipy and
    multiprocessing that a fresh interpreter holds after running code."""
    probe = (code + "\nprint(sorted({m.partition('.')[0] for m in sys.modules}"
             " & {'scipy', 'multiprocessing'}))")
    r = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def test_cli_import_loads_no_scipy_or_process_pool():
    assert _heavy_modules_loaded("import sys, hubbard_lax.cli") == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (["verify", "--K", "3"], "[]"),
    (["commute"], "[]"),
    (["ness", "--n", "3", "--u", "1"], "[]"),
    (["observe", "--n", "5", "--u", "1"], "[]"),
    (["sweep", "--n", "2,3"], "[]"),
    # the environment engine
    (["observe", "--n", "6", "--u", "1"], "[]"),
    (["oracle", "--n", "2", "--u", "1"], "[]"),
    (["ness", "--n", "3", "--u", "1", "--lindblad-residual"], "[]"),
    # the environment engine again, for a scaling series
    (["observe", "--n", "8", "--u", "1", "--scaling", "4,6,8"], "[]"),
])
def test_commands_load_scipy_only_where_used(tmp_path, argv, loaded):
    run = "import sys\nfrom hubbard_lax.cli import main\nassert main(sys.argv[1:]) == 0"
    assert _heavy_modules_loaded(run, *argv, "--out", str(tmp_path)) == loaded
