"""The benchmark's tracer looks up each traced function by name at run time,
and keys some calls by their positional arguments, so a renamed function or
a reordered signature would silently break traced runs; this pins both.
The cold-start checks pin which commands pay for importing scipy and the
process pool: only the ones that use them. No command uses scipy;
only the tests' cross-checks import it. Nor does any command load
numpy.random, libcrypto (_hashlib) or decimal."""

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
    ["verify", "--K", "2", "--samples", "1"],
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


def test_traced_commute_builds_no_family(tmp_path):
    # each parameter point is one transfer tensor from the level band and one
    # sector contraction: no dense family and no dense Omega
    spans = tmp_path / "spans.json"
    r = subprocess.run([sys.executable, str(TRACE_CHILD), str(spans), "job", "commute",
                        "--n", "2,3", "--pairs", "1", "--out", str(tmp_path / "out")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    names = [row[0] for row in json.loads(spans.read_text())["spans"]]
    assert "transfer_commutativity.check_commutativity" in names
    assert names.count("lax_builder.assemble_family") == 0
    assert names.count("ness_engine.contract_omega") == 0


@pytest.mark.parametrize("argv, families", [(["oracle", "--n", "2"], 0),
                                            (["ness", "--n", "3"], 1)])
def test_traced_steady_state_builds_no_family(tmp_path, argv, families):
    # the steady state is contracted from the transfer components alone:
    # oracle builds no dense family, and ness one, for its certificate
    spans = tmp_path / "spans.json"
    r = subprocess.run([sys.executable, str(TRACE_CHILD), str(spans), "job", *argv, "--u", "1",
                        "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    names = [row[0] for row in json.loads(spans.read_text())["spans"]]
    assert "ness_engine.build_ness" in names
    assert names.count("lax_builder.assemble_family") == families


def test_ness_and_commute_share_one_contraction(tmp_path, monkeypatch, capsys):
    # build_ness and the commutation probe read Omega's blocks through one
    # function, once per state and once per parameter point
    from hubbard_lax import cli, ness_engine, transfer_commutativity

    assert transfer_commutativity.omega_blocks is ness_engine.omega_blocks
    calls = []
    core = ness_engine.omega_blocks

    def counted(K, params, ns):
        calls.append(sorted(ns))
        return core(K, params, ns)

    for module in (ness_engine, transfer_commutativity):
        monkeypatch.setattr(module, "omega_blocks", counted)
    assert cli.main(["ness", "--n", "3", "--u", "2", "--out", str(tmp_path)]) == 0
    assert calls == [[3]]
    assert cli.main(["commute", "--n", "2,3", "--pairs", "1", "--out", str(tmp_path)]) == 0
    assert calls == [[3], [2, 3], [2, 3]]


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


RUN = "import sys\nfrom hubbard_lax.cli import main\nassert main(sys.argv[1:]) == 0"


def _loaded(code: str, *argv: str, modules=("scipy", "multiprocessing")) -> str:
    """The sorted list, as printed, of the modules among `modules` (full
    names) that a fresh interpreter holds after running code."""
    probe = code + f"\nprint(sorted(set(sys.modules) & {set(modules)!r}))"
    r = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def test_oracle_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique without return_inverse imports numpy.ma on its first call;
    # the oracle groups its sectors without it
    assert _loaded(RUN, "oracle", "--n", "2", "--u", "1", "--out", str(tmp_path),
                   modules=("numpy.ma",)) == "[]"


@pytest.mark.parametrize("argv", [["observe", "--n", "12"],
                                  ["observe", "--n", "8", "--scaling", "4,6,8"]])
def test_environment_engine_leaves_numpy_ma_unloaded(tmp_path, argv):
    # nor does the environment engine: importing numpy.ma costs every process
    # about 12 ms, which np.intersect1d without assume_unique would pay
    assert _loaded(RUN, *argv, "--u", "1", "--out", str(tmp_path),
                   modules=("numpy.ma",)) == "[]"


def test_cli_import_loads_no_scipy_or_process_pool():
    assert _loaded("import sys, hubbard_lax.cli") == "[]"


def test_cli_import_loads_no_fractions():
    # the X-block structure is checked exactly on integers, not on Fraction
    assert _loaded("import sys, hubbard_lax.cli", modules=("fractions",)) == "[]"


# numpy.random and hashlib load _hashlib (libcrypto), and decimal costs
# 0.4 MB: no command needs any of them; the seeded points are drawn by
# algebra_verifier.SeededStream
UNUSED = ("_hashlib", "numpy.random", "decimal")


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
    # one probe: `loaded` names scipy or the pool, and UNUSED stays out of it
    assert _loaded(RUN, *argv, "--out", str(tmp_path),
                   modules=("scipy", "multiprocessing", *UNUSED)) == loaded


def test_ness_dump_still_verifies(tmp_path):
    # dump_rho and load_rho import hashlib for themselves
    dump = tmp_path / "rho.bin"
    check = (RUN + "\nimport numpy as np\nfrom hubbard_lax.ness_engine import load_rho"
             f"\nrho = load_rho({str(dump)!r})\nassert rho.shape == (64, 64)"
             "\nassert abs(np.trace(rho) - 1) < 1e-12")
    assert _loaded(check, "ness", "--n", "3", "--u", "1", "--dump-rho", str(dump),
                   "--out", str(tmp_path)) == "[]"
