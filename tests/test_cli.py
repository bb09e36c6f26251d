import concurrent.futures
import csv
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

BASE = [sys.executable, "-m", "hubbard_lax.cli"]


def run(*args, **kw):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, **kw)


def test_ness_contract(tmp_path):
    out = tmp_path / "o"
    r = run("ness", "--n", "2", "--gammaL", "1", "--gammaR", "0.5", "--u", "1",
            "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["schema_version"] == 3
    assert doc["driving"]["gamma_R"] == 0.5
    assert doc["map"]["lambda"] == [1.0 / 3.0, 0.0]
    assert doc["passed"] is True
    assert (out / "ness.json").exists()


def test_ness_deterministic_output(tmp_path):
    args = ("ness", "--n", "2", "--gammaL", "1.2", "--gammaR", "0.7",
            "--muL", "0.3", "--u", "1")
    r1 = run(*args, "--out", str(tmp_path / "a"))
    r2 = run(*args, "--out", str(tmp_path / "b"))
    assert r1.returncode == r2.returncode == 0
    assert (tmp_path / "a" / "ness.json").read_bytes() == \
           (tmp_path / "b" / "ness.json").read_bytes()


def test_zero_rate_rejected(tmp_path):
    r = run("ness", "--n", "2", "--gammaL", "0", "--gammaR", "1", "--u", "1",
            "--out", str(tmp_path))
    assert r.returncode == 2
    assert "positive" in r.stderr
    r = run("observe", "--n", "3", "--gammaL", "1", "--gammaR", "1", "--u", "nan",
            "--out", str(tmp_path))
    assert r.returncode == 2
    assert "u must be finite, got nan" in r.stderr
    r = run("ness", "--n", "2", "--gammaL", "nan", "--gammaR", "1", "--u", "1",
            "--out", str(tmp_path))
    assert r.returncode == 2
    assert "gamma_L must be finite, got nan" in r.stderr
    r = run("ness", "--n", "2", "--gammaL", "1", "--gammaR", "1", "--muR", "inf",
            "--u", "1", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "mu_R must be finite, got inf" in r.stderr
    # a finite rate whose family overflows
    r = run("observe", "--n", "6", "--gammaL", "1e300", "--u", "1", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "error: the computation failed numerically" in r.stderr
    assert "Traceback" not in r.stderr


def _cap_address_space():
    # the same 3 GiB cap the benchmark puts on each job
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_ness_five_sites_under_memory_cap(tmp_path):
    r = run("ness", "--n", "5", "--gammaL", "1.5", "--gammaR", "0.7", "--muL", "0.3",
            "--muR", "-0.4", "--u", "2", "--out", str(tmp_path),
            preexec_fn=_cap_address_space)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["diagnostics"]["telescoping_residual"] <= 1e-10


def test_ness_six_sites_under_memory_cap(tmp_path):
    # the dense rho alone would be 256 MiB, and its dense spectrum took most of a minute
    r = run("ness", "--n", "6", "--gammaL", "1.5", "--gammaR", "0.7", "--muL", "0.3",
            "--muR", "-0.4", "--u", "2", "--out", str(tmp_path),
            preexec_fn=_cap_address_space, timeout=60)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["diagnostics"]["positivity_min_eig"] > 0


def test_observe_long_scaling_under_memory_cap(tmp_path):
    # the series runs to n = 40, where a dense pair transfer matrix would
    # need about 800 MiB per copy
    r = run("observe", "--n", "8", "--scaling", "4,24,40", "--gammaL", "1.5",
            "--gammaR", "0.7", "--muL", "0.3", "--muR", "-0.4", "--u", "2",
            "--out", str(tmp_path), preexec_fn=_cap_address_space)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert [n for n, _ in doc["scaling"]["series"]] == [4, 24, 40]


def test_ness_eight_sites_refused_before_sector_build(tmp_path, capsys):
    # the certificate is local, so the refusal comes from the sector
    # contraction's own guard: the sectors of Omega alone would take 2.5 GiB
    # at n = 8, the certificate a few MiB
    from hubbard_lax import cli

    tracemalloc.start()
    try:
        rc = cli.main(["ness", "--n", "8", "--gammaL", "1.5", "--gammaR", "0.7",
                       "--u", "2", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "exceeds the memory limits" in capsys.readouterr().err
    assert peak < 16 << 20
    assert not (tmp_path / "ness.json").exists()


def test_ness_refuses_a_long_chain_before_any_work(tmp_path, capsys, monkeypatch):
    # the sector blocks of an n-site state hold C(2n, n)^2 entries at every
    # driving, so n = 100 is refused from that bound before the family is built
    from hubbard_lax import cli

    def built(cfg):
        raise AssertionError("a family was built")

    monkeypatch.setattr(cli, "ness_family", built)
    start = time.perf_counter()
    rc = cli.main(["ness", "--n", "100", "--u", "2", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 2
    assert rc == 2
    assert "100-site sector blocks" in capsys.readouterr().err
    assert not (tmp_path / "ness.json").exists()


def _refused_without_warnings(argv, capsys) -> str:
    """cli.main(argv) exits 2 and warns nothing; its stderr."""
    from hubbard_lax import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err
    return err


@pytest.mark.parametrize("argv", [["observe", "--n", "6"], ["sweep", "--n", "6,8"]])
def test_non_finite_observables_are_refused(tmp_path, capsys, argv):
    # at u = 1e200 the transfer components are finite, but the products of
    # two of them overflow: the engine refuses before its sweep, where every
    # density read nan
    err = _refused_without_warnings([*argv, "--u", "1e200", "--out", str(tmp_path)], capsys)
    assert "the pair transfer of the 6-site chain at LaxParams(" in err
    assert "overflows: 4 max|L| = 1.6e+201" in err
    assert not any(tmp_path.iterdir())


def test_observe_completes_where_the_pair_products_stay_finite(tmp_path, capsys):
    # at u = 1e75 the products that meet in one entry, counted from the
    # tables, stay finite, and so does every value read
    from hubbard_lax import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["observe", "--n", "6", "--u", "1e75", "--out", str(tmp_path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    doc = json.loads((tmp_path / "observe.json").read_text())
    values = [*doc["densities_sigma"], *doc["densities_tau"], *doc["currents_sigma"],
              *doc["currents_tau"]]
    assert len(values) == 22 and all(math.isfinite(x) for x in values)
    capsys.readouterr()


def test_observe_scaling_reads_a_series_past_the_profile_store(tmp_path, capsys):
    # the series keeps two environments per length, and is guarded on that
    # store alone, not on the n environments of a whole 300-site profile
    from hubbard_lax import cli

    assert cli.main(["observe", "--n", "8", "--u", "1", "--scaling", "100,200,300",
                     "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "observe.json").read_text())
    assert [n for n, _ in doc["scaling"]["series"]] == [100, 200, 300]
    capsys.readouterr()


def test_observe_scaling_sweeps_again_where_one_sweep_underflows(tmp_path, capsys):
    # in one 1600-site sweep the levels that n = 800 reads underflow, and J
    # read nan after a numpy warning; the series sweeps 800 sites again
    from hubbard_lax import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["observe", "--n", "8", "--scaling", "100,800,1600", "--u", "2",
                         "--gammaL", "1.5", "--gammaR", "0.7", "--muL", "0.3", "--muR", "-0.4",
                         "--out", str(tmp_path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    series = json.loads((tmp_path / "observe.json").read_text())["scaling"]["series"]
    assert [n for n, _ in series] == [100, 800, 1600]
    assert all(0 < J < 1e-3 for _, J in series)
    capsys.readouterr()


def test_observe_refuses_an_environment_that_would_overflow(tmp_path, capsys):
    # at u = 1e100 the pair products are finite, but the norm that rescales
    # each environment squares them past the float range: every density read
    # nan after numpy warnings
    err = _refused_without_warnings(["observe", "--n", "6", "--u", "1e100",
                                     "--out", str(tmp_path)], capsys)
    assert "the pair transfer of the 6-site chain at LaxParams(" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("u, message", [
    # the transfer entries are finite, but Omega's entries overflow
    ("1e200", "3-site transfer operator at LaxParams("),
    # Omega is finite, but its norms overflow
    ("1e150", "3-site commutator at LaxParams("),
])
def test_commute_refuses_an_overflow(tmp_path, capsys, u, message):
    # either would otherwise reach commute.json as an inf or NaN
    # residual_fro and operand_scale, with exit status 0
    err = _refused_without_warnings(["commute", "--n", "3", "--pairs", "1", "--u", u,
                                     "--out", str(tmp_path)], capsys)
    assert message in err
    assert not (tmp_path / "commute.json").exists()


@pytest.mark.parametrize("argv", [["commute"], ["observe", "--n", "4"]])
def test_an_overflow_at_the_largest_u_names_no_nan(tmp_path, capsys, argv):
    # at u = 1e308 the X blocks pass the float range, and inf times a zero
    # reads nan: the refusal comes without a numpy warning, and names none
    err = _refused_without_warnings([*argv, "--u", "1e308", "--out", str(tmp_path)], capsys)
    assert "overflows" in err and "nan" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["ness", "--n", "2", "--u", "0", "--gammaL", "1e-300"],
    ["ness", "--n", "4", "--u", "1", "--gammaR", "1e-200"],
    ["ness", "--n", "3", "--u", "1", "--gammaR", "1e-200", "--lindblad-residual"],
    ["observe", "--n", "4", "--u", "1", "--gammaR", "1e-200"],
    ["sweep", "--n", "3", "--u", "1", "--gammaR", "1e-200"],
])
def test_extreme_rate_ratios_run(tmp_path, capsys, argv):
    # M's site weights are scaled by a power of two, which its readers
    # divide out; unscaled, their products overflowed, and ness.json read
    # NaN, or observe and sweep refused, blaming L
    from hubbard_lax import cli

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    text = (tmp_path / f"{argv[0]}.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    # G_L / G_R overflows, and so does eta: ness.json read NaN after numpy
    # warnings, and observe refused, blaming L
    (["ness", "--n", "2", "--gammaL", "1e10", "--gammaR", "1e-310"],
     "gamma_L = 1e+10 and gamma_R = 1e-310 are too far apart"),
    (["observe", "--n", "4", "--gammaL", "1e10", "--gammaR", "1e-310"],
     "gamma_L = 1e+10 and gamma_R = 1e-310 are too far apart"),
    # G_L / G_R is finite, but its inverse overflows
    (["ness", "--n", "2", "--gammaL", "1e-320"],
     "gamma_L = 9.99989e-321 and gamma_R = 1 are too far apart"),
])
def test_a_rate_ratio_past_the_float_range_is_refused(tmp_path, capsys, argv, message):
    err = _refused_without_warnings([*argv, "--u", "1", "--out", str(tmp_path)], capsys)
    assert message in err and "M's site weights" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, omega", [
    (["ness", "--n", "3", "--gammaL", "1e300"], "omega=2.5e+299j"),
    (["ness", "--n", "2", "--muL", "1e300"], "omega=(2.5e+299+0.5j)"),
])
def test_an_overflowing_omega_squared_names_the_table(tmp_path, capsys, argv, omega):
    # complex ** raised "complex exponentiation" before the family's
    # finiteness check could name the table
    err = _refused_without_warnings([*argv, "--u", "1", "--out", str(tmp_path)], capsys)
    assert "the Lax family at LaxParams(lam=" in err and omega in err
    assert "is not finite: X overflows" in err
    assert not any(tmp_path.iterdir())


def test_observe_at_an_extreme_rate_ratio(tmp_path, capsys):
    # with nothing ejected on the right, the chain fills up, and a current
    # of order G_R flows, uniform along the chain
    from hubbard_lax import cli

    assert cli.main(["observe", "--n", "4", "--u", "1", "--gammaR", "1e-200",
                     "--out", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    for d in (*doc["densities_sigma"], *doc["densities_tau"]):
        assert abs(d - 1) <= 1e-12
    for J in (*doc["currents_sigma"], *doc["currents_tau"]):
        assert 1e-200 <= J <= 1e-199
    assert doc["current_uniformity"] <= 1e-15


def test_commute_refuses_eight_sites_before_any_work(tmp_path, capsys, monkeypatch):
    # the 8-site blocks alone would take 2.5 GiB; the guard refuses them
    # before a transfer tensor is built
    from hubbard_lax import cli, ness_engine

    def built(*args):
        raise AssertionError("a transfer tensor was built")

    monkeypatch.setattr(ness_engine, "build_L", built)
    assert cli.main(["commute", "--n", "2,8", "--out", str(tmp_path)]) == 2
    assert "8-site sector blocks needs about" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_commute_refuses_a_huge_chain_at_once(tmp_path, capsys):
    # the blocks' bound is read before the rows are planned, which takes
    # time as n^2
    from hubbard_lax import cli

    start = time.perf_counter()
    assert cli.main(["commute", "--n", "100000", "--pairs", "1", "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 2
    assert "100000-site sector blocks needs about" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_commute_refuses_to_check_no_pair(tmp_path, capsys, monkeypatch, pairs):
    # no pair forms no commutator, so all_within_tolerance would be vacuous
    from hubbard_lax import cli, ness_engine

    def built(*args):
        raise AssertionError("a transfer tensor was built")

    monkeypatch.setattr(ness_engine, "build_L", built)
    assert cli.main(["commute", "--pairs", pairs, "--out", str(tmp_path)]) == 2
    assert f"commute needs at least one pair, got {pairs}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["commute", "--n", "2", "--pairs", "1"],
                                  ["verify", "--K", "2", "--samples", "1"]])
@pytest.mark.parametrize("u", ["nan", "inf", "-inf"])
def test_non_finite_u_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, u):
    # NaN times a tensor's zeros would otherwise be refused by a wrong reason:
    # a broken charge, or a family that is not finite
    from hubbard_lax import cli, lax_builder, ness_engine

    def built(*args):
        raise AssertionError("a family or a transfer tensor was built")

    for module in (lax_builder, ness_engine):
        monkeypatch.setattr(module, "build_L", built)
    assert cli.main([*argv, f"--u={u}", "--out", str(tmp_path)]) == 2
    assert f"u must be finite, got {u}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n", ["300", "100000"])
def test_ness_names_the_sector_blocks_of_a_huge_chain(tmp_path, capsys, n):
    # the size, past the float range, is formatted without a float quotient,
    # and the exact C(2n, n) is not paid for at n = 10^5
    from hubbard_lax import cli

    start = time.perf_counter()
    rc = cli.main(["ness", "--n", n, "--u", "2", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 2
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{n}-site sector blocks needs about" in err
    assert {"300": "2.72e+350", "100000": "4.72e+120398"}[n] in err


@pytest.mark.parametrize("flag", ["--dump-rho", "--lindblad-residual"])
def test_ness_refuses_a_dense_state_past_six_sites(tmp_path, capsys, monkeypatch, flag):
    # both read the dense rho, 4 GiB at n = 7: refused before any family is built
    from hubbard_lax import cli

    def built(cfg):
        raise AssertionError("a family was built")

    monkeypatch.setattr(cli, "ness_family", built)
    args = [flag, str(tmp_path / "rho.bin")] if flag == "--dump-rho" else [flag]
    rc = cli.main(["ness", "--n", "7", "--u", "2", *args, "--out", str(tmp_path)])
    assert rc == 2
    assert "a dense 7-site state" in capsys.readouterr().err
    assert not (tmp_path / "ness.json").exists()
    assert not (tmp_path / "rho.bin").exists()


def test_ness_refuses_a_dump_path_that_is_not_text(tmp_path, capsys, monkeypatch):
    from hubbard_lax import cli

    def built(cfg):
        raise AssertionError("a family was built")

    monkeypatch.setattr(cli, "ness_family", built)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "u": 1, "dump_rho": [1]}))
    assert cli.main(["ness", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "dump_rho must be a file path, got [1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_observe_refusal_names_the_environment_store(tmp_path, capsys):
    # the matrix-free route refuses here, so the message must not blame the
    # dense route
    from hubbard_lax import cli

    rc = cli.main(["observe", "--n", "10000", "--u", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "10000-site environment store" in err
    assert "dense-route" not in err


@pytest.mark.parametrize("scaling, message", [
    ("1,4,8", "n_sites >= 2"),
    ("8,40000,12", "40000-site environment store"),
    ("4,6", "scaling needs at least 3 distinct chain lengths, got [4, 6]"),
    ("4,4,4", "scaling needs at least 3 distinct chain lengths, got [4, 4, 4]"),
])
def test_observe_scaling_refusals(tmp_path, capsys, scaling, message):
    # the whole series is checked, and its one sweep sized from the longest
    # chain, before any of it is computed, and no file is written
    from hubbard_lax import cli

    rc = cli.main(["observe", "--n", "6", "--u", "1", "--scaling", scaling,
                   "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_oracle_size_refusal(tmp_path):
    for n in ("4", "40"):
        r = run("oracle", "--n", n, "--gammaL", "1", "--gammaR", "1", "--u", "1",
                "--out", str(tmp_path))
        assert r.returncode == 2
        assert "n <= 3" in r.stderr


def test_oracle_two_sites(tmp_path):
    r = run("oracle", "--n", "2", "--gammaL", "1", "--gammaR", "0.5", "--u", "1",
            "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["frobenius_distance"] < 1e-10
    assert doc["lindblad_residual"] < 1e-9
    assert "mpo_fixed_point_residual" not in doc
    assert doc["tolerance"] == 1e-10
    assert doc["passed"] is True


def test_verify_small(tmp_path):
    r = run("verify", "--samples", "1", "--K", "3", "--seed", "7",
            "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["seed"] == 7
    assert doc["all_passed"] is True
    assert all(rep["passed"] for rep in doc["reports"])
    assert all(x["passed"] for x in doc["interaction_blocks"])


def test_verify_seed_five(tmp_path):
    # at this seed the k = 20 X-block determinant cancels to ~1e-12 in floats
    r = run("verify", "--seed", "5", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["all_passed"] is True
    assert all(x["det_max_rel"] == 0.0 for x in doc["interaction_blocks"])


def test_observe_refuses_flags_it_does_not_read(tmp_path):
    # ness takes no cutoff either: the chain length fixes it
    for cmd, flag in (("observe", ("--K", "1")), ("observe", ("--tol", "1e-300")),
                      ("ness", ("--K", "3"))):
        r = run(cmd, "--n", "3", "--u", "1", *flag, "--out", str(tmp_path))
        assert r.returncode == 2
        assert "unrecognized arguments" in r.stderr


def test_ness_assembles_one_family(tmp_path, monkeypatch):
    # the doubled checks and the dense state share one family
    from hubbard_lax import cli, ness_engine

    calls = []
    assemble = ness_engine.assemble_family

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(ness_engine, "assemble_family", counted)
    rc = cli.main(["ness", "--n", "3", "--gammaL", "1.5", "--gammaR", "0.7",
                   "--u", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1


def test_ness_gates_on_the_bulk_certificate(tmp_path, monkeypatch, capsys):
    # an off-root Ltilde defect leaves Omega and the boundary equations
    # intact; only the bulk certificate sees it, and it must fail the run
    from conftest import off_root_ltilde_defect
    from hubbard_lax import cli

    ness_family = cli.ness_family
    monkeypatch.setattr(cli, "ness_family", lambda cfg: off_root_ltilde_defect(ness_family(cfg)))
    rc = cli.main(["ness", "--n", "3", "--gammaL", "1.5", "--gammaR", "0.7",
                   "--muL", "0.3", "--muR", "-0.4", "--u", "2", "--out", str(tmp_path)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["passed"] is False
    assert doc["diagnostics"]["telescoping_residual"] > 1e-4
    assert max(doc["diagnostics"]["boundary_left_residual"],
               doc["diagnostics"]["boundary_right_residual"]) <= 1e-10


@pytest.mark.parametrize("argv, config", [
    (["oracle", "--n", "2", "--u", "1", "--tol", "inf"], None),
    (["verify", "--K", "3", "--samples", "1", "--tol", "inf"], None),
    (["ness", "--n", "2", "--u", "1", "--tol", "nan"], None),
    (["ness", "--n", "2", "--u", "1", "--tol", "0"], None),
    (["oracle", "--n", "2", "--u", "1"], {"tol": -1e-10}),
    (["verify", "--K", "3", "--samples", "1"], {"tol": "Infinity"}),
])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, argv, config):
    # an infinite or nan tolerance passes every gate, and 0 or less none
    from hubbard_lax import cli

    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "tol must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "gammaL": 1.0, "gammaR": 0.5, "u": 1.0}))
    r1 = run("ness", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert r1.returncode == 0, r1.stderr
    assert json.loads(r1.stdout)["driving"]["gamma_R"] == 0.5
    # flag overrides the file
    r2 = run("ness", "--config", str(cfg), "--gammaR", "2.0",
             "--out", str(tmp_path / "b"))
    assert json.loads(r2.stdout)["driving"]["gamma_R"] == 2.0


def test_config_refuses_keys_no_option_reads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "u": 1, "K": 1, "bogus": 3}))
    r = run("ness", "--config", str(cfg), "--out", str(tmp_path))
    assert r.returncode == 2
    assert "K, bogus" in r.stderr
    # verify alone reads a cutoff list, or a single cutoff, from a config file
    for cutoffs in ([3], 3):
        cfg.write_text(json.dumps({"K": cutoffs, "samples": 1, "seed": 7}))
        r = run("verify", "--config", str(cfg), "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["cutoffs"] == [3]
    # the cutoffs are set as K, like the flag; the output key stays "cutoffs"
    cfg.write_text(json.dumps({"cutoffs": [3], "samples": 1}))
    r = run("verify", "--config", str(cfg), "--out", str(tmp_path / "c"))
    assert r.returncode == 2
    assert "keys that verify does not read: cutoffs" in r.stderr


@pytest.mark.parametrize("config, flags", [
    ({"K": []}, ["--samples", "1"]),
    ({}, ["--K", "3", "--samples", "0"]),
])
def test_verify_refuses_to_check_nothing(tmp_path, config, flags):
    # no cutoff or no sample runs no identity check, so all_passed would be vacuous
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    r = run("verify", "--config", str(cfg), *flags, "--out", str(tmp_path))
    assert r.returncode == 2
    assert "verify needs at least one cutoff and one sample" in r.stderr
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("cmd, key, value", [
    ("verify", "K", 3.9),
    ("verify", "K", [3.5]),
    ("verify", "samples", 1.7),
    ("verify", "seed", 7.5),
    ("commute", "pairs", 2.5),
    ("commute", "seed", 5.5),
    ("sweep", "workers", 1.5),
])
def test_config_integers_are_whole_numbers(tmp_path, capsys, cmd, key, value):
    # int() would truncate these and run something else than was asked
    from hubbard_lax import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"{key} must be a whole number" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, config, message", [
    (["ness"], {"tol": [1e-10], "n": 2, "u": 1}, "tol must be a number, got [1e-10]"),
    (["ness"], {"gammaL": {"a": 1}, "n": 2, "u": 1}, "gammaL must be a number"),
    (["sweep", "--n", "2"], {"u": [1, True]}, "u must be a number, got True"),
    (["commute", "--n", "2", "--pairs", "1"], {"u": [1.0]}, "u must be a number"),
    # an on/off option is JSON true or false; the text "false" would turn it on
    (["ness"], {"n": 3, "u": 1, "lindblad_residual": "false"},
     "lindblad_residual must be true or false, got 'false'"),
    (["observe", "--n", "3", "--u", "1"], {"gnuplot": "no"},
     "gnuplot must be true or false, got 'no'"),
])
def test_config_values_of_the_wrong_type(tmp_path, capsys, cmd, config, message):
    # refused where the value is parsed, with exit 2, not a TypeError traceback
    from hubbard_lax import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([*cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, key, text, message", [
    (["ness", "--u", "1"], "n", "2.9", "n must be a whole number, got '2.9'"),
    (["verify", "--samples", "1"], "K", "3.5", "K must be a whole number, got '3.5'"),
    (["sweep", "--n", "2"], "workers", "1.5", "workers must be a whole number, got '1.5'"),
    (["ness", "--n", "2", "--u", "1"], "tol", "abc", "tol must be a number, got 'abc'"),
    # Python's digit-group underscores: 1_2 would run a 12-site chain
    (["observe", "--u", "1"], "n", "1_2", "n must be a whole number, got '1_2'"),
    (["ness", "--n", "2", "--u", "1"], "tol", "1_0e-10", "tol must be a number, got '1_0e-10'"),
    (["sweep", "--n", "2"], "u", "1_0", "u must be a number, got '1_0'"),
    # refused before observe writes its CSV files
    (["observe", "--n", "3", "--u", "1"], "scaling", "abc",
     "scaling must be a whole number, got 'abc'"),
])
def test_flag_and_config_values_parse_one_way(tmp_path, capsys, argv, key, text, message):
    # a flag's text and the same text in a config file meet one parser: the
    # same exit 2, the same message, and no JSON; a config number is shown
    # as the number
    from hubbard_lax import cli

    out = tmp_path / "o"

    def refusal(*extra, config=None):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            extra = (*extra, "--config", str(cfg))
        assert cli.main([*argv, *extra, "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    flag = refusal(f"--{key}", text)
    assert flag == f"error: {message}\n"
    assert refusal(config={key: text}) == flag
    if text != "abc" and "_" not in text:
        assert refusal(config={key: float(text)}) == flag.replace(f"'{text}'", text)


@pytest.mark.parametrize("argv", [
    ["verify", "--K", "3", "--samples", "1"],
    ["ness", "--n", "2", "--u", "1"],
    ["oracle", "--n", "2", "--u", "1"],
    ["observe", "--n", "3", "--u", "1"],
    ["commute", "--n", "2", "--pairs", "1"],
    ["sweep", "--n", "2"],
])
def test_every_command_writes_its_document_one_way(tmp_path, capsys, argv):
    from hubbard_lax import cli

    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    text = (tmp_path / f"{argv[0]}.json").read_text()
    assert capsys.readouterr().out == text
    doc = json.loads(text)
    assert doc["schema_version"] == 3
    assert doc["command"] == argv[0]


def test_negative_eigenvalue_fails_ness(tmp_path, capsys, monkeypatch):
    from hubbard_lax import cli

    def negative(cfg):
        res = build_ness(cfg)
        res.diagnostics["positivity_min_eig"] = -2e-10
        return res

    build_ness = cli.build_ness
    monkeypatch.setattr(cli, "build_ness", negative)
    assert cli.main(["ness", "--n", "2", "--u", "1", "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_observe_and_sweep_never_build_the_dense_state(tmp_path, capsys, monkeypatch):
    # every chain length is read from the environment engine, the short ones too
    from hubbard_lax import cli

    def refuse(*args, **kwargs):
        raise AssertionError("build_ness called")

    for name, module in list(sys.modules.items()):
        if name.startswith("hubbard_lax") and hasattr(module, "build_ness"):
            monkeypatch.setattr(module, "build_ness", refuse)
    assert cli.main(["observe", "--n", "5", "--u", "2", "--out", str(tmp_path / "o")]) == 0
    assert cli.main(["sweep", "--n", "2,3", "--u", "1", "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()


def test_observe_and_sweep_never_build_the_dense_family(tmp_path, capsys, monkeypatch):
    # the environment engine builds the transfer components alone, from the
    # level band (lax_builder.build_L)
    from hubbard_lax import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a dense family was built")

    for name, module in list(sys.modules.items()):
        for attr in ("assemble_family", "ness_family"):
            if name.startswith("hubbard_lax") and hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    assert cli.main(["sweep", "--n", "2,3", "--u", "1", "--out", str(tmp_path / "s")]) == 0
    assert cli.main(["observe", "--n", "5", "--u", "2", "--scaling", "4,5,6",
                     "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_sweep_pool_is_bounded(tmp_path, monkeypatch, capsys):
    # a fork pool starts every worker at once, so its size must be bounded by
    # the rows and the cores; the fake pool records it and starts nothing
    from hubbard_lax import cli

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    args = ["sweep", "--n", "2", "--u", "1,2,3", "--out", str(tmp_path)]
    assert cli.main(args + ["--workers", "2"]) == 0
    # checked before any large value, so that no real pool of that size starts
    assert sizes == [2]
    assert cli.main(args + ["--workers", "100000"]) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli.main(args + ["--workers", "100000"]) == 0
    assert sizes == [2, 3, 2]
    capsys.readouterr()
    for bad in ("0", "-3"):
        assert cli.main(args + ["--workers", bad]) == 2
        assert f"workers must be at least 1, got {bad}" in capsys.readouterr().err
    assert sizes == [2, 3, 2]


def test_observe_csv(tmp_path):
    r = run("observe", "--n", "3", "--gammaL", "1", "--gammaR", "0.5", "--u", "1",
            "--gnuplot", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "densities.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["site", "sz", "tz"]
    assert len(rows) == 4
    with open(tmp_path / "currents.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bond", "J_sigma", "J_tau"]
    assert len(rows) == 3
    assert (tmp_path / "profile.dat").exists()


def test_commute_reports_seed(tmp_path):
    r = run("commute", "--n", "2", "--pairs", "2", "--seed", "5",
            "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["seed"] == 5
    assert doc["tier"] == "conjecture"


@pytest.mark.parametrize("argv", [["verify", "--K", "3"], ["commute", "--n", "2"]])
@pytest.mark.parametrize("in_config", [False, True])
def test_negative_seed_is_refused_before_any_family(tmp_path, capsys, monkeypatch,
                                                    argv, in_config):
    # the seeded stream splits the seed into 32-bit words, which a negative
    # seed never runs out of: it is refused at exit 2, before any work
    from hubbard_lax import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a family was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("hubbard_lax") and hasattr(module, "assemble_family"):
            monkeypatch.setattr(module, "assemble_family", refuse)
    extra = ["--seed", "-1"]
    if in_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        extra = ["--config", str(cfg)]
    assert cli.main([*argv, *extra, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative whole number, got -1\n"
    assert not (tmp_path / "o").exists()


def test_sweep_deterministic_ordering(tmp_path):
    args = ("sweep", "--n", "2", "--gammaL", "0.5,1.5", "--gammaR", "1",
            "--u", "1")
    r1 = run(*args, "--out", str(tmp_path / "a"))
    assert r1.returncode == 0, r1.stderr
    doc = json.loads(r1.stdout)
    keys = [c["key"] for c in doc["configurations"]]
    assert keys == sorted(keys)
    r2 = run(*args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "sweep.json").read_bytes() == \
           (tmp_path / "b" / "sweep.json").read_bytes()


def test_sweep_parallel_matches_serial(tmp_path):
    args = ("sweep", "--n", "2,3,6", "--u", "1,2")
    r1 = run(*args, "--workers", "1", "--out", str(tmp_path / "a"))
    r2 = run(*args, "--workers", "2", "--out", str(tmp_path / "b"))
    assert r1.returncode == r2.returncode == 0, r1.stderr + r2.stderr
    assert (tmp_path / "a" / "sweep.json").read_bytes() == \
           (tmp_path / "b" / "sweep.json").read_bytes()


def test_sweep_refuses_fractional_chain_length(tmp_path):
    r = run("sweep", "--n", "2.9", "--u", "1", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "whole number, got '2.9'" in r.stderr


def test_sweep_matrix_free_rows(tmp_path):
    # one route at every length: short and long rows carry the same keys
    r = run("sweep", "--n", "3,7", "--u", "2", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    short, long = doc["configurations"]
    assert [short["driving"]["n_sites"], long["driving"]["n_sites"]] == [3, 7]
    assert short.keys() == long.keys()
    assert "diagnostics" not in short


def test_unwritable_output(tmp_path):
    r = run("commute", "--n", "2", "--pairs", "1", "--out", "/proc/definitely/not")
    assert r.returncode == 2
    assert "error" in r.stderr
