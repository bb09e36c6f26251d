"""The plans that the transfer components and the pair transfer are built
from, once per cutoff (lax_builder.transfer_plan, ness_engine._pair_plan),
against the per-point route that found every index again at each point
(tests/conftest.py), and the caches that hold them."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import CANONICAL_DRIVINGS, PerPointPairSide, per_point_band, per_point_entries
from hubbard_lax import cli, lax_builder, ness_engine
from hubbard_lax.algebra_verifier import SeededStream, annulus_points
from hubbard_lax.aux_space import build_aux_space
from hubbard_lax.lax_builder import LaxParams, build_L, transfer_entries, transfer_plan
from hubbard_lax.linalg import SITE_CHARGES
from hubbard_lax.ness_engine import (DrivingConfig, _doubled_layout, _pair_plan, _PairSide,
                                     ness_lax_params)
from hubbard_lax.observables import current_series, profile_and_currents_mpo

# the benchmark's drivings (CANONICAL_DRIVINGS) and the ROADMAP's, each also
# at u = 0; (1, 1, 0.5, -0.5) maps to lambda = 0
DRIVINGS = [*CANONICAL_DRIVINGS, (1.5, 0.7, 0.3, -0.4, 2.0), (1.0, 1.0, 0.5, -0.5, 2.0),
            (2.0, 0.5, 0.0, 0.0, 2.0)]


def _points():
    pts = [ness_lax_params(DrivingConfig(*d[:4], u, 2)) for d in DRIVINGS for u in (d[4], 0.0)]
    rng = SeededStream(7)
    for u in (1.0, -0.5, 0.0):
        lam, om = annulus_points(rng, 2)
        pts += [LaxParams(lam, om, u), LaxParams(0.0, om, u)]
    return pts


POINTS = _points()


def _dense(rows, cols, vals, dim):
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, cols] = vals
    return out


def _same(got, want):
    """got holds want's nonzeros bit for bit, and zeros elsewhere."""
    nz = want != 0
    return got[nz].tobytes() == want[nz].tobytes() and not got[~nz].any()


def test_points_cover_the_special_cases():
    assert any(p.lam == 0 for p in POINTS) and any(p.u == 0 for p in POINTS)
    assert ness_lax_params(DrivingConfig(1.0, 1.0, 0.5, -0.5, 2.0, 2)).lam == 0


@pytest.mark.parametrize("K", range(1, 9))
def test_plan_matches_per_point_route(K):
    """At every point, the band, the transfer entries and both sides'
    pair-transfer coefficients of the plan hold the per-point route's
    nonzeros bit for bit (the coefficients up to the sign of a zero), and
    zeros only where that route has none (an entry that vanishes at this
    point); the pair transfer applies bit for bit."""
    space = transfer_plan(K).space
    layout, (right, left) = _doubled_layout(space), _pair_plan(K)
    rng = np.random.default_rng(K)
    X = rng.normal(size=6 * K + 1) + 1j * rng.normal(size=6 * K + 1)
    ws = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    for params in POINTS:
        band, ref = build_L(space, params), per_point_band(space, params)
        assert list(band) == list(ref)
        for st in band:
            assert _same(_dense(*band[st], space.dim), _dense(*ref[st], space.dim)), (params, st)
        p, q, a, b, val = transfer_entries(band, space.dim)
        rp, rq, ra, rb, rval = per_point_entries(ref, space.dim)
        A, R = (np.zeros((4, 4, space.dim, space.dim), dtype=complex) for _ in range(2))
        A[p, q, a, b], R[rp, rq, ra, rb] = val, rval
        assert _same(A, R), params
        for terms, ends in ((right, (ra, rb)), (left, (rb, ra))):
            side, want = _PairSide(terms, val), PerPointPairSide(layout, rp, rq, *ends, rval)
            key = terms.src * 16 * terms.size + terms.slot[::2] // 2
            at = np.searchsorted(key, want.key)
            assert np.array_equal(key[at], want.key), params
            held = np.zeros(len(key), dtype=bool)
            held[at] = True
            # + 0 turns -0.0 into 0.0, as the per-point route's merge did
            assert (side.coef[at] + 0).tobytes() == want.coef.tobytes()
            assert not side.coef[~held].any()
            assert side.apply(X, ws).tobytes() == want.apply(X, ws).tobytes(), params


@pytest.mark.parametrize("K", [*range(1, 12), 101])
def test_pair_terms_never_merge(K):
    # the per-point route merged the terms that share a key; there are none,
    # on either side, so the plan's coefficients are one gather-multiply
    space = transfer_plan(K).space
    p, q, a, b, val = per_point_entries(per_point_band(space, POINTS[0]), space.dim)
    layout = _doubled_layout(space)
    for terms, ends in zip(_pair_plan(K), ((a, b), (b, a))):
        ref = PerPointPairSide(layout, p, q, *ends, val)
        assert ref.terms == len(ref.key) == len(terms.i)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_an_entry_off_the_level_band_breaks_the_charge(K):
    # of every (p, q, a, b), each that moves the level by more than one also
    # breaks charge conservation, so the plan's charge check refuses it
    space = build_aux_space(K)
    ch, lv = space.charges(), space.levels()
    p, q, a, b = np.indices((4, 4, space.dim, space.dim)).reshape(4, -1)
    far = np.abs(lv[a] - lv[b]) > 1
    breaks = (SITE_CHARGES[p] + ch[a] != SITE_CHARGES[q] + ch[b]).any(axis=1)
    assert far.any() == (K > 1) and breaks[far].all()


def test_plan_is_read_only():
    plan = transfer_plan(3)
    rows, cols, _ = build_L(plan.space, POINTS[0])["+", "-"]
    for x in (rows, cols, plan.charges, plan.x_cols, plan.s_const, *plan.gather, *plan.entries):
        assert not x.flags.writeable


def _clear_plans():
    for cached in (transfer_plan, _pair_plan):
        cached.cache_clear()


SWEEP = ["sweep", "--n", "2,3,4", "--u", "1,2", "--gammaL", "1,1.5", "--muL", "0,0.3",
         "--muR", "0,-0.4"]


def test_sweep_builds_one_plan_per_cutoff(tmp_path, capsys):
    # 48 points at the cutoffs 2 (n = 2, 3) and 3 (n = 4)
    _clear_plans()
    assert cli.main([*SWEEP, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(json.loads((tmp_path / "sweep.json").read_text())["configurations"]) == 48
    assert transfer_plan.cache_info().misses == 2
    info = _pair_plan.cache_info()
    assert (info.misses, info.hits) == (2, 46)


def test_commute_builds_one_plan(tmp_path, capsys):
    # 20 pairs, 40 points, at the cutoff of the longest chain
    _clear_plans()
    assert cli.main(["commute", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert transfer_plan.cache_info().misses == 1


def test_a_plan_of_another_cutoff_is_dropped_first(monkeypatch):
    # the plan held is dropped before the next is built, so two are never held
    held = []
    build = lax_builder.build_aux_space
    monkeypatch.setattr(lax_builder, "build_aux_space", lambda K: held.append(
        transfer_plan.cache_info().currsize) or build(K))
    _clear_plans()
    for K in (2, 3, 3, 2):
        transfer_plan(K)
    assert held == [0, 0, 0]
    assert transfer_plan.cache_info().currsize == 1


@pytest.mark.parametrize("argv", [SWEEP, ["commute", "--seed", "3"]], ids=["sweep", "commute"])
def test_cold_warm_and_fresh_runs_write_the_same_document(argv, tmp_path, capsys):
    _clear_plans()
    texts = []
    for run in ("cold", "warm"):
        assert cli.main([*argv, "--out", str(tmp_path / run)]) == 0
        texts.append((tmp_path / run / f"{argv[0]}.json").read_bytes())
    capsys.readouterr()
    subprocess.run([sys.executable, "-m", "hubbard_lax.cli", *argv, "--out",
                    str(tmp_path / "fresh")], check=True, capture_output=True)
    texts.append((tmp_path / "fresh" / f"{argv[0]}.json").read_bytes())
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("n", [24, 200])
def test_environment_guard_bounds_a_cold_plan(n, monkeypatch):
    # the store estimate covers the plans as well, when this route builds them
    estimates = []
    guard = ness_engine.guard
    monkeypatch.setattr(ness_engine, "guard", lambda nbytes, what: estimates.append(nbytes)
                        or guard(nbytes, what))
    base = DrivingConfig(*CANONICAL_DRIVINGS[0], n)
    for route in (lambda: profile_and_currents_mpo(base),
                  lambda: current_series(base, range(4, n + 1, 4))):
        estimates.clear()
        _clear_plans()
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(estimates) == 1 and peak <= estimates[0]
