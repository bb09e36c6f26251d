import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (
    CANONICAL_DRIVINGS,
    CsrPairSide,
    DenseEnvironments,
    canonical_configs,
    current_operator,
    expectation,
    kron_hamiltonian,
    kron_site_operator,
    seed_plan_entry,
    spin_flip_G,
)
from hubbard_lax import ness_engine
from hubbard_lax.aux_space import build_aux_space
from hubbard_lax.linalg import local4, phys_transfer_tensor
from hubbard_lax.ness_engine import (
    DrivingConfig,
    _doubled_layout,
    _Environments,
    build_ness,
    k_exact,
    local_expectations,
    mpo_expectation,
    ness_family,
)
from hubbard_lax.observables import (
    _CURRENT_TERMS,
    _MINUS_LOC,
    _PLUS_LOC,
    _SZ_LOC,
    _current,
    _current_terms,
    _profile,
    cosine_profile_fit,
    current_series,
    current_uniformity,
    profile_and_currents,
    profile_and_currents_mpo,
    scaling_fit,
)

TOL = 1e-12
UNIFORMITY_TOL = 1e-9


def test_expectation_basics():
    rho = np.eye(16) / 16.0
    assert abs(expectation(rho, np.eye(16)) - 1.0) < TOL
    sz1 = kron_site_operator(2, 1, 0, "z").toarray()
    assert abs(expectation(rho, sz1)) < TOL


def test_expectation_dimension_check():
    with pytest.raises(ValueError):
        expectation(np.eye(4) / 4, np.eye(16))


def test_continuity_identity():
    """i[H, sz_j] == J_{j-1,j} - J_{j,j+1} for a bulk site, with boundary
    fields off so only hopping moves magnetization."""
    n = 4
    H = kron_hamiltonian(n, u=1.3).toarray()
    j = 2
    sz = kron_site_operator(n, j, 0, "z").toarray()
    lhs = 1j * (H @ sz - sz @ H)
    rhs = current_operator(n, j - 1, 0).toarray() - current_operator(n, j, 0).toarray()
    assert np.linalg.norm(lhs - rhs) < TOL


def test_current_operator_hermitian():
    J = current_operator(3, 1, 0).toarray()
    assert np.linalg.norm(J - J.conj().T) < TOL


def test_current_species_swap():
    G = spin_flip_G(3).toarray()
    Js = current_operator(3, 2, 0).toarray()
    Jt = current_operator(3, 2, 1).toarray()
    assert np.linalg.norm(G @ Js @ G - Jt) < TOL


def test_bond_range_check():
    with pytest.raises(ValueError):
        current_operator(3, 3, 0)


def test_uniform_currents():
    for n in (2, 3, 4, 5):
        cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n)
        obs = profile_and_currents(build_ness(cfg))
        assert current_uniformity(obs) <= UNIFORMITY_TOL


def test_species_symmetric_currents():
    cfg = DrivingConfig(1.3, 0.6, 0.2, -0.4, 1.0, 3)
    obs = profile_and_currents(build_ness(cfg))
    assert np.allclose(obs.currents_sigma, obs.currents_tau, atol=1e-10)


def test_antisymmetric_profile():
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 4)
    obs = profile_and_currents(build_ness(cfg))
    d = np.array(obs.densities_sigma)
    assert np.max(np.abs(d + d[::-1])) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("driving", CANONICAL_DRIVINGS)
def test_dense_reader_matches_cross_check(driving, n):
    """Every density and current read off the reduced density matrices
    against tr(rho O) with the full 4^n x 4^n operator."""
    ness = build_ness(DrivingConfig(*driving, n))
    obs = profile_and_currents(ness)
    for sp, dens, curr in ((0, obs.densities_sigma, obs.currents_sigma),
                           (1, obs.densities_tau, obs.currents_tau)):
        want = [expectation(ness.rho, kron_site_operator(n, j, sp, "z")).real
                for j in range(1, n + 1)]
        assert _rel_dev(dens, want) <= TOL
        want = [expectation(ness.rho, current_operator(n, j, sp)).real
                for j in range(1, n)]
        assert _rel_dev(curr, want) <= TOL


def test_dense_reader_checks_imaginary_parts():
    n = 3
    ness = build_ness(DrivingConfig(*CANONICAL_DRIVINGS[0], n))
    sz1 = kron_site_operator(n, 1, 0, "z").diagonal()
    blocks = [b + 1e-6j * np.diag(sz1[rows]) for rows, b in zip(ness.rows, ness.rho_blocks)]
    with pytest.raises(ValueError, match="imaginary part"):
        profile_and_currents(dataclasses.replace(ness, rho_blocks=blocks))


def test_dense_reader_refuses_seven_sites_before_forming_rho():
    # the dense 7-site rho would take 4 GiB; no state is built for the test
    ness = ness_engine.NessResult(DrivingConfig(*CANONICAL_DRIVINGS[0], 7), [], [], 0.0)
    with pytest.raises(MemoryError, match="a dense 7-site state needs about"):
        profile_and_currents(ness)


def test_engine_matches_dense():
    # the short chains that observe and sweep once read off the dense state
    for n in (2, 3, 4, 5):
        for cfg in canonical_configs(n):
            od = profile_and_currents(build_ness(cfg))
            om = profile_and_currents_mpo(cfg)
            for field in ("densities_sigma", "densities_tau", "currents_sigma", "currents_tau"):
                assert np.allclose(getattr(od, field), getattr(om, field), atol=1e-12)


def _cross_check_current(cfg, j, sp):
    pm = mpo_expectation(cfg, {j: _PLUS_LOC[sp], j + 1: _MINUS_LOC[sp]})
    mp = mpo_expectation(cfg, {j: _MINUS_LOC[sp], j + 1: _PLUS_LOC[sp]})
    return (4j * (pm - mp)).real


def _rel_dev(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("n", [6, 8, 12])
@pytest.mark.parametrize("driving", CANONICAL_DRIVINGS)
def test_environment_engine_matches_cross_check(driving, n):
    """The one-pass environment engine against the dense pair-transfer
    cross-check, over the whole profile and every current."""
    cfg = DrivingConfig(*driving, n)
    obs = profile_and_currents_mpo(cfg)
    for sp, dens, curr in ((0, obs.densities_sigma, obs.currents_sigma),
                           (1, obs.densities_tau, obs.currents_tau)):
        want = [mpo_expectation(cfg, {j: _SZ_LOC[sp]}).real for j in range(1, n + 1)]
        assert _rel_dev(dens, want) <= TOL
        want = [_cross_check_current(cfg, j, sp) for j in range(1, n)]
        assert _rel_dev(curr, want) <= TOL


@pytest.mark.parametrize("n", [6, 12, 24, 40])
@pytest.mark.parametrize("driving", CANONICAL_DRIVINGS)
def test_pair_transfer_matches_csr_cross_check(driving, n):
    """The charge-block pair transfer against the CSR cross-check, from
    both sides, on every environment of the sweep and on random values at
    every entry of equal charge, the widest input it takes. The CSR product
    spans the whole da x da output, so it also shows that F(w) X vanishes
    off the layout."""
    cfg = DrivingConfig(*driving, n)
    eng = _Environments(cfg, [])
    A = phys_transfer_tensor(ness_family(cfg).L)
    da = A.shape[2]
    a, c, _ = _doubled_layout(build_aux_space(k_exact(n)))
    sides = ((eng.right, CsrPairSide(A)), (eng.left, CsrPairSide(A.swapaxes(2, 3))))
    ws = eng.weights([local4(s, t) for s, t in ("z0", "+0", "-0", "0+", "zz", "+-")])
    rng = np.random.default_rng(n)
    full = rng.normal(size=6 * k_exact(n) + 1) + 1j * rng.normal(size=6 * k_exact(n) + 1)
    for X in [*eng.sweep(n), full]:
        dense = np.zeros((da, da), dtype=complex)
        dense[a[:len(X)], c[:len(X)]] = X
        for side, reference in sides:
            got, want = np.zeros((len(ws), da, da), dtype=complex), reference.apply(dense, ws)
            got[:, a, c] = side.apply(X, ws)
            assert np.abs(got - want).max() <= TOL * np.abs(want).max()


@pytest.mark.parametrize("driving", CANONICAL_DRIVINGS)
def test_engine_matches_dense_transfer_tensor(driving):
    """Every density and current of the engine, whose pair transfer is
    built from the nonzeros of the transfer components and whose
    environments are their charge-block values, against the dense-environment
    engine with the pair transfer read off the dense A of the dense family,
    at n = 2..40. (The CSR cross-check above checks the pair transfer
    itself against A.)"""
    for n in range(2, 41):
        cfg = DrivingConfig(*driving, n)
        got = profile_and_currents_mpo(cfg)
        ref = DenseEnvironments(cfg, phys_transfer_tensor(ness_family(cfg).L))
        want = _profile(n, ref.expectations(list(ref.sweep(n)), _SZ_LOC, _CURRENT_TERMS))
        for field in ("densities_sigma", "densities_tau", "currents_sigma", "currents_tau"):
            assert _rel_dev(getattr(got, field), getattr(want, field)) <= TOL, (n, field)


@pytest.mark.parametrize("driving", CANONICAL_DRIVINGS)
def test_engine_matches_dense_environments_on_long_chains(driving):
    """The charge-block engine against the dense-environment engine, both
    built from build_L: every density and current at n = 100, and the
    first-bond current of a series to n = 200 read from one sweep."""
    cfg = DrivingConfig(*driving, 100)
    got = profile_and_currents_mpo(cfg)
    ref = DenseEnvironments(cfg)
    want = _profile(100, ref.expectations(list(ref.sweep(100)), _SZ_LOC, _CURRENT_TERMS))
    for field in ("densities_sigma", "densities_tau", "currents_sigma", "currents_tau"):
        assert _rel_dev(getattr(got, field), getattr(want, field)) <= TOL, field
    ns = list(range(20, 201, 20))
    series = current_series(DrivingConfig(*driving, 4), ns)
    bonds = DenseEnvironments(DrivingConfig(*driving, 200)).first_bonds(ns, _current_terms(0))
    for (n, J), bond in zip(series, bonds):
        want = _current(bond, 0, "J")
        assert abs(J - want) <= TOL * abs(want), n


@pytest.mark.parametrize("K", range(1, 14))
def test_doubled_layout(K):
    """The entries the engine holds: every (a, c) whose charges differ by at
    most one per species, once; first the 6K + 1 of equal charge, of which
    the 1 + 6k at levels <= k come first, (root, root) first of all."""
    space = build_aux_space(K)
    ch, lev = space.charges(), space.levels()
    a, c, pos = _doubled_layout(space)
    d = ch[a] - ch[c]
    assert len(a) == 36 * K - 11 == (np.abs(ch[:, None] - ch[None]) <= 1).all(axis=2).sum()
    assert (np.abs(d) <= 1).all() and len(set(zip(a, c))) == len(a)
    assert not d[:6 * K + 1].any() and d[6 * K + 1:].any(axis=1).all()
    assert a[0] == c[0] == 0
    assert [np.count_nonzero(lev[a[:6 * K + 1]] <= k) for k in range(K + 1)] == \
        [1 + 6 * k for k in range(K + 1)]
    assert (np.diff(lev[a[:6 * K + 1]]) >= 0).all()
    assert (pos[a, c - a + 8] == np.arange(len(a))).all()


def test_environments_hold_only_the_levels_their_cut_reaches(monkeypatch):
    """Cut k of an n-site chain reaches levels <= min(k, n - k) from either
    end, and each environment keeps the 1 + 6 l entries of equal charge at
    levels <= l for that l alone. Rescaled with the levels past it, whose
    weight grows along the chain, an uncut env[k] of the first canonical
    driving reads about 1e-79 at the levels <= 1 that site 1 meets at
    k = 199, and 0 past k = 750, which leaves 0/0 for every value there."""
    n = 30
    seen = []
    apply = ness_engine._PairSide.apply
    monkeypatch.setattr(ness_engine._PairSide, "apply",
                        lambda side, X, ws: seen.append((side, len(X))) or apply(side, X, ws))
    eng = _Environments(DrivingConfig(*CANONICAL_DRIVINGS[0], n), range(n))
    env = list(eng.sweep(n))
    assert [len(X) for X in env] == [1 + 6 * min(k, n - k) for k in range(n)]
    seen.clear()
    list(eng.expectations(env, _SZ_LOC, _CURRENT_TERMS))
    assert [m for side, m in seen if side is eng.left] == [1 + 6 * min(j, n - j) for j in range(n)]
    assert [m for side, m in seen if side is eng.right] == [len(env[n - j - 1]) for j in range(1, n)]


@pytest.mark.parametrize("entry, message", [
    # from the root to a vertex of level 2, which moves the level by two
    ((0, 0, 0, 8), "A\\[0, 0, 0, 8\\] breaks charge conservation"),
    # from the root to 1/2+ at an operator that keeps the physical charge
    ((0, 0, 0, 1), "A\\[0, 0, 0, 1\\] breaks charge conservation"),
])
def test_transfer_entry_off_the_band_refused_before_the_sweep(monkeypatch, entry, message):
    # both break charge conservation, which the transfer plan refuses by
    # name when it is built, before either route builds a pair transfer
    def built(*args):
        raise AssertionError("a pair transfer was built")

    seed_plan_entry(monkeypatch, entry)
    monkeypatch.setattr(ness_engine, "_PairSide", built)
    for route in (lambda cfg: list(local_expectations(cfg, _SZ_LOC, {})),
                  lambda cfg: current_series(cfg, [4, 8, 6])):
        with pytest.raises(ValueError, match=message):
            route(DrivingConfig(*CANONICAL_DRIVINGS[0], 8))


@pytest.mark.parametrize("n", [24, 60, 200])
def test_environment_guard_bounds_the_peak(n, monkeypatch):
    # the estimate each route is guarded on bounds what it allocates:
    # environments, terms of the pair transfer, intermediates and transfer
    # tables, for a whole profile and for a series read from one sweep
    estimates = []
    guard = ness_engine.guard
    monkeypatch.setattr(ness_engine, "guard", lambda nbytes, what: estimates.append(nbytes)
                        or guard(nbytes, what))
    base = DrivingConfig(*CANONICAL_DRIVINGS[0], n)
    for route in (lambda: profile_and_currents_mpo(base),
                  lambda: current_series(base, range(4, n + 1, 4))):
        estimates.clear()
        tracemalloc.start()
        try:
            route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(estimates) == 1 and peak <= estimates[0]


def _per_length_current(driving, n):
    """The first-bond current of an n-site chain from its own family and
    sweep: the route current_series took one length at a time."""
    _, bond = next(local_expectations(DrivingConfig(*driving, n), {}, _current_terms(0)))
    return _current(bond, 0, "J")


@pytest.mark.parametrize("driving", CANONICAL_DRIVINGS)
def test_current_series_matches_per_length_route(driving):
    ns = list(range(2, 41))
    series = current_series(DrivingConfig(*driving, 4), ns)
    assert [n for n, _ in series] == ns
    for n, J in series:
        want = _per_length_current(driving, n)
        assert abs(J - want) <= TOL * abs(want)


def _record_transfer_builds(monkeypatch):
    """The cutoffs of the transfer components the engine builds from here on."""
    calls = []
    build_L = ness_engine.build_L
    monkeypatch.setattr(ness_engine, "build_L", lambda space, params:
                        calls.append(space.cutoff_K) or build_L(space, params))
    return calls


def test_current_series_keeps_input_order(monkeypatch):
    calls = _record_transfer_builds(monkeypatch)
    driving = CANONICAL_DRIVINGS[0]
    series = current_series(DrivingConfig(*driving, 4), [12, 4, 12, 8, 2])
    assert calls == [k_exact(12)]  # one build, at the cutoff of the longest chain
    assert [n for n, _ in series] == [12, 4, 12, 8, 2]
    assert series[0] == series[2]
    for n, J in series:
        want = _per_length_current(driving, n)
        assert abs(J - want) <= TOL * abs(want)


def test_current_series_sweeps_again_where_levels_underflow(monkeypatch):
    # at this driving the levels <= 2 that n = 190, 250 and 300 read in a
    # 400-site sweep underflow (J read nan there), so they are read from a
    # second sweep, of 300 sites; every length matches its own sweep
    calls = _record_transfer_builds(monkeypatch)
    driving = (0.1, 5.0, 2.0, -2.0, 4.0)
    ns = [190, 100, 400, 250, 300]
    series = current_series(DrivingConfig(*driving, 4), ns)
    assert calls == [k_exact(400), k_exact(300)]
    assert [n for n, _ in series] == ns
    for n, J in series:
        want = _per_length_current(driving, n)
        assert abs(J - want) <= TOL * abs(want), n


@pytest.mark.parametrize("driving", CANONICAL_DRIVINGS)
def test_current_series_matches_cross_check(driving):
    base = DrivingConfig(*driving, 4)
    for n, J in current_series(base, [16, 20]):
        want = _cross_check_current(DrivingConfig(*driving, n), 1, 0)
        assert abs(J - want) <= TOL * abs(want)


def test_environments_rescaled_on_long_chains(monkeypatch):
    """At this driving the unscaled <00|F_id^n|00> = tr(Omega Omega^dag M)
    grows by about e^11 per site near n = 70: it is e^705 at n = 70 and
    e^822 at n = 80, past the float64 limit of e^709.8 from n = 71 on. Both
    lengths are read from one sweep, of the 80-site chain."""
    calls = _record_transfer_builds(monkeypatch)
    base = DrivingConfig(50.0, 1.0, 0.0, 0.0, 1.0, 80)
    series = current_series(base, [70, 80])
    assert calls == [k_exact(80)]
    assert [n for n, _ in series] == [70, 80]
    assert all(np.isfinite(J) and J > 0 for _, J in series)
    obs = profile_and_currents_mpo(base)
    J80 = series[1][1]
    assert abs(obs.currents_sigma[0] - J80) <= TOL * J80
    assert current_uniformity(obs) <= UNIFORMITY_TOL


def test_environment_store_guarded(monkeypatch):
    # refused from the longest chain length alone, before any transfer is built
    def no_build(space, params):
        raise AssertionError("transfer built before the size check")

    monkeypatch.setattr(ness_engine, "build_L", no_build)
    with pytest.raises(MemoryError, match="10000-site environment store"):
        profile_and_currents_mpo(DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 10000))
    with pytest.raises(MemoryError, match="40000-site environment store"):
        current_series(DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 4), [8, 40000, 12])


def test_current_series_refuses_short_chains_first(monkeypatch):
    monkeypatch.setattr(ness_engine, "build_L", None)
    with pytest.raises(ValueError, match="n_sites >= 2"):
        current_series(DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 4), [4, 1, 8])


def test_scaling_fit_exact_power_laws():
    series2 = [(n, 3.7 * n**-2.0) for n in (4, 5, 6, 7, 8)]
    f = scaling_fit(series2)
    assert abs(f["exponent"] + 2.0) < 1e-10
    assert f["r_squared"] > 1.0 - 1e-12
    series1 = [(n, 0.9 * n**-1.0) for n in (4, 5, 6, 7, 8)]
    assert abs(scaling_fit(series1)["exponent"] + 1.0) < 1e-10


def test_scaling_fit_rejects_sign_change():
    with pytest.raises(ValueError, match="sign"):
        scaling_fit([(4, 1.0), (5, -0.5), (6, 0.2)])


def test_scaling_fit_needs_three_points():
    with pytest.raises(ValueError):
        scaling_fit([(4, 1.0), (5, 0.5)])


def test_hubbard_series_decays():
    """u=1 series over n=4..8: strictly decaying current (the measured
    exponent here is about -1.18; the in-window behaviour is checked at
    stronger coupling in the acceptance run)."""
    base = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 4)
    series = current_series(base, [4, 5, 6, 7, 8])
    vals = [J for _, J in series]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_cosine_profile_shape():
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 2.0, 6)
    obs = profile_and_currents_mpo(cfg)
    fit = cosine_profile_fit(obs.densities_sigma)
    assert fit["r_squared"] > 0.9
    assert abs(fit["offset"]) < 1e-9
