import dataclasses

import numpy as np
import pytest

from conftest import (
    CANONICAL_DRIVINGS,
    CsrPairSide,
    canonical_configs,
    current_operator,
    expectation,
    kron_hamiltonian,
    kron_site_operator,
    spin_flip_G,
)
from hubbard_lax import ness_engine
from hubbard_lax.linalg import local4, phys_transfer_tensor
from hubbard_lax.ness_engine import (
    DrivingConfig,
    _Environments,
    build_ness,
    local_expectations,
    mpo_expectation,
    ness_family,
)
from hubbard_lax.observables import (
    _MINUS_LOC,
    _PLUS_LOC,
    _SZ_LOC,
    _current,
    _current_terms,
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
    """The nonzero-driven pair transfer against the CSR cross-check, from
    both sides, on every environment of the sweep and on a dense X."""
    cfg = DrivingConfig(*driving, n)
    eng = _Environments(cfg)
    A = phys_transfer_tensor(ness_family(cfg).L)
    sides = ((eng.right, CsrPairSide(A)), (eng.left, CsrPairSide(A.swapaxes(2, 3))))
    ws = eng.weights([local4(s, t) for s, t in ("z0", "+0", "-0", "0+", "zz", "+-")])
    rng = np.random.default_rng(n)
    dense = rng.normal(size=eng.root.shape) + 1j * rng.normal(size=eng.root.shape)
    for X in [*eng.sweep(n), dense]:
        for side, reference in sides:
            got, want = side.apply(X, ws), reference.apply(X, ws)
            assert np.abs(got - want).max() <= TOL * np.abs(want).max()


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


def _record_families(monkeypatch):
    """The chain lengths of the families the engine builds from here on."""
    calls = []
    monkeypatch.setattr(ness_engine, "ness_family",
                        lambda cfg: calls.append(cfg.n_sites) or ness_family(cfg))
    return calls


def test_current_series_keeps_input_order(monkeypatch):
    calls = _record_families(monkeypatch)
    driving = CANONICAL_DRIVINGS[0]
    series = current_series(DrivingConfig(*driving, 4), [12, 4, 12, 8, 2])
    assert calls == [12]  # one family, at the longest chain
    assert [n for n, _ in series] == [12, 4, 12, 8, 2]
    assert series[0] == series[2]
    for n, J in series:
        want = _per_length_current(driving, n)
        assert abs(J - want) <= TOL * abs(want)


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
    calls = _record_families(monkeypatch)
    base = DrivingConfig(50.0, 1.0, 0.0, 0.0, 1.0, 80)
    series = current_series(base, [70, 80])
    assert calls == [80]
    assert [n for n, _ in series] == [70, 80]
    assert all(np.isfinite(J) and J > 0 for _, J in series)
    obs = profile_and_currents_mpo(base)
    J80 = series[1][1]
    assert abs(obs.currents_sigma[0] - J80) <= TOL * J80
    assert current_uniformity(obs) <= UNIFORMITY_TOL


def test_environment_store_guarded(monkeypatch):
    # refused from the longest chain length alone, before any family is built
    def no_family(cfg):
        raise AssertionError("family built before the size check")

    monkeypatch.setattr(ness_engine, "ness_family", no_family)
    with pytest.raises(MemoryError, match="400-site environment store"):
        current_series(DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 4), [8, 400, 12])


def test_current_series_refuses_short_chains_first(monkeypatch):
    monkeypatch.setattr(ness_engine, "ness_family", None)
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
