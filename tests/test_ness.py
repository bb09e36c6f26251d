import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    canonical_configs,
    contract_omega_factored,
    dense_reference_rho,
    doubled_tensors,
    global_telescoping,
    off_root_ltilde_defect,
    omega_apply,
    seed_plan_entry,
    spin_flip_G,
    telescoping_terms,
    total_magnetization,
)
from hubbard_lax import lax_builder, linalg, ness_engine
from hubbard_lax.aux_space import AuxVertex, build_aux_space
from hubbard_lax.lax_builder import assemble_family
from hubbard_lax.linalg import chain, local4
from hubbard_lax.ness_engine import (
    DrivingConfig,
    _yy,
    build_double_lax,
    build_ness,
    check_boundary_conditions,
    check_telescoping,
    contract_omega,
    double_contract,
    dump_rho,
    k_exact,
    load_rho,
    m_diag,
    map_driving_to_params,
    ness_family,
    ness_lax_params,
    require_state,
    stationarity_certificate,
)

REL_TOL = 1e-12
SANITY_HERM = 1e-10
SANITY_TRACE = 1e-12
SANITY_PSD = -1e-10


# ---------------------------------------------------------------------------
# parameter map

def test_map_symmetric_rates():
    lam, om, eta = map_driving_to_params(DrivingConfig(1.4, 1.4, 0.0, 0.0, 1.0, 2))
    assert abs(lam) < 1e-15
    assert abs(om - 0.7j) < 1e-15
    assert eta == 0.0


def test_map_rate_bias():
    lam, om, eta = map_driving_to_params(DrivingConfig(2.0, 1.0, 0.0, 0.0, 1.0, 2))
    assert abs(lam - 1.0 / 3.0) < 1e-15
    assert abs(om - 0.75j) < 1e-15
    assert abs(eta - 0.5 * np.log(2.0)) < 1e-15


def test_map_potential_bias():
    g, mu = 1.3, 0.7
    lam, om, _ = map_driving_to_params(DrivingConfig(g, g, mu, mu, 1.0, 2))
    assert abs(lam - (-1j * mu / g)) < 1e-15
    assert abs(om - 0.5j * g) < 1e-15


def test_k_exact():
    assert [k_exact(n) for n in range(1, 9)] == [1, 2, 2, 3, 3, 4, 4, 5]


def test_sector_bound_is_a_tight_lower_bound(monkeypatch):
    # require_state refuses first on a cheap bound of the C(2n, n)^2 sector
    # entries, then on the exact count: the bound must never pass the count,
    # or a chain that fits would be refused
    sizes = []
    monkeypatch.setattr(ness_engine, "guard", lambda nbytes, what: sizes.append(nbytes))
    for n in range(1, 400):
        sizes.clear()
        require_state(n)
        bound, exact = sizes
        assert bound <= exact == 16 * math.comb(2 * n, n) ** 2
        assert n < 30 or 100 * bound >= 99 * exact


def test_zero_rate_rejected():
    with pytest.raises(ValueError, match="positive"):
        DrivingConfig(0.0, 1.0, 0.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError, match="n_sites >= 2"):
        DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 1)


# ---------------------------------------------------------------------------
# transfer operator

def test_contraction_routes_agree():
    cfg = DrivingConfig(1.2, 0.8, 0.1, -0.3, 1.0, 3)
    fam = ness_family(cfg)
    o1 = contract_omega(fam, 3)
    o2 = contract_omega_factored(fam, 3)
    assert np.linalg.norm(o1 - o2) < REL_TOL * np.linalg.norm(o1)


def test_omega_commutes_with_magnetizations():
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 3)
    om = contract_omega(ness_family(cfg), 3)
    for species in (0, 1):
        Mz = total_magnetization(3, species).toarray()
        assert np.linalg.norm(om @ Mz - Mz @ om) < 1e-10 * np.linalg.norm(om)


def test_truncation_exactness_small_n():
    cfg0 = DrivingConfig(1.1, 0.6, 0.2, -0.5, 1.5, 2)
    for n in (2, 3, 4):
        cfg = DrivingConfig(1.1, 0.6, 0.2, -0.5, 1.5, n)
        a = contract_omega(ness_family(cfg), n)
        b = contract_omega(assemble_family(k_exact(n) + 1, ness_lax_params(cfg)), n)
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)


def test_omega_apply_matches_dense():
    cfg = DrivingConfig(1.3, 0.9, 0.0, 0.4, 0.8, 3)
    fam = ness_family(cfg)
    om = contract_omega(fam, 3)
    rng = np.random.default_rng(1)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.linalg.norm(omega_apply(fam, 3, v) - om @ v) < 1e-12 * np.linalg.norm(om @ v)


# ---------------------------------------------------------------------------
# the steady state

def test_filter_trivial_at_symmetric_rates():
    cfg = DrivingConfig(1.0, 1.0, 0.3, -0.3, 1.0, 2)
    res = build_ness(cfg)
    om = contract_omega(ness_family(cfg), 2)
    rho_direct = om @ om.conj().T
    rho_direct /= np.trace(rho_direct)
    assert np.linalg.norm(res.rho - rho_direct) < 1e-13


def test_r_commutes_with_filter():
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 3)
    om = contract_omega(ness_family(cfg), 3)
    _, _, eta = map_driving_to_params(cfg)
    M = np.diag(m_diag(3, eta))
    OO = om @ om.conj().T
    assert np.linalg.norm(OO @ M - M @ OO) < 1e-10 * np.linalg.norm(OO @ M)


def test_sanity_random_driving():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        cfg = DrivingConfig(
            0.5 + rng.random(), 0.5 + rng.random(),
            rng.normal(), rng.normal(),
            float(rng.choice([0.5, 1.0, -1.0, 2.0])), n,
        )
        res = build_ness(cfg)
        assert res.diagnostics["hermiticity"] <= SANITY_HERM
        assert res.diagnostics["trace_deviation"] <= SANITY_TRACE
        assert res.diagnostics["positivity_min_eig"] >= SANITY_PSD


def test_species_symmetric_state():
    cfg = DrivingConfig(1.2, 0.7, 0.4, -0.1, 1.0, 3)
    rho = build_ness(cfg).rho
    G = spin_flip_G(3).toarray()
    assert np.linalg.norm(G @ rho @ G - rho) < 1e-12


# the states of acceptance criteria 4 (n = 2, 3, three drivings), 5 and 7
# (the asymmetric driving, n = 2..5)
CRITERIA_STATES = [*canonical_configs(2), *canonical_configs(3),
                   *(DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n) for n in (4, 5))]


@pytest.mark.parametrize("cfg", CRITERIA_STATES, ids=DrivingConfig.key)
def test_sector_blocks_match_dense_reference(cfg):
    res = build_ness(cfg)
    want = dense_reference_rho(cfg)
    assert np.linalg.norm(res.rho - want) <= 1e-14 * np.linalg.norm(want)
    # the blocks tile the basis, one sector each
    rows = np.concatenate(res.rows)
    assert np.array_equal(np.sort(rows), np.arange(4 ** cfg.n_sites))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_positivity_from_sector_singular_values(n):
    # the smallest eigenvalue of rho, from the singular values of the Omega
    # blocks, against a dense eigensolver
    for cfg in canonical_configs(n):
        want = np.linalg.eigvalsh(dense_reference_rho(cfg)).min()
        assert abs(build_ness(cfg).diagnostics["positivity_min_eig"] - want) <= 1e-13


def test_off_charge_entry_refused_before_contraction(monkeypatch):
    # an entry from 1/2+ to 1/2-, of charges (1, 0) and (0, 1), at a site
    # operator that keeps the physical charge, as an X entry between the two
    # would make; its transfer plan refuses the entry by name when it is
    # built, before the sector contraction plans or allocates, and so before
    # its guard
    half = [build_aux_space(1).index[AuxVertex(1, sign)] for sign in (+1, -1)]

    def planned(*args):
        raise AssertionError("the sector contraction was planned")

    seed_plan_entry(monkeypatch, (0, 0, *half))
    monkeypatch.setattr(ness_engine, "_plan", planned)
    with pytest.raises(ValueError,
                       match=r"the transfer entry A\[0, 0, 1, 2\] breaks charge conservation"):
        build_ness(DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 3))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_six_site_state_memory():
    # a dense rho alone would be 256 MiB
    assert _traced_peak(build_ness, DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 6)) < 128 << 20


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sector_guards_bound_the_peaks(n, monkeypatch):
    # the contraction's guard bounds what build_ness allocates, its plan and
    # tables included
    estimates = {}
    guard = ness_engine.guard

    def recorded(nbytes, what):
        estimates[what.split("-site ")[1]] = nbytes
        guard(nbytes, what)

    monkeypatch.setattr(ness_engine, "guard", recorded)
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n)
    lax_builder.transfer_plan(k_exact(n))  # built first by ness_family in `ness`
    for cached in (ness_engine._plan, linalg.sectors):
        cached.cache_clear()
    peak = _traced_peak(build_ness, cfg)
    assert set(estimates) == {"sector contraction", "sector blocks"}
    assert peak <= estimates["sector contraction"]


# ---------------------------------------------------------------------------
# doubled operators

def test_double_route_reproduces_r():
    for n in (2, 3):
        cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n)
        om = contract_omega(ness_family(cfg), n)
        _, _, eta = map_driving_to_params(cfg)
        R = (om @ om.conj().T) * m_diag(n, eta)[None, :]
        R2 = double_contract(cfg, ness_family(cfg), n)
        assert np.linalg.norm(R - R2) < 1e-12 * np.linalg.norm(R)


def test_double_contract_refused_before_allocation():
    # n=6 would hold 16^5 partial rows of dimension dim_aux^2 (about 5 GB)
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 6)
    fam = ness_family(cfg)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            double_contract(cfg, fam, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_interaction_operator_fixes_root():
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2)
    fam = ness_family(cfg)
    i0 = fam.space.index[sorted(fam.space.index, key=lambda v: v.twice_level)[0]]
    e0 = np.zeros(fam.dim)
    e0[i0] = 1.0
    assert np.allclose(fam.X @ e0, e0, atol=1e-14)
    assert np.allclose(np.conj(fam.X) @ e0, e0, atol=1e-14)


def test_doubled_spectral_operator_root_entry():
    fam = ness_family(DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2))
    lam, u = fam.params.lam, fam.params.u
    want = -2.0 * u * (lam - np.conj(lam))
    root = fam.space.index[AuxVertex(0, +1)]
    unit = np.zeros((fam.dim, fam.dim, 1, 1))
    unit[root, root] = 1.0
    assert abs(_yy(fam.Y, unit)[root, root, 0, 0] - want) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_root_slabs_match_whole_doubled_tensors(n):
    # build_double_lax keeps the root slabs of LL and LLt on the levels
    # <= 1, the only ones they reach, and YY acts on them as Y X - X Y^dag;
    # the whole tensors and the da^2 x da^2 YY of conftest are the reference
    for cfg in canonical_configs(n):
        fam = ness_family(cfg)
        slabs = build_double_lax(cfg, fam)
        LL, LLt, YY, root = doubled_tensors(cfg, fam)
        da, near = fam.dim, fam.space.level_prefix(1)

        def as_slab(T):
            return T.transpose(2, 0, 1).reshape(da, da, 4, 4)

        padded = []
        for got, T in zip(slabs, (LL[:, :, root, :], LLt[:, :, root, :],
                                  LL[:, :, :, root], LLt[:, :, :, root])):
            want = as_slab(T)
            assert np.array_equal(got, want[:near, :near])
            assert not want[near:].any() and not want[:, near:].any()
            padded.append(want)
        row, _, col, _ = padded
        # a row slab is acted on from the right, a column slab from the left
        left = (YY.T @ row.reshape(da * da, 16)).reshape(row.shape)
        right = (YY @ col.reshape(da * da, 16)).reshape(col.shape)
        assert np.linalg.norm(_yy(fam.Y.T, row) - left) <= 1e-14 * np.linalg.norm(left)
        assert np.linalg.norm(_yy(fam.Y, col) - right) <= 1e-14 * np.linalg.norm(right)


def test_root_entry_past_level_one_refused():
    # the root slabs are cut to the levels <= 1; an entry that would reach
    # past them is refused, not dropped
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 4)
    far = ness_family(cfg).space.index[AuxVertex(3, +1)]  # level 3/2
    root = ness_family(cfg).space.index[AuxVertex(0, +1)]
    for comps, a, b in (("L", root, far), ("Ltilde", far, root)):
        fam = ness_family(cfg)
        getattr(fam, comps)["+", "0"][a, b] = 0.1
        with pytest.raises(ValueError, match=f"root slab of {comps} reaches past level 1"):
            build_double_lax(cfg, fam)
    fam = ness_family(cfg)
    fam.Y[root, far] = 0.1
    with pytest.raises(ValueError, match="Y couples the levels <= 1 to higher ones"):
        check_boundary_conditions(cfg, fam)


def test_telescoping_two_and_three_sites():
    cfg2 = DrivingConfig(1.4, 0.6, 0.2, -0.3, 1.2, 2)
    res, scale = check_telescoping(cfg2, ness_family(cfg2))
    assert res <= 1e-10 * scale

    # on a family one level above the exact cutoff as well
    cfg3 = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 3)
    res3, scale3 = check_telescoping(cfg3, assemble_family(3, ness_lax_params(cfg3)))
    assert res3 <= 1e-10 * scale3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bond_commutator_matches_kron_reference(n):
    """[H_bulk, R] from the bond terms applied site by site, against H_bulk
    built from krons, at the root and (n = 2) between interior levels."""
    from hubbard_lax.hubbard_model import h_bond

    for cfg in canonical_configs(n):
        fam = ness_family(cfg)
        LL, _, _, root = doubled_tensors(cfg, fam)
        hb = h_bond(cfg.u)
        Hbulk = sum(np.kron(np.kron(np.eye(4 ** (j - 1)), hb), np.eye(4 ** (n - j - 1)))
                    for j in range(1, n))
        blocks = [np.eye(LL.shape[2])[root]]
        if n == 2:
            blocks.append(np.eye(LL.shape[2])[:5])
        for rows in blocks:
            lhs, _ = telescoping_terms(cfg, fam, n, rows)
            R = chain([LL] * n, rows, rows)
            want = Hbulk @ R - R @ Hbulk
            assert np.linalg.norm(lhs - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificate_agrees_with_global_witness(n):
    # the local certificate and the telescoping of the whole doubled chain
    # both hold on the canonical drivings
    for cfg in canonical_configs(n):
        res, scale = global_telescoping(cfg, ness_family(cfg), n)
        assert res <= 1e-13 * scale
        cert = stationarity_certificate(cfg, ness_family(cfg))
        assert max(cert.values()) <= 1e-13, cert


def _x_entry_defect(monkeypatch, level):
    """Scale by 1.01 the X^{-+} entry of the integer block at `level` in every
    family assembled from here on, in the rows of X that L and the dense X
    (so Ltilde) are both built from."""
    x_rows = lax_builder.x_rows

    def defective(space, params, blocks):
        cols, vals = x_rows(space, params, blocks)
        i = space.index[AuxVertex(2 * level, -1)]
        vals[i, cols[i] == space.index[AuxVertex(2 * level, +1)]] *= 1.01
        return cols, vals

    monkeypatch.setattr(lax_builder, "x_rows", defective)


def _boundary(cert):
    return max(cert["boundary_left_residual"], cert["boundary_right_residual"])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificate_detects_seeded_defects(n, monkeypatch):
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n)
    assert max(stationarity_certificate(cfg, ness_family(cfg)).values()) <= 1e-13

    # the boundary equations pin the driving: a 5% spectral-parameter shift
    # keeps the bulk identity, which holds at every parameter point
    lp = ness_lax_params(cfg)
    shifted = assemble_family(k_exact(n), dataclasses.replace(lp, lam=lp.lam * 1.05))
    cert = stationarity_certificate(cfg, shifted)
    assert cert["telescoping_residual"] <= 1e-13
    assert _boundary(cert) > 1e-4, cert

    # Y scaled by 1.01 on the state's own family
    fam = ness_family(cfg)
    fam.Y *= 1.01
    assert stationarity_certificate(cfg, fam)["telescoping_residual"] > 1e-4

    # an X entry at level 1 <= K - 1 feeds L and Ltilde alike
    with monkeypatch.context() as m:
        _x_entry_defect(m, 1)
        assert stationarity_certificate(cfg, ness_family(cfg))["telescoping_residual"] > 1e-4

    # at level K the same defect reaches neither Omega nor the certificate:
    # no cut of the chain reaches level K
    with monkeypatch.context() as m:
        _x_entry_defect(m, k_exact(n))
        assert np.array_equal(contract_omega(ness_family(cfg), n),
                              contract_omega(assemble_family(k_exact(n), lp), n))
        assert max(stationarity_certificate(cfg, ness_family(cfg)).values()) <= 1e-13

    # eta * 1.1 through the map: only the boundary equations see the filter
    lam, om, eta = ness_engine.map_driving_to_params(cfg)
    monkeypatch.setattr(ness_engine, "map_driving_to_params",
                        lambda c: (lam, om, 1.1 * eta))
    cert = stationarity_certificate(cfg, ness_family(cfg))
    assert cert["telescoping_residual"] <= 1e-13
    assert _boundary(cert) > 1e-4, cert


def test_bulk_certificate_checks_charge_conservation(monkeypatch):
    # a bond term that moves charge would not commute with the filter M
    h_bond = ness_engine.h_bond
    flip = np.kron(local4("+", "0") + local4("-", "0"), np.eye(4))
    monkeypatch.setattr(ness_engine, "h_bond", lambda u: h_bond(u) + flip)
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 3)
    assert stationarity_certificate(cfg, ness_family(cfg))["telescoping_residual"] > 1e-4


def test_open_telescoping_detects_off_root_defect():
    # an Ltilde entry away from the root never enters the boundary slabs or
    # Omega, only the bulk divergence between interior levels
    for n in (2, 3, 4, 5):
        cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n)
        cert = stationarity_certificate(cfg, off_root_ltilde_defect(ness_family(cfg)))
        assert _boundary(cert) <= 1e-10, cert
        assert cert["telescoping_residual"] > 1e-4, n


def test_boundary_conditions_hold_at_map():
    for tup in [(1.5, 0.7, 0.3, -0.4, 2.0), (1.0, 1.0, 0.0, 0.0, 1.0)]:
        cfg = DrivingConfig(*tup, 3)
        cert = stationarity_certificate(cfg, assemble_family(3, ness_lax_params(cfg)))
        assert _boundary(cert) <= 1e-10, cert


def test_boundary_check_reads_whole_root_slabs(monkeypatch):
    # at the n = 2, 3 cutoff K = 2 the root slabs reach pair level 2, above
    # the interior levels (pair level <= K - 1) of the bulk certificate
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 3)
    fam = ness_family(cfg)
    assert fam.space.cutoff_K - 1 < 2
    slabs = build_double_lax(cfg, fam)
    lv = fam.space.levels()[:len(slabs[0])]
    pair = lv[:, None] + lv[None, :]
    assert _boundary(stationarity_certificate(cfg, fam)) <= 1e-10
    for side, k in ((0, 1), (1, 3)):  # each equation, and its slab of LLt
        x, y = max(zip(*np.nonzero(pair == 2)), key=lambda xy: np.linalg.norm(slabs[k][xy]))

        def defective(cfg, fam, k=k, xy=(x, y)):
            out = build_double_lax(cfg, fam)
            out[k][xy] *= 1.01
            return out

        with monkeypatch.context() as m:
            m.setattr(ness_engine, "build_double_lax", defective)
            bc = check_boundary_conditions(cfg, fam)
        assert bc[side] > 1e-4 * bc[2], (side, bc)


# ---------------------------------------------------------------------------
# oracle agreement at n=2 (cheap; the n=3 cases live in the acceptance run)

def test_matches_oracle_two_sites():
    from hubbard_lax.lindblad_oracle import fixed_point_oracle

    for cfg in canonical_configs(2):
        rho = build_ness(cfg).rho
        assert np.linalg.norm(rho - fixed_point_oracle(cfg)) < 1e-10


# ---------------------------------------------------------------------------
# binary dump

def test_dump_roundtrip(tmp_path):
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2)
    rho = build_ness(cfg).rho
    p = tmp_path / "rho.bin"
    dump_rho(p, rho)
    back = load_rho(p)
    assert np.array_equal(back, rho)


def test_dump_detects_corruption(tmp_path):
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 2)
    rho = build_ness(cfg).rho
    p = tmp_path / "rho.bin"
    dump_rho(p, rho)
    raw = bytearray(p.read_bytes())
    raw[30] ^= 0xFF  # flip a payload byte
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_rho(p)
    raw2 = bytearray(p.read_bytes())
    raw2[30] ^= 0xFF
    raw2[0] = 0x00  # break the magic
    p.write_bytes(bytes(raw2))
    with pytest.raises(ValueError, match="magic"):
        load_rho(p)
