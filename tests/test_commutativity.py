"""Numerical probes of the conjectured commuting transfer family.

These are evidence, not proof; a failure here is a reportable finding and the
checks are kept separate from the identity tier.
"""

import tracemalloc

import numpy as np
import pytest

from hubbard_lax import lax_builder, linalg, transfer_commutativity
from hubbard_lax.aux_space import AuxVertex
from hubbard_lax.algebra_verifier import residual_report
from hubbard_lax.lax_builder import LaxParams, assemble_family
from hubbard_lax.ness_engine import contract_omega, k_exact
from hubbard_lax.transfer_commutativity import (CONJECTURE_TOL, check_commutativity,
                                                sample_pairs)


def _dense_reports(n, u, pairs):
    """The reference: the commutator of the dense Omegas, each pair from its
    own families at k_exact(n)."""
    K = k_exact(n)
    reports = []
    for (l1, o1), (l2, o2) in pairs:
        p1, p2 = LaxParams(l1, o1, u), LaxParams(l2, o2, u)
        O1 = contract_omega(assemble_family(K, p1), n)
        O2 = contract_omega(assemble_family(K, p2), n)
        reports.append(residual_report(
            "transfer_commutation", p1, K, O1 @ O2 - O2 @ O1,
            np.linalg.norm(O1) * np.linalg.norm(O2), CONJECTURE_TOL))
    return reports


def test_self_commutation_exact():
    pairs = [((0.4 + 0.1j, 0.7 - 0.2j), (0.4 + 0.1j, 0.7 - 0.2j))]
    rep = check_commutativity([2], 1.0, pairs)[2][0]
    assert rep.residual_fro < 1e-14 * rep.operand_scale


def test_random_pairs_small_chains():
    pairs = sample_pairs(6, seed=13)
    for n, reps in check_commutativity((2, 3), 1.0, pairs).items():
        for rep in reps:
            assert rep.passed, f"n={n}: {rep.residual_fro / rep.operand_scale:.2e}"


def test_sector_blocks_match_dense_commutator():
    pairs = sample_pairs(6, seed=13)
    got = check_commutativity((2, 3, 4), 1.0, pairs)
    assert list(got) == [2, 3, 4]
    for n, reps in got.items():
        ref = _dense_reports(n, 1.0, pairs)
        assert len(reps) == len(ref) == 6
        for r, d in zip(reps, ref):
            assert (r.identity_name, r.params, r.cutoff_K, r.tol) == \
                   (d.identity_name, d.params, d.cutoff_K, d.tol)
            assert abs(r.residual_fro - d.residual_fro) <= 1e-14 * d.operand_scale
            assert abs(r.residual_max - d.residual_max) <= 1e-14 * d.operand_scale
            assert abs(r.operand_scale - d.operand_scale) <= 1e-13 * d.operand_scale
            assert r.passed == d.passed


def test_family_nested_in_cutoff():
    # Omega of every shorter chain from the family at the longest chain's
    # cutoff is bitwise the one from its own k_exact(n) family
    K = k_exact(4)
    for pair in sample_pairs(5, seed=42):
        for lam, om in pair:
            p = LaxParams(lam, om, 1.0)
            fam = assemble_family(K, p)
            for n in range(1, 5):
                assert np.array_equal(contract_omega(fam, n),
                                      contract_omega(assemble_family(k_exact(n), p), n))


def test_off_sector_entry_refused(monkeypatch):
    # an X entry between 1/2+ and 1/2-, of charges (1, 0) and (0, 1), moves
    # transfer entries off their charge; the blocks would drop them, so the
    # probe refuses the entry by name before it contracts anything
    x_rows = lax_builder.x_rows

    def defective(space, params, blocks):
        cols, vals = x_rows(space, params, blocks)
        i = space.index[AuxVertex(1, +1)]
        assert cols[i, 1] == space.index[AuxVertex(1, -1)] and vals[i, 1] == 0
        vals[i, 1] = 0.1
        return cols, vals

    def reached(*args):
        raise AssertionError("the probe contracted a charge-breaking tensor")

    monkeypatch.setattr(lax_builder, "x_rows", defective)
    for name in ("extend", "close_sectors"):
        monkeypatch.setattr(transfer_commutativity, name, reached)
    with pytest.raises(ValueError, match=r"the transfer entry A\[.*\] breaks charge conservation"):
        check_commutativity([2], 1.0, sample_pairs(1))


def test_unordered_and_repeated_lengths():
    # one prefix serves every length, whatever their order; a repeated one
    # is reported once, in the place it first takes
    pairs = sample_pairs(4, seed=21)
    got = check_commutativity((4, 1, 2, 4), 1.0, pairs)
    assert list(got) == [4, 1, 2]
    for n, reps in got.items():
        for r, d in zip(reps, _dense_reports(n, 1.0, pairs), strict=True):
            assert r.cutoff_K == d.cutoff_K
            assert abs(r.residual_fro - d.residual_fro) <= 1e-14 * d.operand_scale
            assert abs(r.operand_scale - d.operand_scale) <= 1e-13 * d.operand_scale


def test_probe_traced_peak():
    # one transfer tensor and one prefix per point, no dense family or Omega:
    # the dense route held 2.67 MiB here
    pairs = sample_pairs(20, seed=0)
    check_commutativity((2, 3, 4), 1.0, pairs[:1])  # the index tables, cached
    tracemalloc.start()
    try:
        check_commutativity((2, 3, 4), 1.0, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 2**20


@pytest.mark.parametrize("n", [5, 6])
def test_probe_guard_bounds_the_peak(n, monkeypatch):
    # the estimate the probe is guarded on bounds what it allocates: the
    # prefixes, the index tables, the gathered rows and the blocks
    estimates = []
    guard = transfer_commutativity.guard
    monkeypatch.setattr(transfer_commutativity, "guard",
                        lambda nbytes, what: estimates.append(nbytes) or guard(nbytes, what))
    for cached in (linalg.sectors, linalg.sector_gather):
        cached.cache_clear()
    tracemalloc.start()
    try:
        check_commutativity([n], 1.0, sample_pairs(1, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1 and peak <= estimates[0]


def test_chain_lengths_below_one_refused():
    with pytest.raises(ValueError, match="at least 1 site"):
        check_commutativity([2, 0], 1.0, sample_pairs(1))


def test_one_parameter_slice():
    """Commutativity inside the lambda = 0 slice."""
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(4):
        o1, o2 = (0.3 + 1.2 * rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
        pairs.append(((0.0, o1), (0.0, o2)))
    for rep in check_commutativity([3], 1.0, pairs)[3]:
        assert rep.passed


def test_interaction_values():
    pairs = sample_pairs(3, seed=17)
    for u in (0.5, 2.0):
        for rep in check_commutativity([2], u, pairs)[2]:
            assert rep.passed


def test_single_site_all_commute():
    """n=1 transfer operators are 4x4 and commute trivially (all are
    polynomials of the same diagonal structure)."""
    p1 = LaxParams(0.5 + 0.2j, 0.8 - 0.1j, 1.0)
    p2 = LaxParams(-0.3 + 0.6j, 0.4 + 0.5j, 1.0)
    o1 = contract_omega(assemble_family(2, p1), 1)
    o2 = contract_omega(assemble_family(2, p2), 1)
    c = o1 @ o2 - o2 @ o1
    assert np.linalg.norm(c) < 1e-12 * max(np.linalg.norm(o1) * np.linalg.norm(o2), 1.0)
