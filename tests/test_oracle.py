import numpy as np
import pytest

from conftest import canonical_configs, kron_lindbladian, kron_site_operator, kron_superoperator
from hubbard_lax import lindblad_oracle
from hubbard_lax.linalg import local4
from hubbard_lax.lindblad_oracle import (
    UniquenessViolation,
    apply_lindbladian,
    fixed_point_oracle,
    fixed_point_residual,
    make_spec,
    superoperator,
)
from hubbard_lax.ness_engine import DrivingConfig, build_ness

TOL = 1e-12


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def assembled(blocks, d):
    """The full d^2 x d^2 generator from its coherence-sector blocks."""
    S = np.zeros((d * d, d * d), dtype=complex)
    for kets, bras, block in blocks:
        idx = kets * d + bras
        S[np.ix_(idx, idx)] = block
    return S


def test_single_jump_dissipator_on_identity():
    """2 L 1 L+ - {L+L, 1} for L = sigma+_1 equals 2 sz_1."""
    L = kron_site_operator(2, 1, 0, "+").toarray()
    Ld = L.conj().T
    eye = np.eye(16)
    out = 2 * L @ eye @ Ld - Ld @ L @ eye - eye @ Ld @ L
    sz1 = kron_site_operator(2, 1, 0, "z").toarray()
    assert np.linalg.norm(out - 2 * sz1) < TOL


def test_generator_annihilates_trace():
    cfg = DrivingConfig(1.3, 0.8, 0.2, -0.5, 1.0, 2)
    spec = make_spec(cfg)
    for seed in range(5):
        out = apply_lindbladian(spec, random_state(16, seed))
        assert abs(np.trace(out)) < TOL


def test_generator_preserves_hermiticity():
    cfg = DrivingConfig(1.0, 0.6, 0.0, 0.3, 1.5, 2)
    spec = make_spec(cfg)
    out = apply_lindbladian(spec, random_state(16, 3))
    assert np.linalg.norm(out - out.conj().T) < TOL


def test_superoperator_matches_direct_application():
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2)
    spec = make_spec(cfg)
    S = assembled(superoperator(spec), 16)
    rho = random_state(16, 11)
    direct = apply_lindbladian(spec, rho)
    via_s = (S @ rho.reshape(-1)).reshape(16, 16)
    assert np.linalg.norm(direct - via_s) < TOL


def test_spectrum_in_left_half_plane():
    """All generator eigenvalues have non-positive real part (n=2)."""
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 2)
    ev = np.concatenate([np.linalg.eigvals(B) for _, _, B in superoperator(make_spec(cfg))])
    assert ev.real.max() <= 1e-12


def test_null_space_unique():
    """Cross-check of the oracle's uniqueness certificate: the full-space SVD
    finds exactly one null vector, and it is the oracle's state."""
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 2)
    _, sv, Vh = np.linalg.svd(kron_superoperator(cfg).toarray())
    assert np.sum(sv < 1e-10 * sv[0]) == 1
    rho_svd = Vh[-1].conj().reshape(16, 16)
    rho_svd = rho_svd / np.trace(rho_svd)
    rho = fixed_point_oracle(cfg)
    assert abs(np.trace(rho) - 1.0) < TOL
    assert np.linalg.norm(rho - rho.conj().T) < TOL
    assert np.linalg.norm(rho - rho_svd) <= 1e-12


@pytest.mark.parametrize("n, kept, unique", [
    (2, (), False),          # no dissipation: whatever commutes with H is stationary
    (2, (0,), False),        # sigma injection only
    (2, (0, 2), False),      # sigma in and out: tau is not driven
    (2, (0, 1), True),       # both species pumped up: all spins up is the one steady state
    (3, (0, 2), False),      # inverts without error; only the condition number sees it
])
def test_degenerate_generator_raises(monkeypatch, n, kept, unique):
    """Keeping only some of the jumps s+_1, t+_1, s-_n, t-_n (in that order)
    leaves a null space of dimension > 1 unless both species are driven."""
    full_spec = lindblad_oracle.make_spec

    def some_jumps(cfg):
        spec = full_spec(cfg)
        spec.jumps = [spec.jumps[k] for k in kept]
        return spec

    monkeypatch.setattr(lindblad_oracle, "make_spec", some_jumps)
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n)
    if unique:
        assert abs(np.trace(fixed_point_oracle(cfg)) - 1.0) < TOL
    else:
        with pytest.raises(UniquenessViolation):
            fixed_point_oracle(cfg)


def test_every_sector_is_certified(monkeypatch):
    """A null vector outside the zero sector means a second steady state
    too: one coherence block made singular must raise."""
    full_superoperator = lindblad_oracle.superoperator

    def singular_coherence(spec):
        blocks = full_superoperator(spec)
        _, _, B = blocks[1]
        B[:, 0] = B[:, 1]
        return blocks

    monkeypatch.setattr(lindblad_oracle, "superoperator", singular_coherence)
    with pytest.raises(UniquenessViolation):
        fixed_point_oracle(DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2))


def test_selection_rule_violation_raises(monkeypatch):
    """A jump that does not shift the charges by one fixed amount, here
    sigma^x_1 = s+_1 + s-_1, would couple the coherence sectors: refused."""
    full_spec = lindblad_oracle.make_spec

    def x_jump(cfg):
        spec = full_spec(cfg)
        spec.jumps[0] = (local4("+", "0") + local4("-", "0"), 1)
        return spec

    monkeypatch.setattr(lindblad_oracle, "make_spec", x_jump)
    with pytest.raises(ValueError, match="jump 0 breaks the charge selection rule"):
        fixed_point_oracle(DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2))


def test_blocks_are_the_full_generator():
    """The coherence-sector blocks, put in place, are the kron-built full
    generator: nothing outside them, nothing dropped."""
    for cfg in canonical_configs(2):
        S = assembled(superoperator(make_spec(cfg)), 16)
        assert np.abs(S - kron_superoperator(cfg).toarray()).max() <= TOL


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_local_terms_match_kron_reference(n):
    """apply_lindbladian from the local terms against the CSR generator of
    the global formulas, on a state and on a non-Hermitian matrix."""
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, n)
    spec = make_spec(cfg)
    d = 4**n
    rng = np.random.default_rng(n)
    general = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for rho in (random_state(d, n), general):
        want = kron_lindbladian(cfg, rho)
        got = apply_lindbladian(spec, rho)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_oracle_state_is_stationary():
    cfg = DrivingConfig(1.5, 0.7, 0.3, -0.4, 2.0, 2)
    rho = fixed_point_oracle(cfg)
    assert fixed_point_residual(cfg, rho) < 1e-12


def test_oracle_matches_transfer_construction():
    for cfg in canonical_configs(2):
        d = np.linalg.norm(build_ness(cfg).rho - fixed_point_oracle(cfg))
        assert d < 1e-10, cfg.key()


def test_interaction_free_agreement():
    cfg = DrivingConfig(1.2, 0.9, 0.3, -0.2, 0.0, 2)
    d = np.linalg.norm(build_ness(cfg).rho - fixed_point_oracle(cfg))
    assert d < 1e-10


def test_agreement_at_an_extreme_rate_ratio():
    # G_L / G_R = 1e30: M weighs the sectors of three sites up to 1e90 apart
    cfg = DrivingConfig(1.0, 1e-30, 0.0, 0.0, 1.0, 3)
    d = np.linalg.norm(build_ness(cfg).rho - fixed_point_oracle(cfg))
    assert d < 1e-14


def test_size_refusal():
    cfg = DrivingConfig(1.0, 1.0, 0.0, 0.0, 1.0, 4)
    with pytest.raises(ValueError, match="n="):
        superoperator(make_spec(cfg))


def test_uniqueness_violation_is_valueerror_subclass():
    assert issubclass(UniquenessViolation, RuntimeError)
