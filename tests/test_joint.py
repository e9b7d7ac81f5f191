"""Joint atom-photon evolution, heralding and conditional states."""

import functools
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from memamp import joint
from memamp.dicke import LadderDirection, ladder_coeff, weak_coherent_rows
from memamp.errors import (
    MemampError,
    ResourceGuardError,
    TruncationLeakageError,
    TruncationOverflowError,
)
from memamp.joint import EvolutionOrder, HeraldPattern, ModeTruncation
from memamp.metrics import row_norms
from memamp.protocol import ProtocolConfig, StageKind
from reference import (
    add_generator_by_slices, evolve_stage, exact_series_by_slices, fidelity, heralded,
    reduced_conditional_density, ss_dagger_eigenvalues, zero_padded,
)

TOL = 1e-12
LOSSLESS = ModeTruncation(fock_a_max=3, fock_b_max=3, fock_c_max=0)
EXACT = EvolutionOrder.EXACT
WRITE, READ = StageKind.WRITE_ONLY, StageKind.READ_ONLY


def explicit_generator(n_atoms, trunc, p, beta, process):
    """G = C - C^T of one process, built as a Kronecker product of axis operators."""
    k_dim, a_dim, b_dim, c_dim = trunc.shape()
    raise_k = scipy.sparse.diags(
        [ladder_coeff(LadderDirection.RAISE, k, n_atoms) for k in range(k_dim - 1)],
        -1,
    )
    atomic = raise_k if process == "write" else raise_k.T

    def create(dim):
        return scipy.sparse.diags(np.sqrt(np.arange(1.0, dim)), -1)

    def kron(*ops):
        return functools.reduce(scipy.sparse.kron, ops)

    eye = scipy.sparse.identity
    if process == "write":
        detected = kron(atomic, create(a_dim), eye(b_dim), eye(c_dim))
    else:
        detected = kron(atomic, eye(a_dim), create(b_dim), eye(c_dim))
    loss = kron(atomic, eye(a_dim), eye(b_dim), create(c_dim))
    coupling = np.sqrt(p * beta) * detected + np.sqrt(p * (1.0 - beta)) * loss
    return (coupling - coupling.T).tocsr()


def expm_apply(generator, psi):
    """scipy.linalg.expm(G) @ psi, one invariant block of G at a time.

    G couples only the indices of one connected component of its sparsity
    graph, so exp(G) is block diagonal over the components and each block is
    the dense exponential of G restricted to it.
    """
    flat = psi.reshape(-1)
    out = np.zeros_like(flat)
    count, labels = connected_components(generator, directed=False)
    for label in range(count):
        idx = np.flatnonzero(labels == label)
        block = generator[idx][:, idx].toarray()
        out[idx] = scipy.linalg.expm(block) @ flat[idx]
    return out.reshape(psi.shape)


class TestModeTruncation:
    def test_defaults_resolve(self):
        trunc = ModeTruncation().resolve(100)
        assert trunc.shape() == (9, 4, 4, 3)

    def test_small_ensemble_clamps_atomic_axis(self):
        assert ModeTruncation().resolve(3).atomic_k_max == 3
        assert ModeTruncation(atomic_k_max=8).resolve(3).atomic_k_max == 3

    def test_minimum_bounds(self):
        with pytest.raises(ValueError):
            ModeTruncation(fock_a_max=0)
        with pytest.raises(ValueError):
            ModeTruncation(fock_c_max=-1)
        with pytest.raises(ValueError, match="^atomic_k_max must be >= 1$"):
            ModeTruncation(atomic_k_max=0)

    def test_shape_needs_an_atom_count(self):
        with pytest.raises(ValueError,
                           match="^truncation not resolved against an atom count$"):
            ModeTruncation().shape()

    @pytest.mark.parametrize("counts", [(-1, 1), (1, -1)])
    def test_negative_photon_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="^photon counts must be >= 0$"):
            HeraldPattern(*counts)

    def test_dimension_cap(self):
        # checked on the resolved truncation, whichever way the cutoff is spelled
        huge = ModeTruncation(fock_a_max=200, fock_b_max=200, fock_c_max=200)
        for trunc in (huge, replace(huge, atomic_k_max=200)):
            with pytest.raises(ResourceGuardError, match="exceeds cap 2000000$"):
                trunc.resolve(1000)


class TestBuildJoint:
    """The embedding every stage starts from: the atomic state in photon vacuum."""

    def test_ground_state_embedding(self):
        config = ProtocolConfig(10, p_w=0.0, p_r=0.0, truncation=LOSSLESS)
        psi = evolve_stage(np.eye(3)[0], config)
        assert psi[0, 0, 0, 0, 0] == 1.0
        assert row_norms(psi)[0] == pytest.approx(1.0, abs=TOL)

    def test_two_component_embedding(self):
        config = ProtocolConfig(50, p_w=0.0, p_r=0.0)
        psi = evolve_stage(weak_coherent_rows([0.2], 9)[0], config)
        assert np.argwhere(psi[0] != 0).tolist() == [[0, 0, 0, 0], [1, 0, 0, 0]]

    def test_norm_preserved(self):
        atomic = weak_coherent_rows([0.3j], 9)[0]
        psi = evolve_stage(atomic, ProtocolConfig(40, p_w=0.0, p_r=0.0))
        assert np.linalg.norm(psi) == pytest.approx(np.linalg.norm(atomic), abs=TOL)


class TestApplyWrite:
    def test_zero_coupling_is_identity(self):
        atomic = weak_coherent_rows([0.1], 9)[0]
        config = ProtocolConfig(20, p_w=0.0, truncation=LOSSLESS)
        out = evolve_stage(atomic, config, WRITE)[0]
        assert np.array_equal(out[:, 0, 0, 0], atomic)
        assert np.count_nonzero(out) == 2

    def test_first_order_on_ground(self):
        p_w = 4e-3
        config = ProtocolConfig(30, p_w=p_w, truncation=LOSSLESS)
        out = evolve_stage(np.eye(3)[0], config, WRITE)[0]
        assert out[0, 0, 0, 0] == pytest.approx(1.0, abs=TOL)
        assert out[1, 1, 0, 0] == pytest.approx(np.sqrt(p_w), abs=TOL)
        assert np.count_nonzero(out) == 2

    def test_exact_close_to_first_order(self):
        atomic = weak_coherent_rows([0.1], 9)[0]
        config = ProtocolConfig(1000, p_w=1e-4, p_r=1e-4, truncation=LOSSLESS)
        first = evolve_stage(atomic, config)
        exact = evolve_stage(atomic, replace(config, order=EXACT))
        # first order evolves only its reachable block of the configured shape
        first = zero_padded(first, exact.shape[1:])
        assert np.linalg.norm(first - exact) <= 2e-4

    def test_exact_preserves_norm(self):
        config = ProtocolConfig(100, p_w=1e-3, p_r=1e-3, order=EXACT,
                                truncation=LOSSLESS)
        out = evolve_stage(weak_coherent_rows([0.2], 9)[0], config)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_exact_leak_guard(self):
        trunc = ModeTruncation(fock_a_max=1, fock_b_max=1, fock_c_max=0)
        config = ProtocolConfig(1000, p_w=1e-2, order=EXACT, truncation=trunc)
        with pytest.raises(TruncationLeakageError):
            evolve_stage(weak_coherent_rows([0.1], 9)[0], config, WRITE)

    def test_first_order_overflow_guard(self):
        trunc = ModeTruncation(atomic_k_max=2, fock_c_max=0)
        config = ProtocolConfig(20, p_w=1e-3, truncation=trunc)
        with pytest.raises(TruncationOverflowError):
            evolve_stage(np.eye(3)[2], config, WRITE)

    @pytest.mark.parametrize("order", list(EvolutionOrder))
    def test_rows_with_zero_coupling_stay_unguarded(self, order):
        # row 0 (p = 0) sits on the atomic cutoff, row 1 (p > 0) in the ground state
        trunc = ModeTruncation(atomic_k_max=2, fock_c_max=0).evolved(20, order)
        proc = joint.Process("write", trunc, order, np.array([20.0, 20.0]),
                             np.array([0.0, 1e-6]), np.array([1.0, 1.0]))
        psi = np.zeros((2,) + trunc.shape(), dtype=complex)
        psi[0, 2, 0, 0, 0] = psi[1, 0, 0, 0, 0] = 1.0
        errors = {}
        out = joint.apply_process(psi, proc, errors, np.ones(2))
        assert errors == {}
        assert np.array_equal(out[0], psi[0])

    def test_write_at_physical_top_annihilates(self):
        # k = N is a physical boundary, not a truncation: no guard, no flow
        config = ProtocolConfig(3, p_w=1e-3, truncation=ModeTruncation(fock_c_max=0))
        out = evolve_stage(np.eye(4)[3], config, WRITE)[0]
        assert out[3, 0, 0, 0] == pytest.approx(1.0, abs=TOL)
        assert np.count_nonzero(out) == 1


def one_row_weights(n_atoms, trunc, p, beta, process):
    """Stencil weights and norm bound of one process on a batch of one."""
    proc = joint.Process(
        process, trunc, EXACT,
        np.array([float(n_atoms)]), np.array([p]), np.array([beta]),
    )
    w_det, w_loss, bound = proc.weights
    return w_det[0], None if w_loss is None else w_loss[0], bound[0]


class TestStencil:
    """The flattened stencil adds the same terms, in the same order, as one
    shifted-slice update per coupling term: with its weights broadcast into
    scratch on each product (first order) or built once as flat arrays (the
    exact series)."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=6),
        dims=st.tuples(*[st.integers(min_value=lo, max_value=5) for lo in (1, 1, 1, 0)]),
        process=st.sampled_from(["write", "read"]),
        batch_axis=st.booleans(),
        flat=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_slice_updates_to_the_bit(
        self, seed, rows, dims, process, batch_axis, flat
    ):
        rng = np.random.default_rng(seed)
        trunc = ModeTruncation(dims[1], dims[2], dims[3], dims[0])
        n_atoms = rng.integers(dims[0], 300, rows).astype(float)
        p = np.where(rng.random(rows) < 0.8, rng.random(rows), 0.0)
        beta = np.where(rng.random(rows) < 0.5, 1.0, rng.uniform(0.05, 1.0, rows))
        if trunc.fock_c_max == 0:
            beta[:] = 1.0
        order = EvolutionOrder.FIRST_ORDER
        proc = joint.Process(process, trunc, order, n_atoms, p, beta)
        w_det, w_loss, _ = proc.weights
        shape = (rows,) + trunc.shape()

        def sparse_state():  # amplitudes with (positive) zeros, as runs have them
            values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return np.where(rng.random(shape) < 0.6, values, 0.0)

        psi, out = sparse_state(), sparse_state()
        if not batch_axis:  # one row, as the exact order applies it
            psi, out, w_det = psi[0], out[0], w_det[0]
            w_loss = None if w_loss is None else w_loss[0]
        expected = add_generator_by_slices(out.copy(), psi, w_det, w_loss, process)
        build = joint._flat_stencil if flat else joint._stencil
        stencil = build(psi.shape, w_det, w_loss, process)
        scratch = np.empty_like(psi)
        got = joint._add_generator(out.copy(), psi, stencil, scratch, process)
        assert got.tobytes() == expected.tobytes()
        if flat:  # the flat weights survive the call, for the next term
            again = joint._add_generator(out.copy(), psi, stencil, scratch, process)
            assert again.tobytes() == expected.tobytes()


class TestExactSeries:
    """Exact order is a Taylor series of the first-order stencil."""

    CASES = [
        # (n_atoms, p, beta, truncation); the last has dimension 2250 > 2048
        (100, 1e-2, 1.0, ModeTruncation(5, 5, 0, 8)),
        (30, 1.0, 1.0, ModeTruncation(3, 3, 0, 10)),
        (40, 0.3, 0.6, ModeTruncation(3, 3, 2, 6)),
        (20, 1.0, 0.5, ModeTruncation(4, 4, 3, 8)),
        (200, 5e-2, 0.8, ModeTruncation(4, 4, 9, 8)),
    ]

    @pytest.mark.parametrize("process", ["write", "read"])
    @pytest.mark.parametrize("n_atoms,p,beta,trunc", CASES)
    def test_matches_expm_on_random_state(self, n_atoms, p, beta, trunc, process):
        rng = np.random.default_rng(n_atoms)
        trunc = trunc.resolve(n_atoms)
        psi = rng.normal(size=trunc.shape()) + 1j * rng.normal(size=trunc.shape())
        psi /= np.linalg.norm(psi)
        w_det, w_loss, bound = one_row_weights(n_atoms, trunc, p, beta, process)
        out = joint._exact_apply(psi, w_det, w_loss, bound, process)
        generator = explicit_generator(n_atoms, trunc, p, beta, process)
        assert np.max(np.abs(out - expm_apply(generator, psi))) <= 1e-14

    def test_write_read_above_old_dimension_cap(self):
        n_atoms, p, beta = 200, 5e-2, 0.8
        trunc = ModeTruncation(6, 6, 9, 8).resolve(n_atoms)
        assert trunc.total_dim() == 4410
        atomic = weak_coherent_rows([0.1], 9)[0]
        config = ProtocolConfig(n_atoms, p_w=p, p_r=p, beta_w=beta, beta_r=beta,
                                order=EXACT, truncation=trunc)
        base = evolve_stage(atomic, replace(config, p_w=0.0, p_r=0.0))[0]
        written = evolve_stage(atomic, config, WRITE)[0]
        read = evolve_stage(atomic, config)[0]
        expected = expm_apply(
            explicit_generator(n_atoms, trunc, p, beta, "write"), base
        )
        assert np.max(np.abs(written - expected)) <= 1e-14
        expected = expm_apply(
            explicit_generator(n_atoms, trunc, p, beta, "read"), expected
        )
        assert np.max(np.abs(read - expected)) <= 1e-14

    def test_first_order_is_one_stencil_step(self):
        atomic = weak_coherent_rows([0.2], 9)[0]
        p, beta = 1e-3, 0.7
        config = ProtocolConfig(50, p_w=p, beta_w=beta)
        trunc = config.truncation.resolve(50)
        # the first-order block, zero-padded into the configured shape
        base = zero_padded(evolve_stage(atomic, replace(config, p_w=0.0), WRITE)[0],
                           trunc.shape())
        out = zero_padded(evolve_stage(atomic, config, WRITE)[0], trunc.shape())
        generator = explicit_generator(50, trunc, p, beta, "write")
        flat = base.reshape(-1)
        expected = (flat + generator @ flat).reshape(base.shape)
        assert np.max(np.abs(out - expected)) <= 1e-16

    def test_structural_zeros_stay_exact(self):
        # write conserves k - n_a: from k in {0, 1} at vacuum, (k=0, n_a=1)
        # is unreachable and must come out as an exact zero, not rounding noise
        config = ProtocolConfig(100, p_w=1e-2, order=EXACT,
                                truncation=ModeTruncation(5, 5, 0, 8))
        out = evolve_stage(weak_coherent_rows([0.1], 9)[0], config, WRITE)[0]
        vacuum_b = out[:, :, 0, 0]
        k, n_a = np.indices(vacuum_b.shape)
        reachable = (k - n_a == 0) | (k - n_a == 1)
        assert np.all(vacuum_b[~reachable] == 0)
        assert np.all(vacuum_b[reachable] != 0)
        assert np.all(out[:, :, 1:] == 0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dims=st.tuples(*[st.integers(min_value=lo, max_value=5) for lo in (1, 1, 1, 0)]),
        process=st.sampled_from(["write", "read"]),
        p=st.floats(min_value=1e-4, max_value=2.0),
        lossy=st.booleans(),
    )
    # a lossy and a lossless row whose bounds need several substeps
    @example(seed=0, dims=(5, 5, 5, 5), process="write", p=2.0, lossy=True)
    @example(seed=1, dims=(4, 3, 3, 0), process="read", p=0.5, lossy=False)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_slice_series_to_the_bit(self, seed, dims, process, p, lossy):
        rng = np.random.default_rng(seed)
        trunc = ModeTruncation(dims[1], dims[2], dims[3], dims[0])
        n_atoms = int(rng.integers(dims[0], 300))
        beta = rng.uniform(0.05, 1.0) if lossy and trunc.fock_c_max else 1.0
        w_det, w_loss, bound = one_row_weights(n_atoms, trunc, p, beta, process)
        shape = trunc.shape()
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psi = np.where(rng.random(shape) < 0.6, psi, 0.0)
        psi /= np.linalg.norm(psi) or 1.0
        expected = exact_series_by_slices(psi, w_det, w_loss, bound, process)
        got = joint._exact_apply(psi, w_det, w_loss, bound, process)
        assert got.tobytes() == expected.tobytes()

    def test_drift_guard_raises(self):
        # imaginary weights make G = C - C^T Hermitian, not anti-Hermitian,
        # so exp(G) changes the norm. An understated bound drifts far less:
        # a series large enough to drift by 1e-10 hits the term cap first
        trunc = ModeTruncation(3, 3, 0, 4).resolve(20)
        psi = np.random.default_rng(0).normal(size=trunc.shape()) + 0j
        psi /= np.linalg.norm(psi)
        w_det, _, bound = one_row_weights(20, trunc, 1e-2, 1.0, "write")
        with pytest.raises(MemampError) as error:
            joint._exact_apply(psi, 1j * w_det, None, bound, "write")
        # the weights i w make the generator i G, G = C - C^T as built here
        generator = 1j * explicit_generator(20, trunc, 1e-2, 1.0, "write").toarray()
        drift = np.linalg.norm(scipy.linalg.expm(generator) @ psi.reshape(-1)) - 1.0
        prefix, number = str(error.value).rsplit(" ", 1)
        assert prefix == "exact evolution drifted the norm by"
        assert number == f"{abs(drift):.3e}" == "5.304e-02"

    def test_term_cap_raises(self):
        # an understated norm bound (true bound 18.3) leaves one substep,
        # too few for the series to converge within the term cap
        trunc = ModeTruncation(12, 12, 0, 10).resolve(30)
        psi = np.random.default_rng(0).normal(size=trunc.shape()) + 0j
        psi /= np.linalg.norm(psi)
        w_det, w_loss, _ = one_row_weights(30, trunc, 1.0, 1.0, "write")
        with pytest.raises(MemampError, match="did not converge"):
            joint._exact_apply(psi, w_det, w_loss, 0.5, "write")


class TestApplyRead:
    def test_zero_coupling_is_identity(self):
        atomic = weak_coherent_rows([0.1], 9)[0]
        config = ProtocolConfig(20, p_r=0.0, truncation=LOSSLESS)
        out = evolve_stage(atomic, config, READ)[0]
        assert np.array_equal(out[:, 0, 0, 0], atomic)
        assert np.count_nonzero(out) == 2

    def test_ground_state_unchanged_at_first_order(self):
        config = ProtocolConfig(12, p_r=1e-3, truncation=LOSSLESS)
        out = evolve_stage(np.eye(3)[0], config, READ)[0]
        assert out[0, 0, 0, 0] == 1.0
        assert np.count_nonzero(out) == 1

    def test_first_order_on_single_excitation(self):
        p_r = 9e-4
        config = ProtocolConfig(25, p_r=p_r, truncation=LOSSLESS)
        out = evolve_stage(np.eye(3)[1], config, READ)[0]
        assert out[1, 0, 0, 0] == pytest.approx(1.0, abs=TOL)
        assert out[0, 0, 1, 0] == pytest.approx(np.sqrt(p_r), abs=TOL)
        assert np.count_nonzero(out) == 2


#: the write and read couplings of the herald tests
PAIR = ProtocolConfig(1000, p_w=1e-3, p_r=1e-3, truncation=LOSSLESS)
P11 = HeraldPattern(1, 1)


def two_sector_amplitudes(*values):
    """A (k, n_a, n_b, n_c) tensor over k, n_c in {0, 1} at the (1, 1) pattern,
    ``values`` at (k, n_c) = (0, 0), (1, 0), (0, 1), (1, 1)."""
    amps = np.zeros((1, 2, 2, 2, 2), dtype=complex)
    amps[0, :, 1, 1, :] = np.reshape(values, (2, 2)).T
    return amps


class TestHerald:
    def test_eq15_amplitude_ratio(self):
        alpha = 0.1
        psi = evolve_stage(weak_coherent_rows([alpha], 9)[0], PAIR)
        states, prob = heralded(psi, P11)
        ratio = states[0, 1] / states[0, 0]
        assert ratio == pytest.approx(2 * alpha * (1 - 1 / 1000), abs=TOL)
        assert prob[0] == pytest.approx(1e-6 * (1 + (0.1998) ** 2) / 1.01, rel=1e-9)

    def test_complex_alpha_phases_preserved(self):
        alpha = 0.05 + 0.02j
        config = replace(PAIR, n_atoms=500)
        psi = evolve_stage(weak_coherent_rows([alpha], 9)[0], config)
        states, _ = heralded(psi, P11)
        ratio = complex(states[0, 1] / states[0, 0])
        assert ratio == pytest.approx(2 * alpha * (1 - 1 / 500), abs=1e-12)

    def test_vacuum_pattern_returns_input(self):
        atomic = weak_coherent_rows([0.1], 9)[0]
        psi = evolve_stage(atomic, replace(PAIR, n_atoms=200))
        states, prob = heralded(psi, HeraldPattern(0, 0))
        assert fidelity(states[0], atomic) == pytest.approx(1.0, abs=TOL)
        assert prob[0] == pytest.approx(1.0, rel=1e-6)

    def test_no_photons_without_evolution(self):
        config = ProtocolConfig(9, p_w=0.0, p_r=0.0, truncation=LOSSLESS)
        psi = evolve_stage(np.eye(3)[0], config)
        states, prob = heralded(psi, P11)
        assert prob[0] == 0.0
        assert np.linalg.norm(states[0]) == 0.0

    def test_eq14_on_dicke_level(self):
        k, n_atoms, p = 3, 100, 1e-3
        config = replace(PAIR, n_atoms=n_atoms)
        psi = evolve_stage(np.eye(6)[k], config)
        states, prob = heralded(psi, P11)
        factor = np.sqrt(prob[0]) / p
        expected = ss_dagger_eigenvalues(n_atoms, k + 1)[k]
        assert factor == pytest.approx(expected, rel=1e-12)
        level = np.eye(states.shape[1])[k]
        assert fidelity(states[0], level) == pytest.approx(1.0, abs=TOL)

    def test_order_consistency(self):
        atomic = weak_coherent_rows([0.15], 9)[0]
        p = 1e-2
        trunc = ModeTruncation(fock_a_max=5, fock_b_max=5, fock_c_max=0)
        config = ProtocolConfig(300, p_w=p, p_r=p, truncation=trunc)
        first, _ = heralded(evolve_stage(atomic, config), P11)
        exact, _ = heralded(evolve_stage(atomic, replace(config, order=EXACT)), P11)
        assert fidelity(first[0], exact[0]) >= 1 - 10 * p

    def test_beta_scaling_of_pair_probability(self):
        atomic = weak_coherent_rows([0.1], 9)[0]
        config = ProtocolConfig(100, p_w=1e-3, p_r=1e-3)
        _, p_full = heralded(evolve_stage(atomic, config), P11)
        for beta_w, beta_r in ((0.5, 1.0), (0.8, 0.6), (0.25, 0.25)):
            lossy = replace(config, beta_w=beta_w, beta_r=beta_r)
            _, p_lossy = heralded(evolve_stage(atomic, lossy), P11)
            assert p_lossy[0] / p_full[0] == pytest.approx(beta_w * beta_r, rel=1e-12)

    def test_pattern_probabilities_sum_to_total(self):
        atomic = weak_coherent_rows([0.2], 9)[0]
        config = ProtocolConfig(60, p_w=2e-3, p_r=3e-3, beta_w=0.7, beta_r=0.9)
        psi = evolve_stage(atomic, config)
        # first order evolves its reach, n_a <= 1 and n_b <= 1, not the 3 x 3
        assert psi.shape[1:] == (9, 2, 2, 3)
        total = 0.0
        for n_a in range(2):
            for n_b in range(2):
                # the density route reports probabilities for mixed sectors too
                _, prob = reduced_conditional_density(psi[0], HeraldPattern(n_a, n_b))
                total += prob
        assert total == pytest.approx(row_norms(psi)[0], abs=1e-10)

    @pytest.mark.parametrize("scale", [1e-100, 1e-130])
    def test_tiny_mixture_is_mixed(self, scale):
        # herald probability 2 scale^2: two orthogonal branches, each of
        # norm 1, with no underflow on the way
        amps = two_sector_amplitudes(scale, 0.0, 0.0, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob, rows, n_c, pops, states = joint.herald_rows(amps, P11)
        assert prob[0] == pytest.approx(2 * scale**2, rel=1e-15)
        assert rows.tolist() == [0, 0] and n_c.tolist() == [0, 1]
        assert np.all(pops == scale**2)
        assert np.array_equal(states, np.eye(2))

    def test_parallel_sectors_stay_pure(self):
        # two branches in the same state: their mixture is that pure state
        prob, rows, n_c, pops, states = joint.herald_rows(
            two_sector_amplitudes(0.3, 0.4, 0.6, 0.8), P11
        )
        assert prob[0] == pytest.approx(1.25, abs=TOL)
        assert rows.tolist() == [0, 0] and n_c.tolist() == [0, 1]
        assert pops == pytest.approx([0.25, 1.0], abs=TOL)
        assert np.allclose(states, [[0.6, 0.8], [0.6, 0.8]], atol=TOL)


class TestReducedConditionalDensity:
    def test_lossless_matches_herald_projector(self):
        config = replace(PAIR, n_atoms=80)
        psi = evolve_stage(weak_coherent_rows([0.1], 9)[0], config)
        states, prob_pure = heralded(psi, P11)
        rho, prob_rho = reduced_conditional_density(psi[0], P11)
        assert prob_rho == pytest.approx(prob_pure[0], rel=1e-12)
        projector = np.outer(states[0], states[0].conj())
        assert np.allclose(rho, projector, atol=1e-12)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_lossy_single_path_rank_one(self):
        p = 1e-2
        config = ProtocolConfig(50, p_w=p, p_r=p, beta_w=0.5, beta_r=0.5)
        psi = evolve_stage(np.eye(4)[0], config)
        rho, prob = reduced_conditional_density(psi[0], P11)
        assert prob == pytest.approx(p * p * 0.25, rel=1e-12)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability(self):
        config = ProtocolConfig(9, p_w=0.0, p_r=0.0, truncation=LOSSLESS)
        psi = evolve_stage(np.eye(3)[0], config)
        rho, prob = reduced_conditional_density(psi[0], P11)
        assert prob == 0.0
        assert np.all(rho == 0)
