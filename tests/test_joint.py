"""Joint atom-photon evolution, heralding and conditional states."""

import functools

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from memamp import joint
from memamp.dicke import (
    LadderDirection,
    basis_state,
    fidelity,
    ladder_coeff,
    weak_coherent_atomic_state,
)
from memamp.errors import (
    MemampError,
    MixedConditionalError,
    ResourceGuardError,
    TruncationLeakageError,
    TruncationOverflowError,
)
from memamp.joint import (
    EvolutionOrder,
    HeraldPattern,
    JointState,
    ModeTruncation,
    apply_read,
    apply_write,
    build_joint,
    herald,
)
from reference import (
    add_generator_by_slices, reduced_conditional_density, traced_density,
)

TOL = 1e-12
LOSSLESS = ModeTruncation(fock_a_max=3, fock_b_max=3, fock_c_max=0)


def evolve(atomic, p_w, p_r, order, beta_w=1.0, beta_r=1.0, trunc=LOSSLESS):
    state = build_joint(atomic, trunc)
    state = apply_write(state, p_w, beta_w, order)
    return apply_read(state, p_r, beta_r, order)


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

    def test_minimum_bounds(self):
        with pytest.raises(ValueError):
            ModeTruncation(fock_a_max=0)
        with pytest.raises(ValueError):
            ModeTruncation(fock_c_max=-1)

    def test_dimension_cap(self):
        with pytest.raises(ResourceGuardError):
            ModeTruncation(
                fock_a_max=200, fock_b_max=200, fock_c_max=200, atomic_k_max=200
            )


class TestBuildJoint:
    def test_ground_state_embedding(self):
        state = build_joint(basis_state(0, 10, k_alloc=2), LOSSLESS)
        assert state.amplitudes[0, 0, 0, 0] == 1.0
        assert state.total_probability() == pytest.approx(1.0, abs=TOL)

    def test_two_component_embedding(self):
        atomic = weak_coherent_atomic_state(0.2, 50)
        state = build_joint(atomic, ModeTruncation())
        nonzero = np.argwhere(state.amplitudes != 0)
        assert nonzero.tolist() == [[0, 0, 0, 0], [1, 0, 0, 0]]

    def test_norm_preserved(self):
        atomic = weak_coherent_atomic_state(0.3j, 40)
        state = build_joint(atomic, ModeTruncation())
        assert state.norm() == pytest.approx(atomic.norm(), abs=TOL)

    def test_rejects_support_beyond_truncation(self):
        atomic = basis_state(5, 100, k_alloc=5)
        with pytest.raises(ValueError):
            build_joint(atomic, ModeTruncation(atomic_k_max=3))


class TestApplyWrite:
    def test_zero_coupling_is_identity(self):
        state = build_joint(weak_coherent_atomic_state(0.1, 20), LOSSLESS)
        out = apply_write(state, 0.0, 1.0, EvolutionOrder.FIRST_ORDER)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_first_order_on_ground(self):
        p_w = 4e-3
        state = build_joint(basis_state(0, 30, k_alloc=2), LOSSLESS)
        out = apply_write(state, p_w, 1.0, EvolutionOrder.FIRST_ORDER)
        assert out.amplitudes[0, 0, 0, 0] == pytest.approx(1.0, abs=TOL)
        assert out.amplitudes[1, 1, 0, 0] == pytest.approx(np.sqrt(p_w), abs=TOL)
        assert np.count_nonzero(out.amplitudes) == 2

    def test_exact_close_to_first_order(self):
        atomic = weak_coherent_atomic_state(0.1, 1000)
        p = 1e-4
        first = evolve(atomic, p, p, EvolutionOrder.FIRST_ORDER)
        exact = evolve(atomic, p, p, EvolutionOrder.EXACT)
        diff = np.linalg.norm(first.amplitudes - exact.amplitudes)
        assert diff <= 2e-4

    def test_exact_preserves_norm(self):
        atomic = weak_coherent_atomic_state(0.2, 100)
        out = evolve(atomic, 1e-3, 1e-3, EvolutionOrder.EXACT)
        assert abs(out.norm() - 1.0) <= 1e-10

    def test_exact_leak_guard(self):
        atomic = weak_coherent_atomic_state(0.1, 1000)
        state = build_joint(atomic, ModeTruncation(fock_a_max=1, fock_b_max=1,
                                                   fock_c_max=0))
        with pytest.raises(TruncationLeakageError):
            apply_write(state, 1e-2, 1.0, EvolutionOrder.EXACT)

    def test_first_order_overflow_guard(self):
        atomic = basis_state(2, 20, k_alloc=2)
        state = build_joint(atomic, ModeTruncation(atomic_k_max=2, fock_c_max=0))
        with pytest.raises(TruncationOverflowError):
            apply_write(state, 1e-3, 1.0, EvolutionOrder.FIRST_ORDER)

    def test_write_at_physical_top_annihilates(self):
        # k = N is a physical boundary, not a truncation: no guard, no flow
        atomic = basis_state(3, 3)
        state = build_joint(atomic, ModeTruncation(fock_c_max=0))
        out = apply_write(state, 1e-3, 1.0, EvolutionOrder.FIRST_ORDER)
        assert out.amplitudes[3, 0, 0, 0] == pytest.approx(1.0, abs=TOL)
        assert np.count_nonzero(out.amplitudes) == 1

    def test_beta_below_one_needs_loss_mode(self):
        state = build_joint(basis_state(0, 5, k_alloc=2), LOSSLESS)
        with pytest.raises(ValueError):
            apply_write(state, 1e-3, 0.5, EvolutionOrder.FIRST_ORDER)

    def test_coupling_range_validated(self):
        state = build_joint(basis_state(0, 5, k_alloc=2), LOSSLESS)
        with pytest.raises(ValueError):
            apply_write(state, 1.5, 1.0, EvolutionOrder.FIRST_ORDER)
        with pytest.raises(ValueError):
            apply_write(state, 0.5, 0.0, EvolutionOrder.FIRST_ORDER)


def one_row_weights(state, p, beta, process):
    """Stencil weights and norm bound of one process on a single joint state."""
    proc = joint.Process(
        process, state.truncation, EvolutionOrder.EXACT,
        np.array([float(state.n_atoms)]), np.array([p]), np.array([beta]),
    )
    w_det, w_loss, bound = proc.weights
    return w_det[0], None if w_loss is None else w_loss[0], bound[0]


class TestStencil:
    """The flattened stencil adds the same terms, in the same order, as one
    shifted-slice update per coupling term."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=6),
        dims=st.tuples(*[st.integers(min_value=lo, max_value=5) for lo in (1, 1, 1, 0)]),
        process=st.sampled_from(["write", "read"]),
        batch_axis=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_slice_updates_to_the_bit(
        self, seed, rows, dims, process, batch_axis
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
        got = joint._add_generator(out.copy(), psi, w_det, w_loss, process)
        assert got.tobytes() == expected.tobytes()


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
        shape = trunc.resolve(n_atoms).shape()
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        state = JointState(n_atoms, trunc.resolve(n_atoms), psi / np.linalg.norm(psi))
        w_det, w_loss, bound = one_row_weights(state, p, beta, process)
        out = joint._exact_apply(state.amplitudes, w_det, w_loss, bound, process)
        generator = explicit_generator(n_atoms, state.truncation, p, beta, process)
        reference = expm_apply(generator, state.amplitudes)
        assert np.max(np.abs(out - reference)) <= 1e-14

    def test_write_read_above_old_dimension_cap(self):
        n_atoms, p, beta = 200, 5e-2, 0.8
        trunc = ModeTruncation(6, 6, 9, 8).resolve(n_atoms)
        assert trunc.total_dim() == 4410
        base = build_joint(weak_coherent_atomic_state(0.1, n_atoms), trunc)
        written = apply_write(base, p, beta, EvolutionOrder.EXACT)
        read = apply_read(written, p, beta, EvolutionOrder.EXACT)
        expected = expm_apply(
            explicit_generator(n_atoms, trunc, p, beta, "write"), base.amplitudes
        )
        assert np.max(np.abs(written.amplitudes - expected)) <= 1e-14
        expected = expm_apply(
            explicit_generator(n_atoms, trunc, p, beta, "read"), expected
        )
        assert np.max(np.abs(read.amplitudes - expected)) <= 1e-14

    def test_first_order_is_one_stencil_step(self):
        state = build_joint(weak_coherent_atomic_state(0.2, 50), ModeTruncation())
        p, beta = 1e-3, 0.7
        out = apply_write(state, p, beta, EvolutionOrder.FIRST_ORDER)
        generator = explicit_generator(50, state.truncation, p, beta, "write")
        flat = state.amplitudes.reshape(-1)
        expected = (flat + generator @ flat).reshape(state.amplitudes.shape)
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-16

    def test_structural_zeros_stay_exact(self):
        # write conserves k - n_a: from k in {0, 1} at vacuum, (k=0, n_a=1)
        # is unreachable and must come out as an exact zero, not rounding noise
        trunc = ModeTruncation(5, 5, 0, 8)
        base = build_joint(weak_coherent_atomic_state(0.1, 100), trunc)
        out = apply_write(base, 1e-2, 1.0, EvolutionOrder.EXACT).amplitudes
        vacuum_b = out[:, :, 0, 0]
        k, n_a = np.indices(vacuum_b.shape)
        reachable = (k - n_a == 0) | (k - n_a == 1)
        assert np.all(vacuum_b[~reachable] == 0)
        assert np.all(vacuum_b[reachable] != 0)
        assert np.all(out[:, :, 1:] == 0)

    def test_term_cap_raises(self):
        # an understated norm bound (true bound 18.3) leaves one substep,
        # too few for the series to converge within the term cap
        trunc = ModeTruncation(12, 12, 0, 10).resolve(30)
        psi = np.random.default_rng(0).normal(size=trunc.shape()) + 0j
        state = JointState(30, trunc, psi / np.linalg.norm(psi))
        w_det, w_loss, _ = one_row_weights(state, 1.0, 1.0, "write")
        with pytest.raises(MemampError, match="did not converge"):
            joint._exact_apply(state.amplitudes, w_det, w_loss, 0.5, "write")


class TestApplyRead:
    def test_zero_coupling_is_identity(self):
        state = build_joint(weak_coherent_atomic_state(0.1, 20), LOSSLESS)
        out = apply_read(state, 0.0, 1.0, EvolutionOrder.FIRST_ORDER)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_ground_state_unchanged_at_first_order(self):
        state = build_joint(basis_state(0, 12, k_alloc=2), LOSSLESS)
        out = apply_read(state, 1e-3, 1.0, EvolutionOrder.FIRST_ORDER)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_first_order_on_single_excitation(self):
        p_r = 9e-4
        state = build_joint(basis_state(1, 25, k_alloc=2), LOSSLESS)
        out = apply_read(state, p_r, 1.0, EvolutionOrder.FIRST_ORDER)
        assert out.amplitudes[1, 0, 0, 0] == pytest.approx(1.0, abs=TOL)
        assert out.amplitudes[0, 0, 1, 0] == pytest.approx(np.sqrt(p_r), abs=TOL)
        assert np.count_nonzero(out.amplitudes) == 2


class TestHerald:
    def test_eq15_amplitude_ratio(self):
        alpha = 0.1
        out = evolve(
            weak_coherent_atomic_state(alpha, 1000),
            1e-3,
            1e-3,
            EvolutionOrder.FIRST_ORDER,
        )
        conditional, prob = herald(out, HeraldPattern(1, 1))
        ratio = conditional.amplitudes[1] / conditional.amplitudes[0]
        assert ratio == pytest.approx(2 * alpha * (1 - 1 / 1000), abs=TOL)
        assert prob == pytest.approx(1e-6 * (1 + (0.1998) ** 2) / 1.01, rel=1e-9)

    def test_complex_alpha_phases_preserved(self):
        alpha = 0.05 + 0.02j
        out = evolve(
            weak_coherent_atomic_state(alpha, 500),
            1e-3,
            1e-3,
            EvolutionOrder.FIRST_ORDER,
        )
        conditional, _ = herald(out, HeraldPattern(1, 1))
        ratio = complex(conditional.amplitudes[1] / conditional.amplitudes[0])
        assert ratio == pytest.approx(2 * alpha * (1 - 1 / 500), abs=1e-12)

    def test_vacuum_pattern_returns_input(self):
        atomic = weak_coherent_atomic_state(0.1, 200)
        out = evolve(atomic, 1e-3, 1e-3, EvolutionOrder.FIRST_ORDER)
        conditional, prob = herald(out, HeraldPattern(0, 0))
        assert fidelity(conditional, atomic) == pytest.approx(1.0, abs=TOL)
        assert prob == pytest.approx(1.0, rel=1e-6)

    def test_no_photons_without_evolution(self):
        state = build_joint(basis_state(0, 9, k_alloc=2), LOSSLESS)
        conditional, prob = herald(state, HeraldPattern(1, 1))
        assert prob == 0.0
        assert conditional.norm() == 0.0

    def test_eq14_on_dicke_level(self):
        k, n_atoms, p = 3, 100, 1e-3
        out = evolve(
            basis_state(k, n_atoms, k_alloc=5), p, p, EvolutionOrder.FIRST_ORDER
        )
        conditional, prob = herald(out, HeraldPattern(1, 1))
        factor = np.sqrt(prob) / p
        assert factor == pytest.approx((k + 1) * (1 - k / n_atoms), rel=1e-12)
        assert fidelity(conditional, basis_state(k, n_atoms)) == pytest.approx(
            1.0, abs=TOL
        )

    def test_order_consistency(self):
        atomic = weak_coherent_atomic_state(0.15, 300)
        p = 1e-2
        trunc = ModeTruncation(fock_a_max=5, fock_b_max=5, fock_c_max=0)
        first, _ = herald(
            evolve(atomic, p, p, EvolutionOrder.FIRST_ORDER, trunc=trunc),
            HeraldPattern(1, 1),
        )
        exact, _ = herald(
            evolve(atomic, p, p, EvolutionOrder.EXACT, trunc=trunc),
            HeraldPattern(1, 1),
        )
        assert fidelity(first, exact) >= 1 - 10 * p

    def test_beta_scaling_of_pair_probability(self):
        atomic = weak_coherent_atomic_state(0.1, 100)
        p = 1e-3
        trunc = ModeTruncation()
        _, p_full = herald(
            evolve(atomic, p, p, EvolutionOrder.FIRST_ORDER, trunc=trunc),
            HeraldPattern(1, 1),
        )
        for beta_w, beta_r in ((0.5, 1.0), (0.8, 0.6), (0.25, 0.25)):
            _, p_lossy = herald(
                evolve(
                    atomic,
                    p,
                    p,
                    EvolutionOrder.FIRST_ORDER,
                    beta_w=beta_w,
                    beta_r=beta_r,
                    trunc=trunc,
                ),
                HeraldPattern(1, 1),
            )
            assert p_lossy / p_full == pytest.approx(beta_w * beta_r, rel=1e-12)

    def test_pattern_probabilities_sum_to_total(self):
        atomic = weak_coherent_atomic_state(0.2, 60)
        out = evolve(
            atomic,
            2e-3,
            3e-3,
            EvolutionOrder.FIRST_ORDER,
            beta_w=0.7,
            beta_r=0.9,
            trunc=ModeTruncation(),
        )
        total = 0.0
        for n_a in range(4):
            for n_b in range(4):
                # the density route reports probabilities for mixed sectors too
                _, prob = reduced_conditional_density(out, HeraldPattern(n_a, n_b))
                total += prob
        assert total == pytest.approx(out.total_probability(), abs=1e-10)

    def test_mixed_conditional_raises(self):
        # two non-parallel undetected-mode sectors at the heralded pattern
        trunc = ModeTruncation(
            fock_a_max=1, fock_b_max=1, fock_c_max=1, atomic_k_max=1
        )
        amps = np.zeros((2, 2, 2, 2), dtype=complex)
        amps[0, 1, 1, 0] = 0.6
        amps[1, 1, 1, 1] = 0.8
        state = JointState(5, trunc, amps)
        with pytest.raises(MixedConditionalError, match=(
            r"^conditional atomic state is mixed: exact order with beta < 1 leaves "
            r"several undetected-mode sectors; use first order or beta = 1$"
        )):
            herald(state, HeraldPattern(1, 1))
        rho, prob = reduced_conditional_density(state, HeraldPattern(1, 1))
        assert prob == pytest.approx(1.0, abs=TOL)
        assert np.trace(rho).real == pytest.approx(1.0, abs=TOL)

    def test_pattern_outside_truncation_raises(self):
        state = build_joint(basis_state(0, 9, k_alloc=2), LOSSLESS)
        with pytest.raises(ValueError, match="outside truncation"):
            herald(state, HeraldPattern(detect_a=LOSSLESS.fock_a_max + 1))

    @pytest.mark.parametrize("scale", [1e-100, 1e-130])
    def test_tiny_mixture_is_mixed(self, scale):
        # herald probability 2 scale^2: the Gram matrix's squares underflow
        trunc = ModeTruncation(
            fock_a_max=1, fock_b_max=1, fock_c_max=1, atomic_k_max=1
        )
        amps = np.zeros((2, 2, 2, 2), dtype=complex)
        amps[0, 1, 1, 0] = amps[1, 1, 1, 1] = scale
        errors = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MixedConditionalError):
                herald(JointState(5, trunc, amps), HeraldPattern(1, 1))
            _, prob = joint.herald_rows(amps[None], HeraldPattern(1, 1), errors)
        assert prob[0] == pytest.approx(2 * scale**2, rel=1e-15)
        assert list(errors) == [0]
        assert isinstance(errors[0], MixedConditionalError)

    def test_parallel_sectors_stay_pure(self):
        trunc = ModeTruncation(
            fock_a_max=1, fock_b_max=1, fock_c_max=1, atomic_k_max=1
        )
        amps = np.zeros((2, 2, 2, 2), dtype=complex)
        amps[0, 1, 1, 0] = 0.3
        amps[1, 1, 1, 0] = 0.4
        amps[0, 1, 1, 1] = 0.6
        amps[1, 1, 1, 1] = 0.8
        state = JointState(5, trunc, amps)
        conditional, prob = herald(state, HeraldPattern(1, 1))
        assert prob == pytest.approx(1.25, abs=TOL)
        ratio = conditional.amplitudes[1] / conditional.amplitudes[0]
        assert ratio == pytest.approx(4.0 / 3.0, abs=TOL)


class TestReducedConditionalDensity:
    def test_lossless_matches_herald_projector(self):
        atomic = weak_coherent_atomic_state(0.1, 80)
        out = evolve(atomic, 1e-3, 1e-3, EvolutionOrder.FIRST_ORDER)
        conditional, prob_pure = herald(out, HeraldPattern(1, 1))
        rho, prob_rho = reduced_conditional_density(out, HeraldPattern(1, 1))
        assert prob_rho == pytest.approx(prob_pure, rel=1e-12)
        vec = conditional.amplitudes
        projector = np.outer(vec, vec.conj())
        assert np.allclose(rho, projector, atol=1e-12)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_lossy_single_path_rank_one(self):
        p = 1e-2
        out = evolve(
            basis_state(0, 50, k_alloc=3),
            p,
            p,
            EvolutionOrder.FIRST_ORDER,
            beta_w=0.5,
            beta_r=0.5,
            trunc=ModeTruncation(),
        )
        rho, prob = reduced_conditional_density(out, HeraldPattern(1, 1))
        assert prob == pytest.approx(p * p * 0.25, rel=1e-12)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability(self):
        state = build_joint(basis_state(0, 9, k_alloc=2), LOSSLESS)
        rho, prob = reduced_conditional_density(state, HeraldPattern(1, 1))
        assert prob == 0.0
        assert np.all(rho == 0)


class TestHelpers:
    def test_joint_density_traced(self):
        atomic = weak_coherent_atomic_state(0.1, 40)
        out = evolve(
            atomic,
            1e-3,
            1e-3,
            EvolutionOrder.FIRST_ORDER,
            beta_w=0.8,
            beta_r=0.8,
            trunc=ModeTruncation(),
        )
        rho, trace = traced_density(out)
        assert rho.shape == (9, 4, 4) * 2
        assert trace == pytest.approx(out.total_probability(), rel=1e-12)
        assert np.einsum("kabkab->", rho).real == pytest.approx(1.0, abs=1e-12)
