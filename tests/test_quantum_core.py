import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoway_qkd import Basis, NoiseModel, QubitRegister
from twoway_qkd.channel import RowNoise, _pauli_codes
from twoway_qkd.qubit import PAULI_CODES, PAULI_TAGS, RowStreams
from twoway_qkd.reference import (
    PAULI_MATRICES,
    ChannelCompletenessError,
    DensityMatrix,
    KrausChannel,
    PureState,
    apply_channel,
    apply_pauli,
    born_probability,
    encode_bit,
    flip_probability,
    measure_in_basis,
    register_state,
    to_density,
)

angles = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False)
bits = st.sampled_from([0, 1])


def test_encode_computational_basis():
    assert encode_bit(0, Basis(0.0)) == PureState(1.0, 0.0)
    assert encode_bit(1, Basis(0.0)) == PureState(-0.0, 1.0)


def test_encode_diagonal_bit_one():
    s = encode_bit(1, Basis(math.pi / 4))
    assert s.amp0 == pytest.approx(-1 / math.sqrt(2))
    assert s.amp1 == pytest.approx(1 / math.sqrt(2))


def test_encode_rejects_non_bit():
    with pytest.raises(ValueError):
        encode_bit(2, Basis(0.0))


@given(angles, bits)
def test_xz_flips_to_orthogonal_state(theta, i):
    basis = Basis(theta)
    flipped = apply_pauli(encode_bit(i, basis), "XZ")
    assert flipped.equals_up_to_phase(encode_bit(1 - i, basis))


@given(angles, bits)
def test_identity_leaves_state_unchanged(theta, i):
    s = encode_bit(i, Basis(theta))
    assert apply_pauli(s, "I") == s


def test_x_fixes_diagonal_state_up_to_phase():
    # At alpha = beta the X image of |psi_0> is |psi_0> again.
    s = encode_bit(0, Basis(math.pi / 4))
    assert apply_pauli(s, "X").equals_up_to_phase(s)


@given(angles, bits)
def test_zx_equals_xz_up_to_phase(theta, i):
    s = encode_bit(i, Basis(theta))
    assert apply_pauli(s, "ZX").equals_up_to_phase(apply_pauli(s, "XZ"))


@given(angles)
def test_basis_states_orthonormal(theta):
    basis = Basis(theta)
    s0, s1 = encode_bit(0, basis), encode_bit(1, basis)
    assert abs(np.conj(s0.vector()) @ s1.vector()) < 1e-12
    for s in (s0, s1):
        assert abs(np.linalg.norm(s.vector()) - 1.0) < 1e-12


def test_measure_eigenstate_is_deterministic():
    rng = np.random.default_rng(0)
    for theta in (0.0, 0.3, math.pi / 4):
        basis = Basis(theta)
        for i in (0, 1):
            assert measure_in_basis(encode_bit(i, basis), basis, rng) == i


@given(angles, bits)
def test_xz_measurement_always_reads_flipped_bit(theta, i):
    basis = Basis(theta)
    flipped = apply_pauli(encode_bit(i, basis), "XZ")
    assert born_probability(flipped, basis, 1 - i) == pytest.approx(1.0, abs=1e-12)


def test_measure_half_half_at_mismatched_basis():
    # |<psi_1,pi/4 | 0>|^2 = 1/2, checked by sampling.
    n = 100_000
    rng = np.random.default_rng(42)
    index = np.zeros(n, dtype=np.int64)
    reg = QubitRegister.encode(np.zeros(n, dtype=np.uint8), np.zeros(1), index)
    outcomes = reg.measure(np.array([math.pi / 4]), rng, index)
    sigma = math.sqrt(0.25 / n)
    assert abs(outcomes.mean() - 0.5) < 3 * sigma


@given(angles)
def test_flip_law(theta):
    basis = Basis(theta)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    assert flip_probability(basis, "X") == pytest.approx((c2 - s2) ** 2, abs=1e-12)
    assert flip_probability(basis, "Z") == pytest.approx(
        (2 * math.sin(theta) * math.cos(theta)) ** 2, abs=1e-12
    )
    assert flip_probability(basis, "XZ") == pytest.approx(1.0, abs=1e-12)
    assert flip_probability(basis, "ZX") == pytest.approx(1.0, abs=1e-12)


def test_flip_probability_examples():
    assert flip_probability(Basis(math.pi / 4), "X") == pytest.approx(0.0, abs=1e-12)
    assert flip_probability(Basis(math.pi / 4), "Z") == pytest.approx(1.0, abs=1e-12)


@given(angles, st.sampled_from(["I", "X", "Z", "XZ", "ZX"]))
def test_flip_probability_independent_of_encoded_bit(theta, tag):
    basis = Basis(theta)
    p_from_zero = born_probability(apply_pauli(encode_bit(0, basis), tag), basis, 1)
    p_from_one = born_probability(apply_pauli(encode_bit(1, basis), tag), basis, 0)
    assert p_from_zero == pytest.approx(p_from_one, abs=1e-12)


@given(angles, bits, angles, st.sampled_from([0, 1]))
def test_global_phase_invariance(theta, i, meas_theta, outcome):
    s = encode_bit(i, Basis(theta))
    phased = s.phase_shifted(complex(math.cos(1.234), math.sin(1.234)))
    basis = Basis(meas_theta)
    assert born_probability(phased, basis, outcome) == pytest.approx(
        born_probability(s, basis, outcome), abs=1e-12
    )


def test_to_density_examples():
    assert np.allclose(to_density(encode_bit(0, Basis(0.0))).entries, [[1, 0], [0, 0]])
    assert np.allclose(
        to_density(encode_bit(0, Basis(math.pi / 4))).entries, [[0.5, 0.5], [0.5, 0.5]]
    )
    assert np.allclose(
        to_density(encode_bit(1, Basis(math.pi / 4))).entries, [[0.5, -0.5], [-0.5, 0.5]]
    )


@given(angles, bits)
def test_to_density_is_pure(theta, i):
    assert to_density(encode_bit(i, Basis(theta))).is_pure()


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_identity_channel_is_noop():
    rho = to_density(encode_bit(0, Basis(0.7)))
    out = apply_channel(rho, KrausChannel([np.eye(2)]))
    assert np.allclose(out.entries, rho.entries, atol=1e-12)


def test_bitflip_channel_quarter():
    p = 0.25
    channel = KrausChannel([math.sqrt(1 - p) * np.eye(2), math.sqrt(p) * PAULI_MATRICES["X"]])
    out = apply_channel(to_density(PureState(1.0, 0.0)), channel)
    assert np.allclose(out.entries, np.diag([0.75, 0.25]), atol=1e-12)


def test_incomplete_channel_rejected():
    with pytest.raises(ChannelCompletenessError):
        KrausChannel([0.5 * np.eye(2)])
    with pytest.raises(ChannelCompletenessError):
        KrausChannel.from_pauli_coefficients([(0.9, 0.1, 0.0, 0.0)])


def _random_channel(rng, n_ops):
    # Random isometry trick: QR of a complex Gaussian (2n x 2) block gives
    # stacked Kraus operators with exact completeness.
    g = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    q, _ = np.linalg.qr(g)
    return KrausChannel([q[2 * j : 2 * j + 2, :] for j in range(n_ops)])


@pytest.mark.parametrize("seed", range(5))
def test_random_channel_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    channel = _random_channel(rng, int(rng.integers(1, 5)))
    rho = to_density(encode_bit(int(rng.integers(2)), Basis(rng.uniform(0, math.pi))))
    out = apply_channel(rho, channel)
    assert abs(np.trace(out.entries) - 1.0) < 1e-10
    assert np.allclose(out.entries, out.entries.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(out.entries).min() > -1e-10


def test_channel_pauli_coefficient_roundtrip():
    rng = np.random.default_rng(7)
    channel = _random_channel(rng, 3)
    rebuilt = KrausChannel.from_pauli_coefficients(channel.pauli_coefficients())
    for a, b in zip(channel.operators, rebuilt.operators):
        assert np.allclose(a, b, atol=1e-12)


def test_channel_term_by_term_matches_direct_sum():
    rng = np.random.default_rng(11)
    channel = _random_channel(rng, 4)
    rho = to_density(encode_bit(1, Basis(0.4)))
    direct = apply_channel(rho, channel).entries
    terms = sum(op @ rho.entries @ op.conj().T for op in channel.operators)
    assert np.allclose(direct, terms, atol=1e-12)


@settings(max_examples=25)
@given(st.lists(st.tuples(bits, angles), min_size=1, max_size=64), angles)
def test_register_agrees_with_scalar_path(pairs, meas_theta):
    # Qubit k in the basis at pool angle k: a pool may hold an angle twice.
    bits_arr = np.array([b for b, _ in pairs], dtype=np.uint8)
    pool, index = np.array([t for _, t in pairs]), np.arange(len(pairs))
    reg = QubitRegister.encode(bits_arr, pool, index)
    for k, (b, t) in enumerate(pairs):
        assert register_state(reg, k) == encode_bit(b, Basis(t))
    flipped = reg.apply_pauli_codes(np.full(len(pairs), PAULI_CODES["XZ"]))
    p1 = flipped.probability_of_one(np.array([meas_theta]), np.zeros(len(pairs), dtype=np.int64))
    for k, (b, t) in enumerate(pairs):
        scalar = born_probability(apply_pauli(encode_bit(b, Basis(t)), "XZ"), Basis(meas_theta), 1)
        assert p1[k] == pytest.approx(scalar, abs=1e-12)


def test_register_masked_pauli():
    reg = QubitRegister.encode(np.array([0, 0, 0], dtype=np.uint8), np.zeros(1), np.zeros(3, dtype=np.int64))
    out = reg.apply_pauli_codes(np.where([True, False, True], PAULI_CODES["X"], 0))
    assert np.allclose(out.amp1, [1, 0, 1])
    assert np.allclose(out.amp0, [0, 1, 0])


# Each Pauli word as the register applies it, one qubit at a time in Python
# complex arithmetic. The matrix product in reference.apply_pauli gives the same
# values, but it adds signed zero products, so the sign of a zero part can
# differ from these; transcripts and wire frames are pinned to these signs.
WORD_ARITHMETIC = {
    "I": lambda a0, a1: (a0, a1),
    "X": lambda a0, a1: (a1, a0),
    "Z": lambda a0, a1: (a0, -a1),
    "XZ": lambda a0, a1: (-a1, a0),
    "ZX": lambda a0, a1: (a1, -a0),
}


def _bits(z) -> bytes:
    """Every bit of a complex number, the signs of zero parts included."""
    return np.complex128(z).tobytes()


@settings(max_examples=60)
@given(st.data(), st.integers(1, 3), st.integers(1, 24))
def test_fused_pauli_pass_matches_each_word_bit_for_bit(data, runs, qubits):
    cells = data.draw(
        st.lists(
            st.tuples(bits, angles, st.sampled_from(sorted(PAULI_TAGS))),
            min_size=runs * qubits,
            max_size=runs * qubits,
        )
    )
    # Each qubit in the basis at its own pool angle.
    bit_rows = np.array([i for i, *_ in cells], dtype=np.uint8).reshape(runs, qubits)
    pool, index = np.array([theta for _, theta, _ in cells]), np.arange(runs * qubits).reshape(runs, qubits)
    codes = np.array([code for *_, code in cells], dtype=np.int8).reshape(runs, qubits)
    reg = QubitRegister.encode(bit_rows, pool, index)
    amp0, amp1 = reg.amp0, reg.amp1
    out = reg.apply_pauli_codes(codes)
    for (r, k), code in np.ndenumerate(codes):
        tag = PAULI_TAGS[int(code)]
        expected = WORD_ARITHMETIC[tag](complex(amp0[r, k]), complex(amp1[r, k]))
        assert (_bits(out.amp0[r, k]), _bits(out.amp1[r, k])) == tuple(map(_bits, expected))
        scalar = apply_pauli(PureState(complex(amp0[r, k]), complex(amp1[r, k])), tag)
        assert PureState(complex(out.amp0[r, k]), complex(out.amp1[r, k])) == scalar

    # Bob's masked word goes through the same pass, one mask for every row.
    word = data.draw(st.sampled_from(sorted(PAULI_CODES)))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=qubits, max_size=qubits)))
    masked = reg.apply_pauli_codes(np.where(mask, PAULI_CODES[word], 0))
    for (r, k), a0 in np.ndenumerate(amp0):
        expected = WORD_ARITHMETIC[word if mask[k] else "I"](complex(a0), complex(amp1[r, k]))
        assert (_bits(masked.amp0[r, k]), _bits(masked.amp1[r, k])) == tuple(map(_bits, expected))


finite_angles = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60)
@given(st.data(), st.lists(finite_angles, min_size=1, max_size=12), st.integers(1, 3), st.integers(1, 40))
def test_pool_indexed_kernels_match_per_qubit_angles(data, pool, runs, qubits):
    pool = np.array(pool)
    cells = data.draw(
        st.lists(st.tuples(bits, st.integers(0, len(pool) - 1)), min_size=runs * qubits, max_size=runs * qubits)
    )
    bit_rows = np.array([i for i, _ in cells], dtype=np.uint8).reshape(runs, qubits)
    index = np.array([j for _, j in cells]).reshape(runs, qubits)
    thetas = pool[index]

    reg = QubitRegister.encode(bit_rows, pool, index)
    # Per-qubit angle references: cos and sin evaluated once per qubit.
    c, s = np.cos(thetas), np.sin(thetas)
    one = bit_rows == 1
    assert reg.amp0.tobytes() == np.where(one, -s, c).astype(complex).tobytes()
    assert reg.amp1.tobytes() == np.where(one, c, s).astype(complex).tobytes()

    # Measure after a Pauli word per qubit, so that the Born rule sees swapped and negated amplitudes.
    flipped = reg.apply_pauli_codes(np.array(data.draw(st.lists(st.integers(0, 4), min_size=qubits, max_size=qubits))))
    expected = np.minimum(1.0, np.abs(-s * flipped.amp0 + c * flipped.amp1) ** 2)
    assert flipped.probability_of_one(pool, index).tobytes() == expected.tobytes()


def _encoded(bit_rows: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """encode_bit's amplitudes per qubit, cos and sin evaluated per qubit."""
    c, s, one = np.cos(thetas), np.sin(thetas), bit_rows == 1
    return np.where(one, -s, c).astype(complex), np.where(one, c, s).astype(complex)


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.lists(finite_angles, min_size=1, max_size=3),
    st.lists(finite_angles, min_size=1, max_size=3),
    st.integers(1, 3),
    st.integers(1, 96),
    st.lists(st.sampled_from(["codes", "masked", "eve"]), min_size=1, max_size=6),
    st.integers(0, 2**32),
)
def test_successive_layers_match_the_word_oracle_bit_for_bit(data, pool, eve_pool, runs, qubits, layers, seed):
    """Pauli layers compose exactly: after any sequence of noise codes,
    masked words and Eve-style re-encodings, every amplitude bit (zero signs
    included) equals the words applied one at a time in Python complex
    arithmetic, and measurement reads the per-qubit Born formula byte for byte."""
    pool, eve_pool, shape = np.array(pool), np.array(eve_pool), (runs, qubits)
    rng = np.random.default_rng(seed)
    bit_rows, index = rng.integers(0, 2, shape, dtype=np.uint8), rng.integers(0, len(pool), shape)
    amp0, amp1 = _encoded(bit_rows, pool[index])
    reg = QubitRegister.encode(bit_rows, pool, index)
    expected = [[(complex(amp0[r, k]), complex(amp1[r, k])) for k in range(qubits)] for r in range(runs)]

    for layer in layers:
        if layer == "eve":
            eve_index = rng.integers(0, len(eve_pool), shape)
            outcomes = reg.measure(eve_pool, rng, eve_index)
            reg = QubitRegister.encode(outcomes, eve_pool, eve_index)
            fresh0, fresh1 = _encoded(outcomes, eve_pool[eve_index])
            expected = [[(complex(fresh0[r, k]), complex(fresh1[r, k])) for k in range(qubits)] for r in range(runs)]
            continue
        if layer == "codes":
            codes = rng.integers(0, 5, shape).astype(np.int8)
        else:
            word = data.draw(st.sampled_from(sorted(PAULI_CODES)))
            codes = np.where(rng.random(shape) < 0.5, PAULI_CODES[word], 0)
        reg = reg.apply_pauli_codes(codes)
        for (r, k), code in np.ndenumerate(codes):
            expected[r][k] = WORD_ARITHMETIC[PAULI_TAGS[int(code)]](*expected[r][k])

    want0 = np.array([[a0 for a0, _ in row] for row in expected], dtype=complex)
    want1 = np.array([[a1 for _, a1 in row] for row in expected], dtype=complex)
    assert reg.amp0.tobytes() == want0.tobytes()
    assert reg.amp1.tobytes() == want1.tobytes()

    measure_index = rng.integers(0, len(pool), shape)
    thetas = pool[measure_index]
    born = np.minimum(1.0, np.abs(-np.sin(thetas) * want0 + np.cos(thetas) * want1) ** 2)
    assert reg.probability_of_one(pool, measure_index).tobytes() == born.tobytes()


class _FixedDraws:
    """Stands in for a generator whose random() returns the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        return self.u


probabilities = st.just(0.0) | st.floats(0.0, 1.0)


@settings(max_examples=60)
@given(probabilities, probabilities, probabilities, st.integers(0, 2**32))
def test_sample_codes_count_edges_like_searchsorted(p_x, p_z, p_xz, seed):
    assume(p_x + p_z + p_xz <= 1.0)
    noise = NoiseModel(p_bitflip=p_x, p_phaseflip=p_z, p_both=p_xz)
    edges = np.cumsum([noise.p_identity, p_x, p_z])
    # Random draws plus every edge itself and its neighbours: a draw equal
    # to an edge, repeated edges (zero probabilities) and the ends of [0, 1).
    u = np.concatenate([
        np.random.default_rng(seed).random(200),
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0),
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    codes = noise.sample_codes(len(u), _FixedDraws(u))
    assert codes.dtype == np.int8
    assert np.array_equal(codes, np.searchsorted(edges, u, side="right"))
    assert np.array_equal(noise.sample_codes(len(u), _FixedDraws(np.tile(u, (2, 1)))), np.tile(codes, (2, 1)))


def test_row_noise_thresholds_each_row_at_its_own_model():
    # A -0.0 probability, probabilities summing to 1, a repeated edge and an edge at 1.
    models = [
        NoiseModel(p_bitflip=0.2, p_phaseflip=-0.0, p_both=0.1),
        NoiseModel(p_bitflip=0.5, p_phaseflip=0.25, p_both=0.25),
        NoiseModel(p_phaseflip=0.3),
        NoiseModel(p_both=1.0),
    ]
    counts = [2, 1, 3, 2]
    edges = np.concatenate([np.cumsum([m.p_identity, m.p_bitflip, m.p_phaseflip]) for m in models])
    shared = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0, np.nextafter(1.0, 0.0)]])
    shared = shared[(shared >= 0.0) & (shared < 1.0)]
    u = np.hstack([np.random.default_rng(3).random((sum(counts), 200)), np.tile(shared, (sum(counts), 1))])
    codes = RowNoise(models, counts).sample_codes(u.shape[1], _FixedDraws(u))
    assert codes.dtype == np.int8
    start = 0
    for model, count in zip(models, counts):
        rows = u[start : start + count]
        assert np.array_equal(codes[start : start + count], model.sample_codes(rows.shape[1], _FixedDraws(rows)))
        start += count
    # One row per model, as a star pass gives each leaf its own.
    one_each = RowNoise(models, 1).sample_codes(u.shape[1], _FixedDraws(u[: len(models)]))
    for row, model in enumerate(models):
        assert np.array_equal(one_each[row], model.sample_codes(u.shape[1], _FixedDraws(u[row])))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(probabilities, probabilities, probabilities).filter(lambda p: sum(p) <= 1.0), min_size=1,
             max_size=4),
    st.integers(0, 2**32),
)
def test_pauli_codes_count_edges_like_searchsorted(levels, seed):
    # Scalar edges (a NoiseModel) and RowNoise's (3, rows, 1) columns, on draws that hit every edge.
    models = [NoiseModel(*p) for p in levels]
    edges = [np.cumsum([m.p_identity, m.p_bitflip, m.p_phaseflip]) for m in models]
    u = np.concatenate([np.random.default_rng(seed).random(100), *edges, *(np.nextafter(e, 0.0) for e in edges),
                        *(np.nextafter(e, 1.0) for e in edges), [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    for row_edges in edges:
        codes = _pauli_codes(u, row_edges)
        assert codes.dtype == np.int8
        assert np.array_equal(codes, np.searchsorted(row_edges, u, side="right"))
    rows = np.tile(u, (len(models), 1))
    codes = _pauli_codes(rows, RowNoise(models, 1).edges)
    assert codes.dtype == np.int8 and codes.shape == rows.shape
    for row, row_edges in enumerate(edges):
        assert np.array_equal(codes[row], np.searchsorted(row_edges, u, side="right"))


# One draw as the protocol makes it: ("uint8", n) is integers(0, 2, n, uint8);
# ("int64", low, span, n) is integers(span, size=n) when low is None and
# integers(low, low + span, size=n) otherwise; ("random", n) is random(n).
# Wide spans reject a half often, so rows come to differ in holding a spare half.
row_calls = st.one_of(
    st.tuples(st.just("uint8"), st.integers(1, 70)),
    st.tuples(st.just("int64"), st.none() | st.integers(-5, 5), st.integers(1, 12), st.integers(1, 70)),
    st.tuples(st.just("int64"), st.none() | st.integers(-5, 5), st.sampled_from([2**31 + 1, 2**32 - 1, 2**32]),
              st.integers(1, 70)),
    st.tuples(st.just("random"), st.integers(1, 70)),
)


def _draw(source, call):
    kind, *args = call
    if kind == "uint8":
        return source.integers(0, 2, size=args[0], dtype=np.uint8)
    if kind == "random":
        return source.random(args[0])
    low, span, n = args
    return source.integers(span, size=n) if low is None else source.integers(low, low + span, size=n)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
    st.lists(row_calls, min_size=1, max_size=8),
    st.integers(0, 300),
)
def test_row_streams_equal_generator_calls_stacked(seeds, calls, ahead):
    # A read-ahead shorter than the calls take tops up in the middle of a draw.
    streams = RowStreams([np.random.PCG64(seed) for seed in seeds], ahead)
    reference = [np.random.default_rng(seed) for seed in seeds]
    for call in calls:
        got, want = _draw(streams, call), np.array([_draw(gen, call) for gen in reference])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    # A further draw takes any spare half each row holds, as Generator does.
    assert np.array_equal(streams.integers(0, 7, size=9), np.array([gen.integers(0, 7, size=9) for gen in reference]))


class _WordSource:
    """Stands in for a PCG64: hands out fixed 64-bit words, and has no state
    for RowStreams to read or write."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size=None):
        if size is None:
            return self.words.pop(0)
        drawn, self.words = self.words[:size], self.words[size:]
        return np.array(drawn, np.uint64)


def _lemire_bounded(next_uint32, span):
    """numpy's buffered_bounded_lemire_uint32 for rng = span - 1, transcribed."""
    rng = span - 1
    rng_excl = rng + 1
    m = next_uint32() * rng_excl
    leftover = m & 0xFFFFFFFF
    if leftover < rng_excl:
        threshold = (0xFFFFFFFF - rng) % rng_excl
        while leftover < threshold:
            m = next_uint32() * rng_excl
            leftover = m & 0xFFFFFFFF
    return m >> 32


def test_row_streams_lemire_rejection_redraws_like_numpy():
    # For span 3 the only rejected half word is 0 (2**32 % 3 == 1). Row 0's
    # first word is all zeros and its second has a zero low half; row 1 has none.
    extra = [int(w) for w in np.random.default_rng(5).integers(1, 2**63, size=12)]
    words = [[0, 7 << 32, *extra[:6]], extra[6:]]
    streams = RowStreams([_WordSource(row) for row in words])
    got = [streams.integers(3, size=5), streams.integers(0, 3, size=4), streams.integers(0, 2, size=5, dtype=np.uint8)]

    for r, row in enumerate(words):
        halves, taken = iter([half for word in row for half in (word & 0xFFFFFFFF, word >> 32)]), []

        def next_uint32():
            taken.append(next(halves))
            return taken[-1]

        first = [_lemire_bounded(next_uint32, 3) for _ in range(5)]
        second = [_lemire_bounded(next_uint32, 3) for _ in range(4)]
        third = [int(byte) >> 7 for byte in np.array([next_uint32(), next_uint32()], "<u4").view(np.uint8)[:5]]
        assert got[0][r].tolist() == first and got[1][r].tolist() == second and got[2][r].tolist() == third
        # Row 0 takes 14 halves, row 1 takes 11: only row 1 keeps the high half of its last word.
        assert len(taken) == (14, 11)[r]
        assert streams.pending[r] == (next(halves) if len(taken) % 2 else -1)


@pytest.mark.parametrize("ahead", [3, 12])
def test_row_streams_read_ahead_keeps_lemire_redraws(ahead):
    # The rows of the test above, padded, read ahead by fewer and by more
    # words than the draws take (11 and 9): rejected halves make row 0 read
    # alone, from its buffered words first.
    extra = [int(w) for w in np.random.default_rng(5).integers(1, 2**63, size=60)]
    words = [[0, 7 << 32, *extra[:28]], extra[30:]]
    draws = []
    for read_ahead in (0, ahead):
        streams = RowStreams([_WordSource(row) for row in words], read_ahead)
        draws.append([
            streams.integers(3, size=5), streams.integers(0, 3, size=4), streams.random(2),
            streams.integers(0, 2, size=5, dtype=np.uint8), streams.integers(0, 7, size=3), streams.pending,
        ])
    for unbuffered, buffered in zip(*draws):
        assert np.array_equal(unbuffered, buffered)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(1.0, 1.0)
    with pytest.raises(ValueError):
        PureState(complex("nan"), 0)
    with pytest.raises(ValueError):
        PureState(1, 0).phase_shifted(complex("nan"))
