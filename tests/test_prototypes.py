"""Prototype construction, momentum, contrastive losses and the payload codec."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedspan.prototypes import (
    PayloadError,
    PrototypePayload,
    PrototypeSet,
    build_local_prototypes,
    decode_payload,
    encode_payload,
    make_payload,
    momentum_update,
    smooth_prototypes,
)
from fedspan.tagging import NUM_CLASSES

from reference_prototypes import (
    align_loss,
    classes_of,
    payload_from_json,
    payload_to_json,
    proto_loss,
    reference_build,
    reference_momentum,
    replay_local_prototypes,
    safe_cosine,
    sep_loss,
)


def proto_set(dim, mapping):
    return PrototypeSet(dim, {c: np.asarray(v, dtype=np.float64) for c, v in mapping.items()})


def matrix_set(dim, mapping, dtype):
    """A set of exactly ``dtype``, the empty set included."""
    matrix = np.zeros((NUM_CLASSES, dim), dtype=dtype)
    present = np.zeros(NUM_CLASSES, dtype=bool)
    for c, vec in mapping.items():
        matrix[c], present[c] = vec, True
    return PrototypeSet.from_arrays(matrix, present)


def same_bits(a, b):
    """Equal dtype, shape and bytes, so +0.0 and -0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_dict(protos, expected, dtype):
    assert protos.matrix.dtype == dtype
    assert classes_of(protos) == sorted(expected)
    for c, vec in expected.items():
        assert same_bits(protos.matrix[c], vec), c
    absent = protos.matrix[~protos.present]
    assert same_bits(absent, np.zeros_like(absent))


def entries(dtype):
    """Finite values of ``dtype``, exact signed zeros drawn often."""
    width = 8 * np.dtype(dtype).itemsize
    return st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6, width=width)


DTYPES = st.sampled_from([np.float32, np.float64])
CLASS_IDS = st.integers(0, NUM_CLASSES - 1)


@st.composite
def rep_batches(draw):
    dtype = draw(DTYPES)
    n = draw(st.integers(1, 40))
    # From dim 2 up, ``.mean(axis=0)`` adds rows in sequence, as the build
    # does. At dim 1 numpy reduces the (n, 1) array as one contiguous run
    # and sums it pairwise, so the oracle's last bits differ there.
    dim = draw(st.integers(2, 5))
    labels = st.just(draw(CLASS_IDS)) if draw(st.booleans()) else CLASS_IDS
    classes = draw(hnp.arrays(np.int64, n, elements=labels))
    if draw(st.booleans()):
        reps = draw(hnp.arrays(dtype, (n, dim), elements=entries(dtype)))
    else:  # full mantissas, so a changed summation order shows
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        reps = rng.normal(size=(n, dim)).astype(dtype)
    return reps, classes


@st.composite
def class_dicts(draw, dtype, dim):
    classes = draw(st.sets(CLASS_IDS, max_size=6))
    return {c: draw(hnp.arrays(dtype, dim, elements=entries(dtype))) for c in sorted(classes)}


class TestPrototypeSet:
    def test_mapping_constructor_layout(self):
        protos = proto_set(3, {2: [1.0, 0.0, 0.0], 7: [0.0, 1.0, 0.0]})
        assert protos.matrix.shape == (16, 3)
        assert protos.dim == 3
        assert protos.present[2] and protos.present[7] and protos.present.sum() == 2
        assert protos.matrix[2] == pytest.approx([1.0, 0.0, 0.0])
        assert protos.matrix[0] == pytest.approx([0.0, 0.0, 0.0])
        assert protos.float_count() == 6

    def test_mapping_constructor_keeps_dtype(self):
        assert PrototypeSet(2, {0: np.ones(2, dtype=np.float32)}).matrix.dtype == np.float32
        assert PrototypeSet(2, {0: np.ones(2)}).matrix.dtype == np.float64
        assert PrototypeSet(2).matrix.dtype == np.float64
        assert PrototypeSet(2).float_count() == 0

    def test_mapping_constructor_rejects_bad_input(self):
        with pytest.raises(ValueError):
            PrototypeSet(2, {16: np.ones(2)})
        with pytest.raises(ValueError):
            PrototypeSet(2, {0: np.ones(3)})

    def test_from_arrays_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            PrototypeSet.from_arrays(np.zeros((15, 2)), np.zeros(15, dtype=bool))
        with pytest.raises(ValueError):
            PrototypeSet.from_arrays(np.zeros(16), np.zeros(16, dtype=bool))


class TestMatchesDictOracle:
    """The array build and momentum equal the dict implementations bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(rep_batches())
    def test_build(self, batch):
        reps, classes = batch
        protos = build_local_prototypes(reps, classes)
        assert_matches_dict(protos, reference_build(reps, classes), reps.dtype)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_momentum(self, data):
        dtype = data.draw(DTYPES)
        dim = data.draw(st.integers(1, 4))
        previous = data.draw(class_dicts(dtype, dim))
        batch = data.draw(class_dicts(dtype, dim))
        momentum = data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
        out = momentum_update(matrix_set(dim, previous, dtype), matrix_set(dim, batch, dtype), momentum)
        assert_matches_dict(out, reference_momentum(previous, batch, momentum), dtype)


class TestSmoothPrototypes:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_batch_replay(self, data):
        """An epoch's batches in one call give the bits of one build and
        momentum step per batch, batches without rows skipped, and leave
        the previous set's arrays as they were."""
        dtype = data.draw(DTYPES)
        dim = data.draw(st.integers(1, 4))
        previous = matrix_set(dim, data.draw(class_dicts(dtype, dim)), dtype)
        before = previous.matrix.tobytes(), previous.present.tobytes()
        batches = []
        for n in data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=6)):
            reps = data.draw(hnp.arrays(dtype, (n, dim), elements=entries(dtype)))
            batches.append((reps, data.draw(hnp.arrays(np.int64, n, elements=CLASS_IDS))))
        momentum = data.draw(st.sampled_from([0.0, 0.9, 1.0]) | st.floats(0.0, 1.0))
        got = smooth_prototypes(previous, *zip(*batches), momentum)
        assert (previous.matrix.tobytes(), previous.present.tobytes()) == before
        want = replay_local_prototypes(previous, batches, momentum)
        assert same_bits(got.matrix, want.matrix)
        assert np.array_equal(got.present, want.present)


class TestBuildLocalPrototypes:
    def test_singleton_class(self):
        reps = np.array([[0.5, -1.0]])
        protos = build_local_prototypes(reps, np.array([3]))
        assert protos.matrix[3] == pytest.approx([0.5, -1.0])
        assert classes_of(protos) == [3]

    def test_symmetric_pair_cancels(self):
        reps = np.array([[1.0, 2.0], [-1.0, -2.0]])
        protos = build_local_prototypes(reps, np.array([0, 0]))
        assert protos.matrix[0] == pytest.approx([0.0, 0.0])

    def test_hand_mean(self):
        reps = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        protos = build_local_prototypes(reps, np.array([5, 5, 5]))
        assert protos.matrix[5] == pytest.approx([2 / 3, 2 / 3])

    def test_matches_group_by_mean_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            reps = rng.normal(size=(n, 4))
            classes = rng.integers(0, 16, n)
            protos = build_local_prototypes(reps, classes)
            # Oracle: naive per-class accumulation.
            sums, counts = {}, {}
            for rep, cls in zip(reps, classes):
                sums[int(cls)] = sums.get(int(cls), np.zeros(4)) + rep
                counts[int(cls)] = counts.get(int(cls), 0) + 1
            assert classes_of(protos) == sorted(sums)
            for cls in sums:
                assert protos.matrix[cls] == pytest.approx(sums[cls] / counts[cls])

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            build_local_prototypes(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            build_local_prototypes(np.zeros((1, 3)), np.array([16]))


class TestMomentumUpdate:
    def test_momentum_one_keeps_previous(self):
        prev = proto_set(2, {0: [1.0, 2.0]})
        batch = proto_set(2, {0: [5.0, 5.0]})
        out = momentum_update(prev, batch, 1.0)
        assert out.matrix[0] == pytest.approx([1.0, 2.0])

    def test_momentum_zero_takes_batch(self):
        prev = proto_set(2, {0: [1.0, 2.0]})
        batch = proto_set(2, {0: [5.0, 5.0]})
        out = momentum_update(prev, batch, 0.0)
        assert out.matrix[0] == pytest.approx([5.0, 5.0])

    def test_point_nine_blend(self):
        prev = proto_set(2, {4: [1.0, 1.0]})
        batch = proto_set(2, {4: [0.0, 0.0]})
        out = momentum_update(prev, batch, 0.9)
        assert out.matrix[4] == pytest.approx([0.9, 0.9])

    def test_carry_forward_and_adopt(self):
        prev = proto_set(2, {0: [1.0, 0.0]})
        batch = proto_set(2, {1: [0.0, 1.0]})
        out = momentum_update(prev, batch, 0.5)
        assert out.matrix[0] == pytest.approx([1.0, 0.0])
        assert out.matrix[1] == pytest.approx([0.0, 1.0])

    def test_convex_combination_property(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            prev = proto_set(3, {0: rng.normal(size=3)})
            batch = proto_set(3, {0: rng.normal(size=3)})
            beta = float(rng.random())
            out = momentum_update(prev, batch, beta)
            lo = np.minimum(prev.matrix[0], batch.matrix[0])
            hi = np.maximum(prev.matrix[0], batch.matrix[0])
            assert np.all(out.matrix[0] >= lo - 1e-12)
            assert np.all(out.matrix[0] <= hi + 1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            momentum_update(proto_set(2, {}), proto_set(3, {}), 0.5)


class TestContrastiveLosses:
    def test_align_identical_vectors(self):
        v = np.array([0.3, -0.7])
        assert align_loss(v, v) == pytest.approx(-1.0)

    def test_align_orthogonal(self):
        assert align_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_align_hand_cosine(self):
        value = align_loss(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert value == pytest.approx(-1.0 / math.sqrt(2.0))

    def test_align_zero_norm_is_zero(self):
        assert align_loss(np.zeros(2), np.array([1.0, 0.0])) == 0.0
        assert safe_cosine(np.array([1.0, 0.0]), np.zeros(2)) == 0.0

    def test_sep_single_orthogonal_class(self):
        protos = proto_set(2, {0: [1.0, 0.0], 1: [0.0, 1.0]})
        assert sep_loss(np.array([0.0, 2.0]), protos, 1) == pytest.approx(0.0)

    def test_sep_fifteen_orthogonal_classes(self):
        vecs = {c: np.eye(16)[c] for c in range(16)}
        protos = PrototypeSet(16, {c: v for c, v in vecs.items()})
        rep = np.zeros(16)
        rep[0] = 1.0
        assert sep_loss(rep, protos, 0) == pytest.approx(math.log(15.0))

    def test_sep_hand_arithmetic(self):
        protos = proto_set(2, {0: [1.0, 0.0], 1: [1.0, 0.0], 2: [-1.0, 0.0]})
        value = sep_loss(np.array([1.0, 0.0]), protos, 0)
        assert value == pytest.approx(math.log(math.e + math.exp(-1.0)))

    def test_sep_no_other_classes(self):
        protos = proto_set(2, {3: [1.0, 0.0]})
        assert sep_loss(np.array([1.0, 0.0]), protos, 3) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        protos = proto_set(4, {c: rng.normal(size=4) for c in range(5)})
        rep = rng.normal(size=4)
        for c in (0.1, 10.0):
            assert align_loss(c * rep, protos.matrix[0]) == pytest.approx(
                align_loss(rep, protos.matrix[0]), abs=1e-6
            )
            assert sep_loss(c * rep, protos, 0) == pytest.approx(
                sep_loss(rep, protos, 0), abs=1e-6
            )

    def test_sep_bounds(self):
        rng = np.random.default_rng(8)
        protos = proto_set(3, {c: rng.normal(size=3) for c in range(6)})
        rep = rng.normal(size=3)
        m = 5  # other present classes
        value = sep_loss(rep, protos, 0)
        assert math.log(m * math.exp(-1.0)) - 1e-9 <= value <= math.log(m * math.e) + 1e-9

    def test_proto_loss_combination(self):
        protos = proto_set(2, {0: [1.0, 0.0], 1: [0.0, 1.0]})
        reps = np.array([[1.0, 0.0]])
        labels = np.array([0])
        # align = -1, sep = log(e^0) = 0 for the single other class.
        assert proto_loss(reps, labels, protos, 1.0, 1.0) == pytest.approx(-1.0)
        assert proto_loss(reps, labels, protos, 0.0, 0.0) == 0.0

    def test_proto_loss_batch_mean(self):
        protos = proto_set(2, {0: [1.0, 0.0], 1: [0.0, 1.0]})
        reps = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 0])
        single = [
            proto_loss(reps[i : i + 1], labels[i : i + 1], protos, 0.5, 0.25) for i in range(2)
        ]
        assert proto_loss(reps, labels, protos, 0.5, 0.25) == pytest.approx(np.mean(single))


class TestPayloadCodec:
    def random_payload(self, rng, dim=5, round_index=3):
        classes = rng.choice(16, size=rng.integers(1, 16), replace=False)
        protos = PrototypeSet(
            dim, {int(c): rng.normal(size=dim).astype(np.float32) for c in classes}
        )
        return make_payload(int(rng.integers(0, 100)), round_index, float(rng.random()), protos)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            payload = self.random_payload(rng)
            decoded = decode_payload(encode_payload(payload))
            assert decoded.client_id == payload.client_id
            assert decoded.round_index == payload.round_index
            assert decoded.val_f1 == payload.val_f1
            assert decoded.prototypes.dim == payload.prototypes.dim
            assert classes_of(decoded.prototypes) == classes_of(payload.prototypes)
            for c in classes_of(payload.prototypes):
                assert np.array_equal(decoded.prototypes.matrix[c], payload.prototypes.matrix[c])

    def test_payload_float_arithmetic(self):
        protos = PrototypeSet(200, {c: np.zeros(200, dtype=np.float32) for c in range(16)})
        payload = make_payload(0, 1, 0.5, protos)
        assert payload.float_count() == 3200
        blob = encode_payload(payload)
        # header + per class: 1 tag byte + 200 little-endian float32.
        assert len(blob) == 22 + 16 * (1 + 800)

    def test_truncated_stream_rejected(self):
        rng = np.random.default_rng(3)
        blob = encode_payload(self.random_payload(rng))
        with pytest.raises(PayloadError):
            decode_payload(blob[:-3])
        with pytest.raises(PayloadError):
            decode_payload(blob[:6])

    def test_bad_magic_and_version(self):
        rng = np.random.default_rng(4)
        blob = bytearray(encode_payload(self.random_payload(rng)))
        bad_magic = bytes(b"XXXX") + bytes(blob[4:])
        with pytest.raises(PayloadError):
            decode_payload(bad_magic)
        blob[4] = 99  # version little-endian low byte
        with pytest.raises(PayloadError):
            decode_payload(bytes(blob))

    def test_non_finite_rejected(self):
        protos = PrototypeSet(2, {0: np.array([np.inf, 0.0], dtype=np.float32)})
        payload = PrototypePayload(0, 0, 0.5, protos)
        with pytest.raises(PayloadError):
            encode_payload(payload)

    def test_bad_f1_rejected(self):
        protos = PrototypeSet(2, {0: np.zeros(2, dtype=np.float32)})
        with pytest.raises(PayloadError):
            make_payload(0, 0, 1.5, protos)

    def test_json_mirror_round_trip(self):
        rng = np.random.default_rng(23)
        payload = self.random_payload(rng)
        decoded = payload_from_json(payload_to_json(payload))
        assert decoded.client_id == payload.client_id
        for c in classes_of(payload.prototypes):
            assert decoded.prototypes.matrix[c] == pytest.approx(payload.prototypes.matrix[c])


HEADER_SIZE = 22


@st.composite
def encoded_payloads(draw, min_classes=1):
    """A valid blob, its row width and its number of entries."""
    dim = draw(st.integers(1, 4))
    classes = draw(st.lists(CLASS_IDS, min_size=min_classes, max_size=NUM_CLASSES, unique=True))
    rows = {c: draw(hnp.arrays(np.float32, dim, elements=entries(np.float32))) for c in classes}
    payload = make_payload(draw(st.integers(0, 2**32 - 1)), 1, 0.5, PrototypeSet(dim, rows))
    return bytearray(encode_payload(payload)), dim, len(classes)


def class_offset(dim, entry):
    return HEADER_SIZE + entry * (1 + 4 * dim)


class TestCodecFuzz:
    """The structured-dtype decoder rejects every malformed blob."""

    @settings(max_examples=100, deadline=None)
    @given(encoded_payloads(min_classes=0))
    def test_round_trip_is_bitwise(self, encoded):
        blob, dim, n = encoded
        decoded = decode_payload(bytes(blob))
        assert decoded.prototypes.dim == dim and decoded.prototypes.present.sum() == n
        assert encode_payload(decoded) == bytes(blob)

    @settings(max_examples=100, deadline=None)
    @given(encoded_payloads(), st.data())
    def test_truncated(self, encoded, data):
        blob, _, _ = encoded
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(PayloadError, match="truncated|expected"):
            decode_payload(bytes(blob[:cut]))

    @settings(max_examples=100, deadline=None)
    @given(encoded_payloads(), st.data())
    def test_class_out_of_range(self, encoded, data):
        blob, dim, n = encoded
        entry = data.draw(st.integers(0, n - 1))
        blob[class_offset(dim, entry)] = data.draw(st.integers(NUM_CLASSES, 255))
        with pytest.raises(PayloadError, match="out of range"):
            decode_payload(bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(encoded_payloads(min_classes=2), st.data())
    def test_duplicate_class(self, encoded, data):
        blob, dim, n = encoded
        src, dst = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        blob[class_offset(dim, dst)] = blob[class_offset(dim, src)]
        with pytest.raises(PayloadError, match="duplicate class"):
            decode_payload(bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(encoded_payloads(), st.data())
    def test_non_finite_row(self, encoded, data):
        blob, dim, n = encoded
        entry = data.draw(st.integers(0, n - 1))
        at = class_offset(dim, entry) + 1 + 4 * data.draw(st.integers(0, dim - 1))
        struct.pack_into("<f", blob, at, data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        with pytest.raises(PayloadError, match="non-finite"):
            decode_payload(bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(encoded_payloads(min_classes=0), st.data())
    def test_wrong_length(self, encoded, data):
        blob, dim, n = encoded
        if data.draw(st.booleans()):
            blob += bytes(data.draw(st.integers(1, 2 * (1 + 4 * dim))))
        else:
            count = data.draw(st.integers(0, 2**16 - 1).filter(lambda c: c != n))
            struct.pack_into("<H", blob, HEADER_SIZE - 4, count)
        with pytest.raises(PayloadError, match="expected"):
            decode_payload(bytes(blob))
