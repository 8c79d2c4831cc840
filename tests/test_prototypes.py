"""Prototype construction, momentum, contrastive losses and the payload codec."""

import math

import numpy as np
import pytest

from fedspan.prototypes import (
    PayloadError,
    PrototypePayload,
    PrototypeSet,
    build_local_prototypes,
    decode_payload,
    encode_payload,
    make_payload,
    momentum_update,
    safe_cosine,
)

from reference_prototypes import align_loss, payload_from_json, payload_to_json, proto_loss, sep_loss


def proto_set(dim, mapping, round_index=0):
    return PrototypeSet(dim, {c: np.asarray(v, dtype=np.float64) for c, v in mapping.items()}, round_index)


class TestBuildLocalPrototypes:
    def test_singleton_class(self):
        reps = np.array([[0.5, -1.0]])
        protos = build_local_prototypes(reps, np.array([3]))
        assert protos.vectors[3] == pytest.approx([0.5, -1.0])
        assert protos.classes() == [3]

    def test_symmetric_pair_cancels(self):
        reps = np.array([[1.0, 2.0], [-1.0, -2.0]])
        protos = build_local_prototypes(reps, np.array([0, 0]))
        assert protos.vectors[0] == pytest.approx([0.0, 0.0])

    def test_hand_mean(self):
        reps = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        protos = build_local_prototypes(reps, np.array([5, 5, 5]))
        assert protos.vectors[5] == pytest.approx([2 / 3, 2 / 3])

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
            assert protos.classes() == sorted(sums)
            for cls in sums:
                assert protos.vectors[cls] == pytest.approx(sums[cls] / counts[cls])

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
        assert out.vectors[0] == pytest.approx([1.0, 2.0])

    def test_momentum_zero_takes_batch(self):
        prev = proto_set(2, {0: [1.0, 2.0]})
        batch = proto_set(2, {0: [5.0, 5.0]})
        out = momentum_update(prev, batch, 0.0)
        assert out.vectors[0] == pytest.approx([5.0, 5.0])

    def test_point_nine_blend(self):
        prev = proto_set(2, {4: [1.0, 1.0]})
        batch = proto_set(2, {4: [0.0, 0.0]})
        out = momentum_update(prev, batch, 0.9)
        assert out.vectors[4] == pytest.approx([0.9, 0.9])

    def test_carry_forward_and_adopt(self):
        prev = proto_set(2, {0: [1.0, 0.0]})
        batch = proto_set(2, {1: [0.0, 1.0]})
        out = momentum_update(prev, batch, 0.5)
        assert out.vectors[0] == pytest.approx([1.0, 0.0])
        assert out.vectors[1] == pytest.approx([0.0, 1.0])

    def test_convex_combination_property(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            prev = proto_set(3, {0: rng.normal(size=3)})
            batch = proto_set(3, {0: rng.normal(size=3)})
            beta = float(rng.random())
            out = momentum_update(prev, batch, beta)
            lo = np.minimum(prev.vectors[0], batch.vectors[0])
            hi = np.maximum(prev.vectors[0], batch.vectors[0])
            assert np.all(out.vectors[0] >= lo - 1e-12)
            assert np.all(out.vectors[0] <= hi + 1e-12)

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
            assert align_loss(c * rep, protos.vectors[0]) == pytest.approx(
                align_loss(rep, protos.vectors[0]), abs=1e-6
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
            dim,
            {int(c): rng.normal(size=dim).astype(np.float32) for c in classes},
            round_index,
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
            assert decoded.prototypes.classes() == payload.prototypes.classes()
            for c in payload.prototypes.classes():
                assert np.array_equal(decoded.prototypes.vectors[c], payload.prototypes.vectors[c])

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
        for c in payload.prototypes.classes():
            assert decoded.prototypes.vectors[c] == pytest.approx(payload.prototypes.vectors[c])

    def test_as_arrays_layout(self):
        protos = proto_set(3, {2: [1.0, 0.0, 0.0], 7: [0.0, 1.0, 0.0]})
        matrix, present = protos.as_arrays()
        assert matrix.shape == (16, 3)
        assert present[2] and present[7] and present.sum() == 2
        assert matrix[2] == pytest.approx([1.0, 0.0, 0.0])
        assert matrix[0] == pytest.approx([0.0, 0.0, 0.0])
