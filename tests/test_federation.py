"""Aggregation math, round orchestration, the ledger and client/server flow."""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedspan.model as model_module
from fedspan.config import ExperimentConfig
from fedspan.corpus import Corpus, parse_corpus
from fedspan.encoder import EncoderConfig, TrainingDivergedError
from fedspan.federation import (
    REFERENCE_FULL_MODEL_FLOATS,
    ClientState,
    Server,
    _client_weights,
    check_corpora,
    client_round,
    comm_ledger,
    prototype_similarity,
    run_federated,
)
from fedspan.model import SpanTagger
from fedspan.prototypes import PayloadError, PrototypeSet, encode_payload, make_payload
from fedspan.synth import default_synth_config, generate_synthetic
from fedspan.tagging import NUM_CLASSES

from conftest import OVERFIT_FIXTURE
from reference_gradients import reference_adam_step
from reference_prototypes import classes_of, reference_aggregate, reference_similarity


def payload(client_id, f1, mapping, dim=2, round_index=1):
    protos = PrototypeSet(dim, {c: np.asarray(v, dtype=np.float32) for c, v in mapping.items()})
    return make_payload(client_id, round_index, f1, protos)


def aggregate(pays, mode, round_index=1):
    """The global prototypes a new ``Server`` aggregates from ``pays``' blobs."""
    return Server(mode).receive_and_aggregate([encode_payload(p) for p in pays], round_index)


def blob_with_f1(client_id, f1):
    """A payload blob whose header carries ``f1``, which ``make_payload`` refuses to build."""
    blob = bytearray(encode_payload(payload(client_id, 0.5, {1: [1.0, 0.0]})))
    struct.pack_into("<f", blob, 14, f1)  # after magic, version, client and round
    return bytes(blob)


class TestAggregationWeights:
    """Client weights from F1 scores; a score outside [0, 1] is refused by
    the payload it arrives in, before the server weights it."""

    def test_equal_scores(self):
        assert _client_weights([0.5, 0.5], "f1_weighted") == [0.5, 0.5]

    def test_normalization_exact(self):
        weights = _client_weights([0.6, 0.2, 0.2], "f1_weighted")
        assert weights == [0.6, 0.2, 0.2]
        assert math.fsum(weights) == 1.0

    def test_zero_scores_fall_back_to_uniform(self):
        assert _client_weights([0.0, 0.0], "f1_weighted") == [0.5, 0.5]

    def test_uniform_ignores_scores(self):
        assert _client_weights([0.9, 0.1], "uniform") == [0.5, 0.5]

    def test_negative_score_rejected(self):
        with pytest.raises(PayloadError, match="validation F1 out of range: -0.1"):
            Server("f1_weighted").receive_and_aggregate([blob_with_f1(0, -0.1), blob_with_f1(1, 0.5)], 1)

    def test_score_above_one_rejected(self):
        with pytest.raises(PayloadError, match="validation F1 out of range: 1.2"):
            Server("uniform").receive_and_aggregate([blob_with_f1(0, 1.2)], 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no payloads to aggregate"):
            Server("uniform").receive_and_aggregate([], 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", ["f1_weighted", "uniform"])
    def test_non_finite_score_rejected(self, bad, mode):
        server = Server(mode)
        with pytest.raises(PayloadError, match=f"validation F1 out of range: {bad}"):
            server.receive_and_aggregate([blob_with_f1(0, bad), blob_with_f1(1, 0.5)], 1)
        assert server.global_prototypes is None

    def test_equal_scores_bitwise_match_uniform(self):
        for k, score in ((3, 0.3), (4, 0.7), (7, 0.123)):
            weighted = _client_weights([score] * k, "f1_weighted")
            uniform = _client_weights([score] * k, "uniform")
            assert weighted == uniform

    def test_weights_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.random(int(rng.integers(1, 8))).tolist()
            for mode in ("uniform", "f1_weighted"):
                weights = _client_weights(scores, mode)
                assert abs(sum(weights) - 1.0) <= 1e-12
                assert all(w >= 0 for w in weights)


class TestAggregateGlobal:
    """The global prototypes, aggregated by the ``Server`` from payload blobs."""

    def test_single_client_identity(self):
        p = payload(0, 0.8, {1: [1.0, 2.0], 3: [0.5, 0.5]})
        out = aggregate([p], "f1_weighted")
        assert classes_of(out) == [1, 3]
        assert out.matrix[1] == pytest.approx([1.0, 2.0])

    def test_two_clients_equal_weights_average(self):
        a = payload(0, 0.5, {2: [1.0, 0.0]})
        b = payload(1, 0.5, {2: [0.0, 1.0]})
        out = aggregate([a, b], "f1_weighted")
        assert out.matrix[2] == pytest.approx([0.5, 0.5])

    def test_three_clients_weighted_sum(self):
        pays = [
            payload(0, 0.6, {2: [1.0, 1.0]}),
            payload(1, 0.2, {2: [0.0, 0.0]}),
            payload(2, 0.2, {2: [0.0, 0.0]}),
        ]
        out = aggregate(pays, "f1_weighted")
        assert out.matrix[2] == pytest.approx([0.6, 0.6])

    def test_missing_class_renormalizes(self):
        pays = [
            payload(0, 0.6, {1: [1.0, 0.0]}),
            payload(1, 0.2, {1: [0.0, 1.0], 5: [2.0, 2.0]}),
            payload(2, 0.2, {5: [0.0, 0.0]}),
        ]
        out = aggregate(pays, "f1_weighted")
        assert out.matrix[1] == pytest.approx([0.75, 0.25])  # 0.6/0.8, 0.2/0.8
        assert out.matrix[5] == pytest.approx([1.0, 1.0])  # equal renormalized halves

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([payload(0, 0.5, {1: [1.0, 0.0]}), payload(1, 0.5, {1: [1.0]}, dim=1)], "uniform")

    @pytest.mark.parametrize("dims", [(1, 2, 2, 2), (2, 2, 2, 1)])
    def test_width_mismatch_lists_every_client(self, dims):
        """A prototype width that differs is a ``PayloadError`` listing each
        client's width, whichever client is the odd one out."""
        blobs = [encode_payload(payload(cid, 0.5, {1: [1.0] * dim}, dim=dim)) for cid, dim in enumerate(dims)]
        listed = ", ".join(f"client {cid} dim {dim}" for cid, dim in enumerate(dims))
        with pytest.raises(PayloadError, match=re.escape(f"prototype widths differ: {listed}")):
            Server("uniform").receive_and_aggregate(blobs, 1)

    def test_round_mismatch_rejected(self):
        a = payload(0, 0.5, {1: [1.0, 0.0]}, round_index=1)
        b = payload(1, 0.5, {1: [1.0, 0.0]}, round_index=2)
        with pytest.raises(PayloadError, match="client 1 payload is for round 2, expected 1"):
            aggregate([a, b], "uniform", round_index=1)

    def test_repeated_client_rejected(self):
        pays = [payload(cid, 0.5, {1: [1.0, 0.0]}) for cid in (3, 1, 3)]
        with pytest.raises(PayloadError, match="client 3 sent more than one payload"):
            aggregate(pays, "f1_weighted")

    def test_equal_f1_matches_uniform_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pays = []
            for cid in range(4):
                classes = rng.choice(8, size=int(rng.integers(1, 8)), replace=False)
                pays.append(
                    payload(cid, 0.37, {int(c): rng.normal(size=3).astype(np.float32) for c in classes}, dim=3)
                )
            weighted = aggregate(pays, "f1_weighted")
            uniform = aggregate(pays, "uniform")
            assert classes_of(weighted) == classes_of(uniform)
            for c in classes_of(weighted):
                assert np.array_equal(weighted.matrix[c], uniform.matrix[c])

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            pays = []
            for cid in range(k):
                classes = rng.choice(16, size=int(rng.integers(1, 6)), replace=False)
                pays.append(
                    payload(
                        cid,
                        float(rng.random()),
                        {int(c): rng.normal(size=2).astype(np.float32) for c in classes},
                    )
                )
            mode = ("uniform", "f1_weighted")[int(rng.integers(2))]
            out = aggregate(pays, mode)
            for c in classes_of(out):
                contrib = np.array(
                    [p.prototypes.matrix[c] for p in pays if p.prototypes.present[c]]
                )
                lo = contrib.min(axis=0) - 1e-9
                hi = contrib.max(axis=0) + 1e-9
                assert np.all(out.matrix[c] >= lo) and np.all(out.matrix[c] <= hi)


@st.composite
def client_payloads(draw, max_clients=5):
    """Float32 payloads from distinct clients in shuffled order: signed zeros,
    all-zero rows, absent classes, and F1 0 (zero-weight reporters) included."""
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=max_clients, unique=True))
    values = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3, width=32)
    # Gaussian rows keep full mantissas, so a changed summation order shows.
    gaussian = st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).normal(size=dim).astype(np.float32)
    )
    rows = (
        hnp.arrays(np.float32, dim, elements=values)
        | gaussian
        | st.just(np.zeros(dim, np.float32))
    )
    scores = st.sampled_from([0.0, 0.37, 1.0]) | st.floats(0.0, 1.0)
    out = []
    for cid in ids:
        classes = draw(st.sets(st.integers(0, NUM_CLASSES - 1), max_size=6))
        protos = PrototypeSet(dim, {c: draw(rows) for c in sorted(classes)})
        out.append(make_payload(cid, 1, draw(scores), protos))
    return out


@st.composite
def disjoint_payloads(draw):
    """Float32 payloads of 2 to 5 clients, in shuffled id order, each class
    reported by one client at most; F1 0 included."""
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(0, 1000), min_size=2, max_size=5, unique=True))
    owners = draw(st.lists(st.integers(-1, len(ids) - 1), min_size=NUM_CLASSES, max_size=NUM_CLASSES))
    rows = hnp.arrays(np.float32, dim, elements=st.floats(-1e3, 1e3, width=32))
    scores = st.sampled_from([0.0, 0.37, 1.0]) | st.floats(0.0, 1.0)
    return [
        make_payload(cid, 1, draw(scores), PrototypeSet(dim, {c: draw(rows) for c, k in enumerate(owners) if k == i}))
        for i, cid in enumerate(ids)
    ]


@settings(max_examples=200, deadline=None)
@given(disjoint_payloads())
def test_disjoint_classes_aggregate_to_their_one_reporter(pays):
    """With F1 weighting, a class one client reports is that client's
    prototype in float64 (equal in value: a -0.0 sums to 0.0), and its
    class weights are 1 for that client and 0 for the rest."""
    server = Server("f1_weighted")
    out = server.receive_and_aggregate([encode_payload(p) for p in pays], 1)
    assert out.matrix.dtype == np.float64
    rows = sorted(pays, key=lambda p: p.client_id)
    for c in range(NUM_CLASSES):
        reporters = [i for i, p in enumerate(rows) if p.prototypes.present[c]]
        assert out.present[c] == bool(reporters)
        want = np.zeros(len(rows))
        if reporters:
            [i] = reporters
            want[i] = 1.0
            assert np.array_equal(out.matrix[c], rows[i].prototypes.matrix[c].astype(np.float64))
        else:
            assert not out.matrix[c].any()
        assert server.last_class_weights[:, c].tolist() == want.tolist()


class TestMatchesPerClassOracle:
    @settings(max_examples=200, deadline=None)
    @given(client_payloads(), st.sampled_from(["uniform", "f1_weighted"]))
    def test_aggregate_bitwise(self, pays, mode):
        server = Server(mode)
        out = server.receive_and_aggregate([encode_payload(p) for p in pays], 1)
        expected, expected_weights = reference_aggregate(pays, mode)
        assert out.matrix.dtype == np.float64
        assert classes_of(out) == sorted(expected)
        for c, vec in expected.items():
            assert out.matrix[c].tobytes() == vec.tobytes()
        assert not out.matrix[~out.present].any()
        rows = {cid: i for i, cid in enumerate(sorted(p.client_id for p in pays))}
        weights = np.zeros((len(pays), NUM_CLASSES))
        for c, entries in expected_weights.items():
            for cid, w in entries:
                weights[rows[cid], c] = w
        assert server.last_class_weights.tobytes() == weights.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(client_payloads(max_clients=4))
    def test_similarity_within_1e12(self, pays):
        try:
            expected = reference_similarity(pays)
        except ValueError:
            with pytest.raises(ValueError, match="share no classes"):
                prototype_similarity(pays)
            return
        assert np.abs(prototype_similarity(pays) - expected).max() <= 1e-12


class TestPrototypeSimilarity:
    def test_identical_payloads_all_ones(self):
        p = payload(0, 0.5, {1: [1.0, 0.0], 2: [0.0, 2.0]})
        q = payload(1, 0.5, {1: [1.0, 0.0], 2: [0.0, 2.0]})
        matrix = prototype_similarity([p, q])
        assert matrix == pytest.approx(np.ones((2, 2)))

    def test_negated_vectors(self):
        p = payload(0, 0.5, {1: [1.0, 0.0]})
        q = payload(1, 0.5, {1: [-1.0, 0.0]})
        matrix = prototype_similarity([p, q])
        assert matrix[0, 1] == pytest.approx(-1.0)
        assert matrix[0, 0] == 1.0

    def test_hand_mean_cosine(self):
        p = payload(0, 0.5, {0: [1.0, 0.0], 1: [0.0, 1.0]})
        q = payload(1, 0.5, {0: [1.0, 0.0], 1: [1.0, 1.0]})
        matrix = prototype_similarity([p, q])
        expected = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
        assert matrix[0, 1] == pytest.approx(expected)
        assert matrix[1, 0] == pytest.approx(expected)

    def test_no_shared_classes_error(self):
        p = payload(0, 0.5, {0: [1.0, 0.0]})
        q = payload(1, 0.5, {1: [1.0, 0.0]})
        with pytest.raises(ValueError):
            prototype_similarity([p, q])


class TestCommLedger:
    def config(self, **kw):
        return ExperimentConfig(**kw)

    def test_reference_arithmetic_at_dim_200(self):
        report = comm_ledger(self.config(rep_dim=200))
        assert report["prototype_floats"] == 3200
        assert report["classifier_floats"] == 3216
        assert report["reference_full_model_floats"] == 110_298_760
        assert report["reference_to_prototype_ratio"] >= 3e4

    def test_small_dim(self):
        report = comm_ledger(self.config(rep_dim=16))
        assert report["prototype_floats"] == 256

    def test_full_model_matches_encoder_count(self):
        config = self.config()
        report = comm_ledger(config)
        encoder = EncoderConfig(
            vocab_size=config.vocab_size,
            embed_dim=config.embed_dim,
            hidden_dim=config.hidden_dim,
            rep_dim=config.rep_dim,
        )
        assert report["full_model_floats"] == encoder.param_count()

    def test_per_round_totals_from_records(self):
        records = [
            {"round": 1, "uploaded_floats": 10, "downloaded_floats": 0},
            {"round": 1, "uploaded_floats": 12, "downloaded_floats": 0},
            {"round": 2, "uploaded_floats": 10, "downloaded_floats": 14},
        ]
        report = comm_ledger(self.config(), records)
        assert report["per_round"] == [
            {"round": 1, "uploaded_floats": 22, "downloaded_floats": 0},
            {"round": 2, "uploaded_floats": 10, "downloaded_floats": 14},
        ]
        assert report["total_uploaded_floats"] == 32


def overfit_corpus(name="fixture"):
    sentences = parse_corpus(OVERFIT_FIXTURE)
    return Corpus(name, list(sentences), list(sentences), list(sentences))


def tiny_config(**kw):
    defaults = dict(
        rounds=2,
        local_epochs=1,
        embed_dim=12,
        hidden_dim=12,
        rep_dim=8,
        vocab_size=256,
        track_test_matrix=False,
        seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_corpora():
    synth = default_synth_config()
    synth.train_size, synth.val_size, synth.test_size = 24, 8, 8
    return generate_synthetic(synth, 3)


class TestClientRound:
    def test_round_one_matches_plain_training(self):
        corpus = overfit_corpus()
        config = tiny_config()
        state = ClientState(0, corpus, SpanTagger(**config.model_kwargs((5, 0))))
        client_round(state, None, 1, config)
        solo = SpanTagger(**config.model_kwargs((5, 0)))
        solo.partial_fit(corpus.train, epochs=config.local_epochs)
        for (_, a), (_, b) in zip(state.model.params_.blocks(), solo.params_.blocks()):
            assert np.array_equal(a, b)

    def test_payload_deterministic(self):
        corpus = overfit_corpus()
        config = tiny_config()
        blobs = []
        for _ in range(2):
            state = ClientState(0, corpus, SpanTagger(**config.model_kwargs((5, 0))))
            payload_obj, _ = client_round(state, None, 1, config)
            blobs.append(encode_payload(payload_obj))
        assert blobs[0] == blobs[1]

    def test_overfit_reaches_perfect_in_domain_f1(self):
        corpus = overfit_corpus()
        config = tiny_config(local_epochs=50, embed_dim=32, hidden_dim=32, rep_dim=16, vocab_size=2048)
        state = ClientState(0, corpus, SpanTagger(**config.model_kwargs(0)))
        payload_obj, metrics = client_round(state, None, 1, config)
        assert metrics["val_f1"] == 1.0
        assert payload_obj.val_f1 == 1.0
        assert payload_obj.prototypes.dim == 16

    def test_metrics_keys(self):
        """The metrics come under their record names, in record order."""
        state = ClientState(0, overfit_corpus(), SpanTagger(**tiny_config().model_kwargs(0)))
        _, metrics = client_round(state, None, 1, tiny_config())
        assert list(metrics) == ["train_loss", "stage_loss", "proto_loss", "val_p", "val_r", "val_f1"]


class TestRunFederated:
    def test_zero_rounds(self, small_corpora):
        records = run_federated(small_corpora, tiny_config(rounds=0))
        assert records == []

    def test_record_schema_and_counts(self, small_corpora):
        config = tiny_config(rounds=2, track_test_matrix=True)
        records = run_federated(small_corpora, config)
        assert len(records) == 2 * len(small_corpora)
        expected_keys = {
            "round", "client", "corpus", "train_loss", "stage_loss", "proto_loss",
            "val_p", "val_r", "val_f1", "test_f1_matrix", "uploaded_floats",
            "downloaded_floats", "weights",
        }
        for rec in records:
            assert set(rec) == expected_keys
        first_round = [r for r in records if r["round"] == 1]
        assert all(r["downloaded_floats"] == 0 for r in first_round)
        second_round = [r for r in records if r["round"] == 2]
        assert all(r["downloaded_floats"] > 0 for r in second_round)
        assert all(len(r["weights"]) == len(small_corpora) for r in records)
        assert all(len(r["test_f1_matrix"]) == len(small_corpora) for r in second_round)

    def test_single_client_is_self_regularized_training(self, small_corpora):
        records = run_federated(small_corpora[:1], tiny_config(rounds=2))
        assert [r["weights"] for r in records] == [[1.0], [1.0]]

    def test_deterministic_records(self, small_corpora):
        config = tiny_config(rounds=2)
        a = run_federated(small_corpora, config)
        b = run_federated(small_corpora, config)
        assert json.dumps(a) == json.dumps(b)

    def test_records_match_dense_reference_adam(self, small_corpora, monkeypatch):
        """Stepping only the embedding rows seen so far changes no record."""
        config = tiny_config(rounds=2, track_test_matrix=True)
        touched = run_federated(small_corpora, config)
        calls = []

        def dense_adam(*args, **kwargs):
            calls.append(1)
            return reference_adam_step(*args, **kwargs)

        monkeypatch.setattr(model_module, "adam_step", dense_adam)
        dense = run_federated(small_corpora, config)
        assert calls
        assert json.dumps(touched) == json.dumps(dense)

    def test_outputs_persisted(self, small_corpora, tmp_path):
        config = tiny_config(rounds=2)
        records = run_federated(small_corpora, config, tmp_path)
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == records
        checkpoints = sorted(p.name for p in (tmp_path / "checkpoints").glob("*.ckpt"))
        assert len(checkpoints) == len(small_corpora)
        payloads = sorted(p.name for p in (tmp_path / "payloads").glob("*.bin"))
        assert len(payloads) == len(small_corpora) + 1  # clients + global

    def test_divergence_leaves_earlier_rounds_on_disk(self, small_corpora, tmp_path, monkeypatch):
        """A client diverging in round 2 halts the run with an error naming
        it and the round, and ``records.jsonl`` holds exactly round 1."""
        round_one = run_federated(small_corpora, tiny_config(rounds=1))
        fit, calls = SpanTagger.partial_fit, []

        def partial_fit(model, sentences, *args, **kwargs):
            if sentences is small_corpora[1].train:
                calls.append(sentences)
                if len(calls) == 2:
                    raise TrainingDivergedError("non-finite training loss")
            return fit(model, sentences, *args, **kwargs)

        monkeypatch.setattr(SpanTagger, "partial_fit", partial_fit)
        message = f"client 1 ({small_corpora[1].name}) round 2: non-finite training loss"
        with pytest.raises(TrainingDivergedError, match=re.escape(message)):
            run_federated(small_corpora, tiny_config(rounds=3), tmp_path)
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == round_one

    def test_payload_files_are_the_last_rounds_blobs(self, small_corpora, tmp_path, monkeypatch):
        """``payloads/`` holds the blobs the server received and broadcast in
        the last round."""
        receive, broadcast = Server.receive_and_aggregate, Server.broadcast
        uploads, broadcasts = {}, {}

        def receiving(server, blobs, round_index):
            uploads[round_index] = list(blobs)
            return receive(server, blobs, round_index)

        def broadcasting(server, round_index):
            broadcasts.setdefault(round_index, []).append(broadcast(server, round_index))
            return broadcasts[round_index][-1]

        monkeypatch.setattr(Server, "receive_and_aggregate", receiving)
        monkeypatch.setattr(Server, "broadcast", broadcasting)
        run_federated(small_corpora, tiny_config(rounds=3), tmp_path)
        assert sorted(uploads) == sorted(broadcasts) == [1, 2, 3]
        assert all(len(blobs) == 1 for blobs in broadcasts.values())
        payload_dir = tmp_path / "payloads"
        for i, corpus in enumerate(small_corpora):
            assert (payload_dir / f"client_{i:02d}_{corpus.name}.bin").read_bytes() == uploads[3][i]
        assert (payload_dir / "global.bin").read_bytes() == broadcasts[3][0]
        assert len(list(payload_dir.iterdir())) == len(small_corpora) + 1

    def test_empty_split_rejected(self, small_corpora):
        broken = [Corpus("x", [], [], [])]
        with pytest.raises(ValueError):
            run_federated(broken, tiny_config())

    def test_only_the_named_splits_must_be_filled(self, small_corpora):
        """Training needs all three splits; evaluation (``fedspan eval``)
        only the one it scores."""
        test_only = Corpus("t", [], [], small_corpora[0].test)
        check_corpora([test_only], ["test"])
        for splits, empty in ((["train", "test"], "train"), (["val"], "val")):
            with pytest.raises(ValueError, match=f"^corpus 't' has an empty {empty} split$"):
                check_corpora([test_only], splits)
        with pytest.raises(ValueError, match="^corpus 't' has an empty train split$"):
            check_corpora([test_only])

    @pytest.mark.parametrize("mode", ["federated", "merged"])
    def test_repeated_corpus_names_rejected_before_training(self, small_corpora, tmp_path, mode):
        """The test F1 matrix is keyed by corpus name, so two corpora of one
        name would share an entry; such runs fail before anything is written."""
        a, b, *rest = small_corpora
        twins = [a, Corpus(a.name, b.train, b.val, b.test), *rest]
        with pytest.raises(ValueError, match=f"repeated: \\['{a.name}'\\]"):
            run_federated(twins, tiny_config(mode=mode, track_test_matrix=True), tmp_path / "run")
        assert not (tmp_path / "run").exists()


    def test_single_mode_counts(self, small_corpora):
        config = tiny_config(rounds=2, mode="single")
        records = run_federated(small_corpora, config)
        assert len(records) == 2 * len(small_corpora)
        assert all(r["uploaded_floats"] == 0 and r["weights"] == [] for r in records)

    def test_merged_mode_single_model(self, small_corpora):
        config = tiny_config(rounds=2, mode="merged")
        records = run_federated(small_corpora, config)
        assert len(records) == 2
        assert all(r["corpus"] == "merged" for r in records)

    def test_merged_on_duplicated_corpora_scores_each_copy_identically(self, small_corpora):
        base = small_corpora[0]
        copies = [Corpus(f"copy{i}", base.train, base.val, base.test) for i in range(3)]
        config = tiny_config(rounds=1, track_test_matrix=True, mode="merged")
        (record,) = run_federated(copies, config)
        values = set(record["test_f1_matrix"].values())
        assert len(values) == 1

    def test_matrix_diagonal_is_in_domain(self, small_corpora):
        config = tiny_config(rounds=1, track_test_matrix=True, mode="single")
        records = run_federated(small_corpora, config)
        for rec in records:
            assert rec["corpus"] in rec["test_f1_matrix"]

    def test_bad_mode_rejected(self, small_corpora):
        with pytest.raises(ValueError):
            run_federated(small_corpora, tiny_config(mode="bogus"))

    def test_checkpoints_saved(self, small_corpora, tmp_path):
        run_federated(small_corpora, tiny_config(rounds=1, mode="single"), tmp_path)
        names = sorted(p.name for p in (tmp_path / "checkpoints").glob("*.ckpt"))
        assert names == sorted(f"model_{i:02d}_{c.name}.ckpt" for i, c in enumerate(small_corpora))
        assert not (tmp_path / "payloads").exists()


class TestServer:
    def test_wire_boundary_round_trip(self):
        server = Server("f1_weighted")
        blobs = [
            encode_payload(payload(0, 0.6, {1: [1.0, 0.0]})),
            encode_payload(payload(1, 0.3, {1: [0.0, 1.0]})),
        ]
        aggregated = server.receive_and_aggregate(blobs, 1)
        assert classes_of(aggregated) == [1]
        assert server.last_weights == pytest.approx([2 / 3, 1 / 3])
        assert server.last_class_weights.shape == (2, NUM_CLASSES)
        broadcast = server.broadcast(1)
        assert isinstance(broadcast, bytes)

    def test_class_weights_sum_to_one(self):
        server = Server("f1_weighted")
        blobs = [
            encode_payload(payload(0, 0.9, {1: [1.0, 0.0], 2: [1.0, 1.0]})),
            encode_payload(payload(1, 0.1, {2: [0.0, 0.0]})),
        ]
        aggregated = server.receive_and_aggregate(blobs, 1)
        totals = server.last_class_weights.sum(axis=0)
        assert totals[aggregated.present] == pytest.approx(1.0, abs=1e-9)
        assert np.all(totals[~aggregated.present] == 0.0)

    def test_stale_or_repeated_payloads_rejected(self):
        """Payloads of another round than the server's, or two from one
        client, are refused, naming the client, and leave the server as it was."""
        server = Server("f1_weighted")
        fresh = [encode_payload(payload(cid, 0.5, {1: [1.0, 0.0]}, round_index=7)) for cid in (0, 1)]
        stale = [encode_payload(payload(cid, 0.5, {1: [1.0, 0.0]}, round_index=3)) for cid in (0, 0, 1)]
        with pytest.raises(PayloadError, match="client 0 payload is for round 3, expected 7"):
            server.receive_and_aggregate(stale, 7)
        with pytest.raises(PayloadError, match="client 1 payload is for round 7, expected 6"):
            server.receive_and_aggregate(fresh[1:], 6)
        with pytest.raises(PayloadError, match="client 0 sent more than one payload"):
            server.receive_and_aggregate([fresh[0], *fresh], 7)
        assert server.global_prototypes is None and server.last_weights == []
        server.receive_and_aggregate(fresh, 7)
        assert server.last_weights == [0.5, 0.5]

    def test_broadcast_before_aggregate_fails(self):
        with pytest.raises(RuntimeError):
            Server("uniform").broadcast(1)

    def test_unknown_mode_rejected_when_built(self):
        message = "aggregation must be one of ('uniform', 'f1_weighted'), got 'mean'"
        with pytest.raises(ValueError, match=re.escape(message)):
            Server("mean")
