"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The cross-domain
experiment tests share one session-scoped set of runs on the shipped
synthetic corpus (see ``experiment_runs``); its seeds and the tolerances
are frozen from the oracle runs performed while building the suite.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import fedspan as fs
from fedspan.config import ExperimentConfig
from fedspan.corpus import Polarity, Span, Triplet, parse_corpus, read_corpus_dir
from fedspan.decoding import decode_triplets
from fedspan.encoder import batch_gradients
from fedspan.federation import _client_weights
from fedspan.prototypes import PrototypeSet, build_local_prototypes, momentum_update
from fedspan.tagging import derive_gold_tags

from reference_decoding import brute_force_decode
from reference_prototypes import align_loss, classes_of, sep_loss
from test_decoding import random_tags
from test_gradients import check_case, TOLERANCE as GRAD_TOLERANCE

# Frozen experiment identity: the shipped corpus draw and data-order seed
# (the package defaults). Margins measured while freezing, float32 math:
# min in-domain fed-single -0.004, cross-domain +0.037, ablation -0.002.
SHIPPED_CORPUS_SEED = 7
SHIPPED_DATA_SEED = 2
TRANSFER_ROUNDS = 10

WORKED_LINE = "I especially like the backlit keyboard .####[([4, 5], [2], 'POS')]"


def announce(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# Gradient correctness


def test_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for case_seed in range(50):
        _, report = check_case(case_seed)
        case_worst = max(report.values())
        assert case_worst <= GRAD_TOLERANCE, f"case {case_seed}: {report}"
        worst = max(worst, case_worst)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s"
    announce("gradient-correctness", f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Decoding oracle equivalence


def test_decoding_oracle_equivalence():
    start = time.monotonic()
    (sentence,) = parse_corpus(WORKED_LINE)
    tags = derive_gold_tags(sentence, 10)
    expected = [Triplet(Span(4, 5), Span(2, 2), Polarity.POS)]
    assert decode_triplets(tags) == expected
    assert brute_force_decode(tags) == expected

    rng = np.random.default_rng(101)
    for _ in range(1000):
        instance = random_tags(rng, max_n=7)
        assert decode_triplets(instance) == brute_force_decode(instance)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"decode equivalence took {elapsed:.1f}s"
    announce("decoding-oracle-equivalence", f"1000 random instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Gold round trip on the shipped corpus


def _covers_non_nested(sentence):
    covers = [
        Span(min(t.aspect.start, t.opinion.start), max(t.aspect.end, t.opinion.end))
        for t in sentence.triplets
    ]
    for i, a in enumerate(covers):
        for b in covers[i + 1 :]:
            if a.contains(b) or b.contains(a):
                return False
    return True


def test_gold_round_trip():
    corpora = fs.generate_synthetic(fs.default_synth_config(), SHIPPED_CORPUS_SEED)
    total = eligible = recovered = 0
    for corpus in corpora:
        for _, sentences in corpus.splits():
            for sentence in sentences:
                total += 1
                if not _covers_non_nested(sentence):
                    continue
                eligible += 1
                tags = derive_gold_tags(sentence, 10)
                decoded = set(decode_triplets(tags))
                if decoded == set(sentence.triplets):
                    recovered += 1
    assert eligible > 0
    assert recovered == eligible, f"{recovered}/{eligible} recovered"
    announce("gold-round-trip", f"{recovered}/{eligible} sentences ({total} total)")


# ---------------------------------------------------------------------------
# Aggregation


def _random_payloads(rng, k, dim=4):
    payloads = []
    for cid in range(k):
        classes = rng.choice(16, size=int(rng.integers(1, 8)), replace=False)
        protos = PrototypeSet(
            dim, {int(c): rng.normal(size=dim).astype(np.float32) for c in classes}
        )
        payloads.append(fs.make_payload(cid, 1, float(rng.random()), protos))
    return payloads


def _aggregate(payloads, mode):
    """The global prototypes the ``Server`` aggregates from the payloads' blobs."""
    blobs = [fs.encode_payload(p) for p in payloads]
    return fs.Server(mode).receive_and_aggregate(blobs, payloads[0].round_index)


def test_aggregation():
    # (a) exact normalization, on the weights directly: a payload rounds its F1 to float32
    assert _client_weights([0.6, 0.2, 0.2], "f1_weighted") == [0.6, 0.2, 0.2]

    # (b) equal-F1 weighted output is bit-identical to uniform
    rng = np.random.default_rng(77)
    for _ in range(100):
        payloads = _random_payloads(rng, int(rng.integers(1, 6)))
        equal = [
            fs.make_payload(p.client_id, p.round_index, 0.37, p.prototypes) for p in payloads
        ]
        weighted = _aggregate(equal, "f1_weighted")
        uniform = _aggregate(equal, "uniform")
        assert classes_of(weighted) == classes_of(uniform)
        for c in classes_of(weighted):
            assert np.array_equal(weighted.matrix[c], uniform.matrix[c])

    # (c) convex-combination bounds on 1000 random payload sets
    for trial in range(1000):
        payloads = _random_payloads(rng, int(rng.integers(1, 6)))
        mode = ("uniform", "f1_weighted")[trial % 2]
        out = _aggregate(payloads, mode)
        for c in classes_of(out):
            contrib = np.array(
                [p.prototypes.matrix[c] for p in payloads if p.prototypes.present[c]]
            )
            assert np.all(out.matrix[c] >= contrib.min(axis=0) - 1e-9)
            assert np.all(out.matrix[c] <= contrib.max(axis=0) + 1e-9)
    announce("aggregation", "weights exact, equal-F1 bitwise, 1000 bound checks")


# ---------------------------------------------------------------------------
# Communication ledger


def test_ledger_reference_arithmetic():
    report = fs.comm_ledger(ExperimentConfig(rep_dim=200))
    assert report["prototype_floats"] == 3200
    assert report["classifier_floats"] == 3216
    ratio = report["reference_full_model_floats"] / report["prototype_floats"]
    assert report["reference_full_model_floats"] == 110_298_760
    assert ratio >= 3e4
    announce("ledger-reference-arithmetic", f"ratio {ratio:.0f}")


# ---------------------------------------------------------------------------
# Prototype math


def test_prototype_math():
    rng = np.random.default_rng(31)
    # Mean construction equals a naive group-by oracle exactly.
    for _ in range(50):
        n = int(rng.integers(1, 30))
        reps = rng.normal(size=(n, 5))
        classes = rng.integers(0, 16, n)
        protos = build_local_prototypes(reps, classes)
        for c in classes_of(protos):
            member_sum = np.zeros(5)
            count = 0
            for rep, cls in zip(reps, classes):
                if cls == c:
                    member_sum += rep
                    count += 1
            assert np.array_equal(protos.matrix[c], member_sum / count)

    # Momentum endpoints are exact.
    prev = PrototypeSet(3, {0: np.array([1.0, 2.0, 3.0])})
    batch = PrototypeSet(3, {0: np.array([-1.0, 0.5, 9.0])})
    assert np.array_equal(momentum_update(prev, batch, 1.0).matrix[0], prev.matrix[0])
    assert np.array_equal(momentum_update(prev, batch, 0.0).matrix[0], batch.matrix[0])

    # Cosine losses are invariant to positive rescaling of the representation.
    protos = PrototypeSet(6, {c: rng.normal(size=6) for c in range(6)})
    for _ in range(20):
        rep = rng.normal(size=6)
        for scale in (0.1, 10.0):
            assert align_loss(scale * rep, protos.matrix[2]) == pytest.approx(
                align_loss(rep, protos.matrix[2]), abs=1e-6
            )
            assert sep_loss(scale * rep, protos, 2) == pytest.approx(
                sep_loss(rep, protos, 2), abs=1e-6
            )
    announce("prototype-math", "group-mean exact, endpoints exact, scale-invariant")


# ---------------------------------------------------------------------------
# Desk-scale transfer and aggregation ablation (shared runs)


def _final_matrices(records, names, rounds):
    final = [r for r in records if r["round"] == rounds]
    matrix = np.zeros((len(names), len(names)))
    for rec in final:
        for j, name in enumerate(names):
            matrix[rec["client"], j] = rec["test_f1_matrix"][name]
    return matrix


@pytest.fixture(scope="session")
def experiment_runs():
    """Federated (both aggregations) and single-domain runs, shipped seeds."""
    synth = fs.default_synth_config()
    corpora, report = fs.deduplicate(fs.generate_synthetic(synth, SHIPPED_CORPUS_SEED))
    assert all(entry.before == entry.after for entry in report)
    names = [c.name for c in corpora]
    base = ExperimentConfig(
        rounds=TRANSFER_ROUNDS, seed=SHIPPED_DATA_SEED, corpus_seed=SHIPPED_CORPUS_SEED
    )
    start = time.monotonic()
    fed = fs.run_federated(corpora, base)
    uniform = fs.run_federated(corpora, base.override(aggregation="uniform"))
    single = fs.run_federated(corpora, base.override(mode="single"))
    elapsed = time.monotonic() - start
    return {
        "names": names,
        "fed": _final_matrices(fed, names, TRANSFER_ROUNDS),
        "uniform": _final_matrices(uniform, names, TRANSFER_ROUNDS),
        "single": _final_matrices(single, names, TRANSFER_ROUNDS),
        "elapsed": elapsed,
    }


def test_desk_scale_transfer(experiment_runs):
    runs = experiment_runs
    fed, single = runs["fed"], runs["single"]
    k = len(runs["names"])
    off = ~np.eye(k, dtype=bool)

    in_domain_margin = np.diag(fed) - np.diag(single)
    assert np.all(in_domain_margin >= -0.02), (
        f"in-domain margins {np.round(in_domain_margin, 4)}"
    )
    cross_margin = fed[off].mean() - single[off].mean()
    assert cross_margin > 0.0, f"cross-domain margin {cross_margin:.4f}"
    assert runs["elapsed"] < 600.0, f"experiment runs took {runs['elapsed']:.0f}s"
    announce(
        "desk-scale-transfer",
        f"min in-domain margin {in_domain_margin.min():+.4f}, "
        f"cross margin {cross_margin:+.4f}, {runs['elapsed']:.0f}s",
    )


def test_aggregation_ablation(experiment_runs):
    runs = experiment_runs
    weighted_mean = np.diag(runs["fed"]).mean()
    uniform_mean = np.diag(runs["uniform"]).mean()
    assert weighted_mean >= uniform_mean - 0.01, (
        f"f1_weighted {weighted_mean:.4f} vs uniform {uniform_mean:.4f}"
    )
    announce(
        "aggregation-ablation",
        f"f1_weighted {weighted_mean:.4f} vs uniform {uniform_mean:.4f}",
    )


# ---------------------------------------------------------------------------
# Determinism of cmd_train


def test_cmd_train_determinism(tmp_path):
    from fedspan.cli import main

    synth = fs.default_synth_config().to_dict()
    synth.update(train_size=16, val_size=6, test_size=6)
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(json.dumps(synth))
    config = ExperimentConfig(
        rounds=2,
        local_epochs=1,
        embed_dim=12,
        hidden_dim=12,
        rep_dim=8,
        vocab_size=256,
        synth_config=str(synth_path),
        output_dir=str(tmp_path / "run"),
        seed=5,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(config.to_json())

    assert main(["train", "--config", str(config_path)]) == 0
    first = (tmp_path / "run" / "records.jsonl").read_bytes()
    assert main(["train", "--config", str(config_path)]) == 0
    second = (tmp_path / "run" / "records.jsonl").read_bytes()
    assert first == second
    announce("cmd-train-determinism", f"{len(first)} bytes, byte-identical")


# ---------------------------------------------------------------------------
# Optional real-data deduplication check


REAL_DATA_ENV = "ASTE_DATA_V2_DIR"


@pytest.mark.skipif(
    not os.environ.get(REAL_DATA_ENV),
    reason=f"set {REAL_DATA_ENV} to the ASTE-Data-V2 root to enable",
)
def test_real_data_deduplication():
    root = Path(os.environ[REAL_DATA_ENV])
    corpora = [read_corpus_dir(root / name, name) for name in ("14lap", "14res", "15res", "16res")]
    _, report = fs.deduplicate(corpora)
    table = {(e.corpus, e.split): (e.before, e.after) for e in report}
    assert table[("16res", "train")] == (857, 599)
    assert table[("16res", "val")] == (210, 145)
    assert table[("14res", "train")] == (1266, 1265)
    assert table[("15res", "val")] == (148, 147)
    for split in ("train", "val", "test"):
        before, after = table[("14lap", split)]
        assert before == after
    announce("real-data-deduplication", "matches published split statistics")
