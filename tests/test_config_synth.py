"""ExperimentConfig schema handling and the synthetic corpus generator."""

import dataclasses
import json
import re

import numpy as np
import pytest

from fedspan.config import ConfigError, ExperimentConfig
from fedspan.encoder import EncoderConfig
from fedspan.model import SpanTagger, TaggerConfig
from fedspan.corpus import Polarity, Sentence, deduplicate, serialize_corpus, parse_corpus
from fedspan.synth import (
    SynthConfig,
    SynthConfigError,
    default_synth_config,
    generate_synthetic,
)


class TestExperimentConfig:
    def test_defaults_follow_training_recipe(self):
        config = ExperimentConfig()
        assert config.rounds == 50
        assert config.local_epochs == 5
        assert config.prototype_momentum == 0.9
        assert config.align_weight == 0.002
        assert config.sep_weight == 0.00025
        assert config.aggregation == "f1_weighted"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_invalid_values_rejected(self):
        for bad in (
            {"mode": "nope"},
            {"aggregation": "mean"},
            {"rounds": -1},
            {"prototype_momentum": 1.5},
            {"align_weight": -0.1},
            {"learning_rate": 0.0},
            {"lr_decay_steps": -5},
            {"hash_seed": -1},
            {"hash_seed": 2**32},
            {"precision": "float16"},
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"l_max": 65536}, r"l_max must be in \[1, 65535\]"),
            ({"rep_dim": 70000}, r"rep_dim must be in \[1, 65535\]"),
            ({"vocab_size": 2**32}, r"vocab_size must be in \[1, 4294967295\]"),
            ({"seed": -1}, r"seed must be in \[0, inf\)"),
            ({"params_seed": -1}, r"params_seed must be in \[0, inf\)"),
            ({"corpus_seed": -1}, r"corpus_seed must be in \[0, inf\)"),
            ({"align_weight": float("nan")}, "align_weight must be in"),
            ({"proto_weight": float("nan")}, "proto_weight must be in"),
            ({"learning_rate": float("inf")}, r"learning_rate must be in \(0, inf\)"),
            ({"optimizer": "rmsprop"}, "optimizer must be one of"),
        ],
        ids=[
            "l_max", "rep_dim", "vocab_size", "seed", "params_seed", "corpus_seed",
            "align_weight_nan", "proto_weight_nan", "learning_rate_inf", "optimizer",
        ],
    )
    def test_out_of_range_values_rejected(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"rounds": "5"},
            {"rounds": 2.5},
            {"rounds": True},
            {"learning_rate": "0.01"},
            {"lr_decay_steps": "600"},
            {"mode": 1},
            {"track_test_matrix": 1},
            {"corpus_dirs": "a"},
            {"corpus_dirs": [1]},
            {"synth_config": 3},
        ],
    )
    def test_wrongly_typed_values_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be of type"):
            ExperimentConfig.from_dict(bad)

    def test_int_accepted_where_float_expected(self):
        config = ExperimentConfig.from_dict({"learning_rate": 1, "lr_decay_steps": None})
        assert config.learning_rate == 1

    def test_shared_defaults_agree(self):
        """Each model hyperparameter is declared once, in ``EncoderConfig`` or
        ``TaggerConfig``, and the experiment config and the model default to
        the same values. ``seed`` is exempt: the config's is the
        experiment's data seed, from which each client's model seed is
        derived."""
        tagger_fields = {f.name for f in dataclasses.fields(TaggerConfig)}
        assert {f.name for f in dataclasses.fields(EncoderConfig)} <= tagger_fields
        assert set(ExperimentConfig.__annotations__) & tagger_fields == {"seed"}
        model_defaults = dataclasses.asdict(TaggerConfig())
        assert SpanTagger().get_params() == model_defaults
        config = ExperimentConfig()
        for name in tagger_fields - {"seed"}:
            assert getattr(config, name) == model_defaults[name], name

    def test_encoder_fields_reach_the_model(self):
        config = ExperimentConfig.from_dict({"hash_seed": 3, "precision": "float64"})
        tagger = SpanTagger(**config.model_kwargs(0))
        tagger.fit([Sentence(("nice", "view"))], epochs=1)
        assert all(arr.dtype == np.float64 for _, arr in tagger.params_.blocks())
        assert tagger._tokenizer.hash_seed == 3

    def test_file_round_trip(self, tmp_path):
        config = ExperimentConfig(rounds=3, rep_dim=12)
        path = tmp_path / "c.json"
        path.write_text(config.to_json())
        assert ExperimentConfig.from_file(path) == config

    def test_override_ignores_none(self):
        config = ExperimentConfig()
        assert config.override(rounds=None, seed=9).seed == 9
        assert config.override(rounds=None).rounds == config.rounds

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_invalid_value_names_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"rounds": -1}')
        message = rf"^{re.escape(str(path))}: rounds must be in \[0, inf\), got -1$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_file(path)


class TestSynthConfig:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("domains"), r"missing synth config keys: \['domains'\]"),
            (lambda d: d["domains"][1].pop("aspects"), r"domains\[1\] needs a name and aspects"),
            (lambda d: d.update(domains="laptops"), "domains must be a list"),
            (lambda d: d["opinions"].append(["great"]), r"opinions\[\d+\] must be \[term, polarity\]"),
            (lambda d: d["opinions"].append([5, "POS"]), r"opinions must be of type list"),
            (
                lambda d: d["opinions"].insert(2, ["odd", "XYZ"]),
                r"opinions\[2\]: 'XYZ' is not a valid Polarity",
            ),
            (lambda d: d.update(train_size="5"), "train_size must be of type int, got '5'"),
            (lambda d: d.update(train_size=-1), r"train_size must be in \[0, inf\)"),
            (lambda d: d.update(shared_aspect_rate="0.1"), "shared_aspect_rate must be of type float"),
            (lambda d: d.update(shared_aspect_rate=1.5), r"shared_aspect_rate must be in \[0, 1\]"),
            (lambda d: d.update(max_attempts=0), r"max_attempts must be in \[1, inf\)"),
            (
                lambda d: d["domains"][0].update(aspects="screen"),
                r"domains\[0\]\.aspects must be of type list\[str\], got 'screen'",
            ),
            (
                lambda d: d["domains"][2].update(aspect_weights=[1, 2], Name="x"),
                r"unknown keys in domains\[2\]: \['Name', 'aspect_weights'\]",
            ),
        ],
        ids=[
            "no_domains", "domain_without_aspects", "domains_not_a_list", "opinion_not_a_pair",
            "opinion_term_not_a_string", "unknown_polarity", "size_not_an_int", "negative_size",
            "rate_not_a_float", "rate_above_one", "no_attempts", "aspects_a_string", "unknown_domain_keys",
        ],
    )
    def test_malformed_dict_names_the_bad_entry(self, edit, message):
        data = default_synth_config().to_dict()
        edit(data)
        with pytest.raises(SynthConfigError, match=message):
            SynthConfig.from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(SynthConfigError, match="must be an object, got list"):
            SynthConfig.from_dict([default_synth_config().to_dict()])

    def test_invalid_file_names_the_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1]")
        message = f"^{re.escape(str(path))}: synth config must be an object, got list$"
        with pytest.raises(SynthConfigError, match=message):
            SynthConfig.from_file(path)

    def test_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{not json")
        with pytest.raises(SynthConfigError, match=f"^{re.escape(str(path))}: Expecting property name"):
            SynthConfig.from_file(path)

    def test_default_config_valid(self):
        config = default_synth_config()
        config.validate()
        assert len(config.domains) == 4

    def test_dict_round_trip(self):
        config = default_synth_config()
        again = SynthConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_empty_lexicon_rejected(self):
        config = default_synth_config()
        config.domains[0].aspects = []
        with pytest.raises(SynthConfigError):
            config.validate()

    @pytest.mark.parametrize("term", ["", " ", "\t\n"])
    @pytest.mark.parametrize(
        "edit, name",
        [
            (lambda config, term: config.domains[0].aspects.append(term), r"domains\[0\]\.aspects\[\d+\]"),
            (lambda config, term: config.shared_aspects.insert(1, term), r"shared_aspects\[1\]"),
            (lambda config, term: config.opinions.append((term, Polarity.POS)), r"opinions\[\d+\]"),
        ],
        ids=["aspect", "shared_aspect", "opinion"],
    )
    def test_blank_term_rejected(self, edit, name, term):
        """A blank term fills its slot with no token, which would give an
        inverted span (start past end) that no corpus reader accepts."""
        config = default_synth_config()
        config.train_size, config.val_size, config.test_size = 30, 5, 5
        edit(config, term)
        with pytest.raises(SynthConfigError, match=f"{name} is a blank term"):
            config.validate()
        with pytest.raises(SynthConfigError, match="blank term"):
            generate_synthetic(config, 1)

    def test_unpaired_template_rejected(self):
        config = default_synth_config()
        config.templates = ["the {ASP} is fine ."]
        with pytest.raises(SynthConfigError):
            config.validate()

    def test_shared_rate_requires_shared_terms(self):
        config = default_synth_config()
        config.shared_aspects = []
        with pytest.raises(SynthConfigError):
            config.validate()


class TestGenerateSynthetic:
    def small(self):
        config = default_synth_config()
        config.train_size, config.val_size, config.test_size = 12, 4, 4
        return config

    def test_deterministic_given_seed(self):
        config = self.small()
        first = generate_synthetic(config, 7)
        second = generate_synthetic(config, 7)
        for a, b in zip(first, second):
            for (_, sa), (_, sb) in zip(a.splits(), b.splits()):
                assert serialize_corpus(sa) == serialize_corpus(sb)

    def test_different_seeds_differ(self):
        config = self.small()
        a = generate_synthetic(config, 7)
        b = generate_synthetic(config, 8)
        assert serialize_corpus(a[0].train) != serialize_corpus(b[0].train)

    def test_exact_split_sizes(self):
        corpora = generate_synthetic(self.small(), 3)
        assert len(corpora) == 4
        for corpus in corpora:
            assert (len(corpus.train), len(corpus.val), len(corpus.test)) == (12, 4, 4)

    def test_exact_split_sizes_at_experiment_scale(self):
        config = default_synth_config()
        config.train_size, config.val_size, config.test_size = 200, 50, 50
        corpora = generate_synthetic(config, 3)
        for corpus in corpora:
            assert (len(corpus.train), len(corpus.val), len(corpus.test)) == (200, 50, 50)

    def test_gold_triplets_match_template_fills(self):
        corpora = generate_synthetic(self.small(), 5)
        opinion_terms = {term: pol for term, pol in self.small().opinions}
        for corpus in corpora:
            for sentence in corpus.train:
                assert sentence.triplets, sentence.text
                for t in sentence.triplets:
                    opinion_text = " ".join(
                        sentence.tokens[t.opinion.start : t.opinion.end + 1]
                    )
                    assert opinion_terms[opinion_text] == t.polarity

    def test_unique_sentences_make_dedup_a_no_op(self):
        corpora = generate_synthetic(self.small(), 7)
        _, report = deduplicate(corpora)
        assert all(entry.before == entry.after for entry in report)

    def test_covers_disjoint_within_sentence(self):
        corpora = generate_synthetic(self.small(), 9)
        for corpus in corpora:
            for sentence in corpus.train + corpus.val + corpus.test:
                covers = sorted(
                    (min(t.aspect.start, t.opinion.start), max(t.aspect.end, t.opinion.end))
                    for t in sentence.triplets
                )
                for (s1, e1), (s2, e2) in zip(covers, covers[1:]):
                    assert e1 < s2, sentence.text

    def test_round_trips_through_line_format(self):
        corpora = generate_synthetic(self.small(), 11)
        text = serialize_corpus(corpora[0].train)
        assert parse_corpus(text) == corpora[0].train

    def test_exhaustion_raises_config_error(self):
        config = self.small()
        config.domains = config.domains[:1]
        config.domains[0].aspects = ["screen"]
        config.opinions = config.opinions[:1]
        config.templates = ["the {ASP} is {OPI} ."]
        config.shared_aspects = []
        config.shared_aspect_rate = 0.0
        config.train_size = 5  # only one possible sentence exists
        with pytest.raises(SynthConfigError):
            generate_synthetic(config, 0)

    def test_shared_aspects_cross_domains(self):
        config = self.small()
        config.shared_aspect_rate = 0.5
        config.train_size = 40
        corpora = generate_synthetic(config, 13)
        shared = set(config.shared_aspects)
        seen_in = []
        for corpus in corpora:
            tokens = {tok for s in corpus.train for tok in s.tokens}
            seen_in.append(bool(shared & tokens))
        assert all(seen_in)
