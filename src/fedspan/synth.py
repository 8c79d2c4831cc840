"""Deterministic multi-domain synthetic corpus generation.

Each domain owns a private aspect lexicon while every domain shares the
opinion lexicon and sentence templates, so cross-domain signal exists
(opinions, sentence structure) next to domain-specific signal (aspects).
A configurable fraction of aspect slots is filled from a shared aspect
pool to make cross-domain evaluation measurable but not trivial.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Annotated, Sequence

import numpy as np

from .corpus import Corpus, Polarity, Sentence, Span, Triplet
from .encoder import Range, check_fields

ASPECT_SLOT = "{ASP}"
OPINION_SLOT = "{OPI}"

# Seed of the corpus shipped for the cross-domain experiments.
DEFAULT_CORPUS_SEED = 7


class SynthConfigError(ValueError):
    pass


@dataclass
class DomainSpec:
    name: str
    aspects: list[str]


@dataclass
class SynthConfig:
    domains: list[DomainSpec]
    opinions: list[tuple[str, Polarity]]
    templates: list[str]
    train_size: Annotated[int, Range(0)] = 200
    val_size: Annotated[int, Range(0)] = 60
    test_size: Annotated[int, Range(0)] = 120
    shared_aspects: list[str] = field(default_factory=list)
    shared_aspect_rate: Annotated[float, Range(0, 1)] = 0.1
    max_attempts: Annotated[int, Range(1)] = 200

    def validate(self) -> None:
        check_fields(self, SynthConfigError)
        if not self.domains:
            raise SynthConfigError("no domains configured")
        lexicons = [("shared_aspects", self.shared_aspects), ("opinions", [t for t, _ in self.opinions])]
        names = set()
        for i, domain in enumerate(self.domains):
            check_fields(domain, lambda message: SynthConfigError(f"domains[{i}].{message}"))
            # The name is the corpus's directory under the output directory.
            name = domain.name
            if name in ("", ".", "..") or "/" in name or "\\" in name or name in names:
                raise SynthConfigError(f"domains[{i}].name must be a distinct file name, got {name!r}")
            names.add(name)
            if not domain.aspects:
                raise SynthConfigError(f"domain {domain.name!r} has an empty aspect lexicon")
            lexicons.append((f"domains[{i}].aspects", domain.aspects))
        for name, i, term in ((n, i, t) for n, terms in lexicons for i, t in enumerate(terms)):
            if not term.split():  # no token to fill a slot with: an inverted span
                raise SynthConfigError(f"{name}[{i}] is a blank term: {term!r}")
        if not self.opinions:
            raise SynthConfigError("empty opinion lexicon")
        if not self.templates:
            raise SynthConfigError("no templates configured")
        if self.shared_aspect_rate > 0 and not self.shared_aspects:
            raise SynthConfigError("shared_aspect_rate > 0 but shared_aspects is empty")
        for template in self.templates:
            tokens = template.split()
            n_asp = tokens.count(ASPECT_SLOT)
            n_opi = tokens.count(OPINION_SLOT)
            if n_asp != n_opi or n_asp == 0:
                raise SynthConfigError(
                    f"template {template!r} must pair each {ASPECT_SLOT} with one {OPINION_SLOT}"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "SynthConfig":
        """Inverse of ``to_dict``; omitted optional keys take the field defaults."""
        if not isinstance(data, dict):
            raise SynthConfigError(f"synth config must be an object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise SynthConfigError(f"unknown synth config keys: {sorted(unknown)}")
        missing = [key for key in ("domains", "opinions", "templates") if key not in data]
        if missing:
            raise SynthConfigError(f"missing synth config keys: {missing}")
        for key in ("domains", "opinions"):
            if not isinstance(data[key], list):
                raise SynthConfigError(f"{key} must be a list")
        values = dict(data, domains=[], opinions=[])
        for i, domain in enumerate(data["domains"]):
            if not isinstance(domain, dict) or not {"name", "aspects"} <= set(domain):
                raise SynthConfigError(f"domains[{i}] needs a name and aspects, got {domain!r}")
            if unknown := set(domain) - {"name", "aspects"}:
                raise SynthConfigError(f"unknown keys in domains[{i}]: {sorted(unknown)}")
            values["domains"].append(DomainSpec(domain["name"], domain["aspects"]))
        for i, opinion in enumerate(data["opinions"]):
            if not isinstance(opinion, list) or len(opinion) != 2:
                raise SynthConfigError(f"opinions[{i}] must be [term, polarity], got {opinion!r}")
            try:
                values["opinions"].append((opinion[0], Polarity(opinion[1])))
            except ValueError as exc:
                raise SynthConfigError(f"opinions[{i}]: {exc}") from exc
        config = cls(**values)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "SynthConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SynthConfigError(f"{path}: {exc}") from exc
        try:
            return cls.from_dict(data)
        except SynthConfigError as exc:
            raise SynthConfigError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict:
        data = asdict(self)
        data["opinions"] = [[term, pol.value] for term, pol in self.opinions]
        return data


def default_synth_config() -> SynthConfig:
    """Four review domains with disjoint aspect lexicons and shared opinions."""
    domains = [
        DomainSpec(
            "laptops",
            [
                "keyboard", "trackpad", "hinge", "charger", "cooling fan",
                "webcam", "speakers", "ram", "backlit keyboard", "power brick",
            ],
        ),
        DomainSpec(
            "restaurants",
            [
                "pasta", "pizza", "dessert", "wine list", "waiter",
                "soup", "bread", "seating", "house salad", "lunch menu",
            ],
        ),
        DomainSpec(
            "hotels",
            [
                "lobby", "pool", "bed", "shower", "room service",
                "balcony", "minibar", "elevator", "breakfast buffet", "front desk",
            ],
        ),
        # Deliberately the odd domain out: a larger lexicon with overlapping
        # multi-word families, so this client learns slower and uploads
        # noisier prototypes than the other three.
        DomainSpec(
            "phones",
            [
                "camera", "touchscreen", "antenna", "case", "charging port",
                "microphone", "notch", "stylus", "fingerprint sensor", "home button",
                "charging cable", "volume button", "sim tray", "earpiece",
            ],
        ),
    ]
    opinions = [
        ("great", Polarity.POS),
        ("amazing", Polarity.POS),
        ("lovely", Polarity.POS),
        ("superb", Polarity.POS),
        ("solid", Polarity.POS),
        ("pleasant", Polarity.POS),
        ("terrible", Polarity.NEG),
        ("awful", Polarity.NEG),
        ("disappointing", Polarity.NEG),
        ("flimsy", Polarity.NEG),
        ("noisy", Polarity.NEG),
        ("broken", Polarity.NEG),
        ("average", Polarity.NEU),
        ("ordinary", Polarity.NEU),
        ("acceptable", Polarity.NEU),
        ("standard", Polarity.NEU),
    ]
    templates = [
        "the {ASP} is {OPI} .",
        "the {ASP} was really {OPI} .",
        "i found the {ASP} quite {OPI} .",
        "honestly the {ASP} seemed {OPI} .",
        "{OPI} {ASP} overall .",
        "everyone says the {ASP} is {OPI} .",
        "my friends thought the {ASP} felt {OPI} .",
        "the {ASP} looked {OPI} to us .",
        "the {ASP} was {OPI} but the {ASP} seemed {OPI} .",
        "we loved that the {ASP} is {OPI} and the {ASP} is {OPI} .",
    ]
    shared_aspects = ["price", "quality", "design", "warranty", "packaging", "size"]
    return SynthConfig(
        domains=domains,
        opinions=opinions,
        templates=templates,
        shared_aspects=shared_aspects,
        shared_aspect_rate=0.1,
    )


def _fill_template(
    template_tokens: Sequence[str],
    config: SynthConfig,
    domain: DomainSpec,
    rng: np.random.Generator,
) -> Sentence:
    tokens: list[str] = []
    aspect_spans: list[Span] = []
    opinion_fills: list[tuple[Span, Polarity]] = []
    for tok in template_tokens:
        if tok == ASPECT_SLOT:
            if config.shared_aspects and rng.random() < config.shared_aspect_rate:
                term = config.shared_aspects[rng.integers(len(config.shared_aspects))]
            else:
                term = domain.aspects[rng.integers(len(domain.aspects))]
            words = term.split()
            aspect_spans.append(Span(len(tokens), len(tokens) + len(words) - 1))
            tokens.extend(words)
        elif tok == OPINION_SLOT:
            term, polarity = config.opinions[rng.integers(len(config.opinions))]
            words = term.split()
            opinion_fills.append((Span(len(tokens), len(tokens) + len(words) - 1), polarity))
            tokens.extend(words)
        else:
            tokens.append(tok)
    triplets = tuple(
        Triplet(aspect, opinion, polarity)
        for aspect, (opinion, polarity) in zip(aspect_spans, opinion_fills)
    )
    return Sentence(tuple(tokens), triplets)


def generate_synthetic(config: SynthConfig, seed: int) -> list[Corpus]:
    """Generate one corpus per domain, deterministic in (config, seed).

    Sentence texts are unique across every domain and split (bounded
    rejection sampling), so downstream deduplication leaves the corpora
    untouched and split sizes stay exact.
    """
    config.validate()
    template_tokens = [t.split() for t in config.templates]
    seen: set[str] = set()
    corpora = []
    for domain_idx, domain in enumerate(config.domains):
        rng = np.random.default_rng([seed, domain_idx])
        splits: dict[str, list[Sentence]] = {}
        for split, size in (
            ("train", config.train_size),
            ("val", config.val_size),
            ("test", config.test_size),
        ):
            sentences = []
            for _ in range(size):
                for _ in range(config.max_attempts):
                    tokens = template_tokens[rng.integers(len(template_tokens))]
                    sentence = _fill_template(tokens, config, domain, rng)
                    if sentence.text not in seen:
                        seen.add(sentence.text)
                        sentences.append(sentence)
                        break
                else:
                    raise SynthConfigError(
                        f"could not draw a fresh sentence for {domain.name}/{split} "
                        f"after {config.max_attempts} attempts; enlarge the lexicons"
                    )
            splits[split] = sentences
        corpora.append(Corpus(domain.name, splits["train"], splits["val"], splits["test"]))
    return corpora
