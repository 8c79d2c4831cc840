"""Federated prototype-sharing span tagger for sentiment triplet extraction."""

from .config import ConfigError, ExperimentConfig
from .corpus import (
    Corpus,
    CorpusFormatError,
    Polarity,
    Sentence,
    Span,
    Triplet,
    TripletMetrics,
    deduplicate,
    evaluate_triplets,
    parse_corpus,
    read_corpus_dir,
    serialize_corpus,
    serialize_sentence,
    write_corpus_dir,
)
from .decoding import decode_triplets
from .federation import (
    ClientState,
    Server,
    client_round,
    comm_ledger,
    prototype_similarity,
    run_federated,
)
from .model import SpanTagger
from .prototypes import (
    PayloadError,
    PrototypePayload,
    PrototypeSet,
    build_local_prototypes,
    decode_payload,
    encode_payload,
    make_payload,
    momentum_update,
)
from .synth import SynthConfig, default_synth_config, generate_synthetic
from .tagging import TagMatrix, derive_gold_tags, enumerate_spans, tag_components, tag_index

__version__ = "0.1.0"

__all__ = [
    "ClientState",
    "ConfigError",
    "Corpus",
    "CorpusFormatError",
    "ExperimentConfig",
    "PayloadError",
    "Polarity",
    "PrototypePayload",
    "PrototypeSet",
    "Sentence",
    "Server",
    "Span",
    "SpanTagger",
    "SynthConfig",
    "TagMatrix",
    "Triplet",
    "TripletMetrics",
    "build_local_prototypes",
    "client_round",
    "comm_ledger",
    "decode_payload",
    "decode_triplets",
    "deduplicate",
    "default_synth_config",
    "derive_gold_tags",
    "encode_payload",
    "enumerate_spans",
    "evaluate_triplets",
    "generate_synthetic",
    "make_payload",
    "momentum_update",
    "parse_corpus",
    "prototype_similarity",
    "read_corpus_dir",
    "run_federated",
    "serialize_corpus",
    "serialize_sentence",
    "tag_components",
    "tag_index",
    "write_corpus_dir",
]
