"""Command-line experiment runner.

Subcommands: generate, train, eval, analyze, sweep, ledger. Configuration
comes from a JSON file (see ExperimentConfig) with flag overrides; every
output lands under the configured output directory. Set FEDSPAN_OUTPUT_ROOT
to relocate relative output directories. ``--log-level``, before the
subcommand, prints the package's log lines on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import sys
import typing
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from .corpus import (
    Corpus,
    dedup_report_json,
    deduplicate,
    read_corpus_dir,
    repeated_names,
    write_corpus_dir,
)
from .federation import check_corpora, comm_ledger, prototype_similarity, run_federated
from .model import SpanTagger
from .prototypes import decode_payload
from .synth import SynthConfig, default_synth_config, generate_synthetic
from .tagging import tag_label

OUTPUT_ROOT_ENV = "FEDSPAN_OUTPUT_ROOT"

DEFAULT_ALIGN_GRID = [0.0, 0.0005, 0.002, 0.008, 0.032]
DEFAULT_SEP_GRID = [0.0, 6.25e-05, 0.00025, 0.001, 0.004]


def _resolve_output(config: ExperimentConfig) -> Path:
    path = Path(config.output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        config = ExperimentConfig.from_file(args.config)
    else:
        config = ExperimentConfig()
    overrides = {
        name: getattr(args, name)
        for name in ExperimentConfig.field_names()
        if hasattr(args, name) and getattr(args, name) is not None
    }
    return config.override(**overrides)


def _synth_config(config: ExperimentConfig) -> SynthConfig:
    if config.synth_config:
        return SynthConfig.from_file(config.synth_config)
    return default_synth_config()


def _load_corpora(config: ExperimentConfig) -> tuple[list[Corpus], list]:
    if config.corpus_dirs:
        corpora = [read_corpus_dir(d) for d in config.corpus_dirs]
    else:
        corpora = generate_synthetic(_synth_config(config), config.corpus_seed)
    return deduplicate(corpora, case_sensitive=config.dedup_case_sensitive)


def cmd_generate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = _resolve_output(config)
    synth = _synth_config(config)
    corpora = generate_synthetic(synth, config.corpus_seed)
    out.mkdir(parents=True, exist_ok=True)
    (out / "synth_config.json").write_text(json.dumps(synth.to_dict(), indent=2), encoding="utf-8")
    for corpus in corpora:
        write_corpus_dir(corpus, out / "corpora" / corpus.name)
    print(f"wrote {len(corpora)} corpora under {out / 'corpora'}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = _resolve_output(config)
    corpora, report = _load_corpora(config)
    check_corpora(corpora)  # before anything is written, so a refused run leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(config.to_json(), encoding="utf-8")
    (out / "dedup_report.json").write_text(dedup_report_json(report), encoding="utf-8")
    records = run_federated(corpora, config, out)
    print(f"wrote {len(records)} records to {out / 'records.jsonl'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    # The metrics are keyed by checkpoint file name and corpus name.
    if repeated := repeated_names([Path(p).name for p in args.checkpoint]):
        raise ValueError(f"checkpoint file names must be distinct, repeated: {repeated}")
    corpora = [read_corpus_dir(d) for d in args.corpus]
    check_corpora(corpora, [args.split])
    models = [(Path(p).name, SpanTagger.load(p)) for p in args.checkpoint]
    matrix = []
    detailed = {}
    for name, model in models:
        row = []
        for corpus in corpora:
            metrics = model.evaluate(corpus.split(args.split))
            row.append(metrics.f1)
            detailed[f"{name}:{corpus.name}"] = dataclasses.asdict(metrics)
        matrix.append(row)
    result = {
        "checkpoints": [name for name, _ in models],
        "corpora": [c.name for c in corpora],
        "split": args.split,
        "f1_matrix": matrix,
        "metrics": detailed,
    }
    print(json.dumps(result, indent=2))
    return 0


def _read_records_file(path: Path) -> list[dict]:
    """A run's records; each line must be a UTF-8 JSON object holding the
    fields ledger and analyze read, each of its type."""
    if not path.is_file():
        raise FileNotFoundError(f"no record file at {path}")
    integer = ("an int", lambda v: type(v) is int)  # not a bool
    number = lambda v: type(v) in (int, float)  # noqa: E731
    fields = {
        "round": integer,
        "client": integer,
        "corpus": ("a string", lambda v: type(v) is str),
        "val_f1": ("a number", number),
        "test_f1_matrix": ("an object of numbers", lambda v: type(v) is dict and all(map(number, v.values()))),
        "uploaded_floats": integer,
        "downloaded_floats": integer,
    }
    records = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path} line {line_no}: not UTF-8 ({exc})") from None
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {line_no}: not JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path} line {line_no}: a record must be a JSON object")
            if missing := [name for name in fields if name not in rec]:
                raise ValueError(f"{path} line {line_no}: record lacks {', '.join(missing)}")
            if wrong := [f"{name} must be {kind}" for name, (kind, ok) in fields.items() if not ok(rec[name])]:
                raise ValueError(f"{path} line {line_no}: {'; '.join(wrong)}")
            records.append(rec)
    return records


def _in_domain_f1(rec: dict, mode: str) -> float | str:
    """Test F1 on the record's own corpus, or on all of them for the merged client."""
    matrix = rec["test_f1_matrix"]
    if mode == "merged" and matrix:
        return sum(matrix.values()) / len(matrix)
    return matrix.get(rec["corpus"], "")


def cmd_analyze(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    out = Path(args.out) if args.out else run_dir / "analysis"
    records = _read_records_file(run_dir / "records.jsonl")
    config = ExperimentConfig.from_file(run_dir / "config.json")
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "f1_curves.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "client", "corpus", "val_f1", "test_in_domain_f1"])
        for rec in records:
            in_domain = _in_domain_f1(rec, config.mode)
            writer.writerow([rec["round"], rec["client"], rec["corpus"], rec["val_f1"], in_domain])

    payload_dir = run_dir / "payloads"
    payload_files = sorted(payload_dir.glob("client_*.bin")) if payload_dir.is_dir() else []
    if payload_files:
        payloads = [decode_payload(p.read_bytes()) for p in payload_files]
        corpus_by_client = {rec["client"]: rec["corpus"] for rec in records}
        names = [corpus_by_client.get(p.client_id, str(p.client_id)) for p in payloads]
        try:
            similarity = prototype_similarity(payloads)
        except ValueError as exc:  # two clients share no class
            print(f"note: prototype_similarity.csv skipped: {exc}", file=sys.stderr)
        else:
            with open(out / "prototype_similarity.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["corpus"] + names)
                for name, row in zip(names, similarity):
                    writer.writerow([name] + [f"{v:.6f}" for v in row])
        with open(out / "prototype_vectors.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            dim = payloads[0].prototypes.dim
            writer.writerow(["client", "corpus", "class", "label"] + [f"v{i}" for i in range(dim)])
            for name, payload in zip(names, payloads):
                for cls in payload.prototypes.present.nonzero()[0]:
                    vec = payload.prototypes.matrix[cls]
                    writer.writerow(
                        [payload.client_id, name, cls, tag_label(cls)] + [f"{v:.8g}" for v in vec]
                    )

    ledger = comm_ledger(config, records)
    (out / "ledger.json").write_text(json.dumps(ledger, indent=2), encoding="utf-8")
    print(f"analysis written to {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.values and args.axis == "both":
        # The two axes have default grids 8x apart; one grid cannot serve both.
        raise ValueError("--values takes a single axis: pass --axis align or --axis sep")
    config = _load_config(args)
    # The weights act only through the prototype term, which needs a
    # broadcast from an earlier round to regularize against.
    if config.mode != "federated":
        raise ValueError(f"the swept weights act only in federated mode, not {config.mode!r}")
    if config.rounds < 2:
        raise ValueError("the swept weights need rounds >= 2: round 1 has no broadcast")
    if config.proto_weight <= 0:
        raise ValueError("the swept weights need proto_weight > 0")
    out = _resolve_output(config)
    corpora, _ = _load_corpora(config)
    axes = ["align", "sep"] if args.axis == "both" else [args.axis]
    values = [float(v) for v in args.values.split(",")] if args.values else None
    rows = []
    for axis in axes:
        grid = values or (DEFAULT_ALIGN_GRID if axis == "align" else DEFAULT_SEP_GRID)
        for value in grid:
            field = "align_weight" if axis == "align" else "sep_weight"
            cell = config.override(**{field: value})
            records = run_federated(corpora, cell)
            final = [r for r in records if r["round"] == cell.rounds]
            for rec in final:
                rows.append(
                    [
                        axis,
                        value,
                        rec["client"],
                        rec["corpus"],
                        rec["val_f1"],
                        _in_domain_f1(rec, cell.mode),
                    ]
                )
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep_summary.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "value", "client", "corpus", "final_val_f1", "final_test_f1"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {path}")
    return 0


def cmd_ledger(args: argparse.Namespace) -> int:
    config = _load_config(args)
    records = _read_records_file(Path(args.records)) if args.records else None
    print(json.dumps(comm_ledger(config, records), indent=2))
    return 0


# ExperimentConfig fields settable by flag: --rounds sets `rounds`, and so on.
CONFIG_FLAGS = (
    "mode",
    "aggregation",
    "rounds",
    "local_epochs",
    "seed",
    "params_seed",
    "corpus_seed",
    "output_dir",
    "align_weight",
    "sep_weight",
    "proto_weight",
    "prototype_momentum",
    "learning_rate",
    "rep_dim",
    "l_max",
    "synth_config",
)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment config file")
    hints = typing.get_type_hints(ExperimentConfig)
    for name in CONFIG_FLAGS:
        kind = hints[name]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=kind if kind in (int, float) else None,
            choices=typing.get_args(kind) if typing.get_origin(kind) is typing.Literal else None,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedspan",
        description="Prototype-sharing federated training for span-based sentiment triplets",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        help="print the package's log lines at this level and above on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic corpora to disk")
    _add_config_arguments(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="run single/merged/federated training")
    _add_config_arguments(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate checkpoints on corpora")
    p.add_argument("--checkpoint", action="append", required=True)
    p.add_argument("--corpus", action="append", required=True, help="corpus directory")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="export CSV summaries from a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="grid over the prototype loss weights")
    _add_config_arguments(p)
    p.add_argument("--axis", choices=["align", "sep", "both"], default="both")
    p.add_argument("--values", help="comma-separated grid values; needs --axis align or sep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ledger", help="print the communication accounting report")
    _add_config_arguments(p)
    p.add_argument("--records", help="records.jsonl of a finished run")
    p.set_defaults(func=cmd_ledger)

    return parser


@contextlib.contextmanager
def _stderr_logging(level: str | None):
    """With ``level``, the ``fedspan`` loggers' lines at that level and above
    go to stderr while the command runs; without it logging is untouched."""
    if level is None:
        yield
        return
    logger = logging.getLogger("fedspan")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(level.upper())
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _stderr_logging(args.log_level):
            status = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader went away, as in ``fedspan ledger | head -1``. Point
        # stdout at devnull so the flush at exit cannot raise again, and
        # exit quietly with the status Python gives EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
