"""Golden bytes: the sha256 of every file a two-round ``fedspan train``
writes that the model determines (``records.jsonl``, each checkpoint and
each payload), in seven configs, against the manifest ``tests/golden.json``.
Each config also records the sha256 of the scoring logits of its first
checkpoint on the laptops test split, which the records cannot show: an
argmax, and so an F1, can hold while the logits move.

The bytes are those of one environment: float sums depend on numpy and
on the BLAS kernels it runs. The manifest records that environment, and
where this one differs the tests skip, naming the field.

Regenerate the manifest with ``python tests/test_golden.py --write``.
"""

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fedspan.model
from fedspan.cli import main
from fedspan.corpus import deduplicate
from fedspan.model import SpanTagger
from fedspan.synth import default_synth_config, generate_synthetic

MANIFEST = Path(__file__).with_name("golden.json")
ROUNDS = 2
CONFIGS = {
    "federated": {"mode": "federated"},
    "single": {"mode": "single"},
    "merged": {"mode": "merged"},
    "float64": {"precision": "float64"},
    "sgd": {"optimizer": "sgd"},
    "rep_dim_1_chunk_size_1": {"rep_dim": 1, "chunk_size": 1},
    "gold_assignment": {"prototype_assignment": "gold"},
}
# The manifest key of the scoring hash, beside the file paths.
SCORING = "scoring_logits:laptops/test"


def _blas_core() -> str | None:
    """The kernel set OpenBLAS picked for this CPU at load time; None when
    numpy's BLAS is not its bundled scipy-openblas."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*.so"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                return getattr(lib, name)().decode()
    return None


def environment() -> dict:
    """What the bytes depend on besides the code. Python by minor version:
    its patch releases do not change float arithmetic or ``json``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_core": _blas_core(),
    }


def scoring_hash(checkpoint: Path) -> str:
    """The sha256 of the logits ``score_spans`` returns, in call order,
    while the loaded checkpoint tags the laptops test split of the
    deduplicated default corpus (seed 7)."""
    corpora, _ = deduplicate(generate_synthetic(default_synth_config(), 7))
    (laptops,) = [c for c in corpora if c.name == "laptops"]
    model = SpanTagger.load(checkpoint)
    digest = hashlib.sha256()
    score_spans = fedspan.model.score_spans

    def hashing(*args, **kwargs):
        out = score_spans(*args, **kwargs)
        digest.update(np.ascontiguousarray(out.logits).tobytes())
        return out

    with mock.patch.object(fedspan.model, "score_spans", hashing):
        model.predict_tags(laptops.test)
    return digest.hexdigest()


def run_hashes(config: dict, out: Path) -> dict[str, str]:
    """Train ``config`` for ``ROUNDS`` rounds into ``out``; the sha256 of
    each file it wrote but ``config.json`` and ``dedup_report.json``, by
    path relative to ``out``, and the scoring hash of its first checkpoint."""
    config_path = out.with_name(out.name + ".json")
    config_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(config_path), "--rounds", str(ROUNDS), "--output-dir", str(out)]) == 0
    checkpoints = sorted(out.glob("checkpoints/*"))
    files = [out / "records.jsonl", *checkpoints, *sorted(out.glob("payloads/*"))]
    hashes = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest() for path in files}
    return hashes | {SCORING: scoring_hash(checkpoints[0])}


def _manifest() -> dict:
    manifest = json.loads(MANIFEST.read_text())
    here = environment()
    if differs := [k for k in manifest["environment"] if manifest["environment"][k] != here.get(k)]:
        pytest.skip(
            "golden bytes are for another environment: "
            + ", ".join(f"{k} {manifest['environment'][k]!r} there, {here.get(k)!r} here" for k in differs)
        )
    return manifest


def test_manifest_covers_every_config():
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["rounds"] == ROUNDS
    assert sorted(manifest["runs"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_bytes(name, tmp_path):
    want = _manifest()["runs"][name]
    got = run_hashes(CONFIGS[name], tmp_path / name)
    assert sorted(got) == sorted(want), "the run wrote other files"
    assert [path for path in sorted(got) if got[path] != want[path]] == []


def write_manifest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_hashes(config, Path(tmp) / name) for name, config in CONFIGS.items()}
    manifest = {"environment": environment(), "rounds": ROUNDS, "runs": runs}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_manifest()
