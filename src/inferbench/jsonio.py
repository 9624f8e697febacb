"""Canonical JSON serialization for pipeline artifacts.

Floats are normalized to 12 significant digits and keys are sorted, so
re-running a stage with identical config and inputs writes byte-
identical files. Checkpoints bypass this module: their parameters need
full float precision.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from .corpus import jsonl_records


def round_sig(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} in artifact")
    return float(f"{x:.12g}")


def canonicalize(obj):
    """``obj`` with every float rounded by :func:`round_sig`, every dict
    key a string and every tuple a list. A str, int, bool or None, by
    exact type, is returned at once; any other value goes by
    ``isinstance``, so a float subclass such as numpy's float64 is
    rounded too."""
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, dict):
        return {k if type(k) is str else str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    return obj


def canonical_dumps(obj) -> str:
    return json.dumps(
        canonicalize(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_dumps(config).encode("utf-8")).hexdigest()


def write_artifact(path: str | Path, payload: dict, meta: dict) -> None:
    """JSON artifact with an embedded meta stamp (config digest + seed)."""
    body = dict(payload)
    body["meta"] = meta
    Path(path).write_text(canonical_dumps(body) + "\n", encoding="utf-8")


def write_jsonl_artifact(path: str | Path, records: list[dict], meta: dict) -> None:
    """JSONL artifact plus a ``<name>.meta.json`` sidecar stamp, keeping
    the data file line-aligned and schema-clean."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(canonical_dumps(rec) + "\n")
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(canonical_dumps(meta) + "\n", encoding="utf-8")


def read_jsonl(path: str | Path) -> list[dict]:
    """The records of a JSONL file, read by :func:`~inferbench.corpus.jsonl_records`."""
    return [record for _, record in jsonl_records(path)]
