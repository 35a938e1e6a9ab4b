"""Per-row flip reports and machine-readable output writers.

All primary outputs share one metadata convention: JSON-lines files start
with a meta record, CSV files start with ``# key=value`` comment lines.
Wall-clock measurements never appear in primary outputs; the only
run-varying field is the timestamp inside the meta block.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np
from numpy.typing import NDArray

from . import __version__

METHODS = (
    "pruned_unflippable",
    "closed_form_flip",
    "mip_certified",
    "undetermined",
)


@dataclass(slots=True)
class FlipReport:
    """Certified rank range for one row under one model family.

    ``flippable`` is None only when the certifier stopped short of
    deciding the row (method ``undetermined``). For methods
    ``pruned_unflippable`` and ``closed_form_flip`` the rank fields are
    certified outer bounds. For ``mip_certified`` in exact mode both are
    exact. In status mode both are certified outer bounds, and the side
    the verdict needs (the max rank of a baseline-top row, the min rank
    of any other) is the verdict search's bound, on the same side of
    kappa as the exact extreme.

    A ``closed_form_flip`` witness ``w`` moves its row across the cut
    under ``rank_descending(V @ w) <= kappa``, the baseline's own ranking.
    A ``mip_certified`` witness moves it once scores tied at ``w`` are
    ordered in the row's favour: the optimistic tie counting the oracles
    use. An intercept-only ball model, for example, ties every row.
    """

    row_id: str
    baseline_rank: int
    min_rank: int
    max_rank: int
    flippable: bool | None
    method: str
    witness: NDArray[np.float64] | None = None
    witness_kind: str | None = None  # "coef" | "alpha"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 1 <= self.min_rank <= self.max_rank:
            raise ValueError(
                f"rank range [{self.min_rank}, {self.max_rank}] is malformed for row {self.row_id}"
            )
        if self.witness_kind not in (None, "coef", "alpha"):
            raise ValueError(f"unknown witness_kind {self.witness_kind!r}")


def meta_record(**fields) -> dict:
    """Metadata header content; None-valued fields are dropped."""
    meta = {
        "kind": "meta",
        "software": "topkflip",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    for key, value in fields.items():
        if value is not None:
            meta[key] = value
    return meta


_JSON_FLIPPABLE = {True: "true", False: "false", None: "null"}


def _json_float(x: float) -> str:
    # json.dumps spells the non-finite floats NaN, Infinity and -Infinity.
    return repr(x) if math.isfinite(x) else json.dumps(x)


def write_reports_jsonl(reports, path, meta: dict) -> None:
    """JSON-lines: the meta record first, then one object per row report.

    A blend-weight witness is emitted as ``witness_alpha``; coefficient
    witnesses stay in memory only. Each report line is, byte for byte,
    ``json.dumps`` of the record with keys ``row_id``, ``baseline_rank``,
    ``min_rank``, ``max_rank``, ``flippable``, ``method`` and, when
    present, ``witness_alpha``.
    """
    lines = [json.dumps(meta)]
    for rep in reports:
        line = (
            f'{{"row_id": {_json_string(rep.row_id)}, "baseline_rank": {rep.baseline_rank:d}, '
            f'"min_rank": {rep.min_rank:d}, "max_rank": {rep.max_rank:d}, '
            f'"flippable": {_JSON_FLIPPABLE[rep.flippable]}, "method": {_json_string(rep.method)}'
        )
        if rep.witness_kind == "alpha" and rep.witness is not None:
            line += f', "witness_alpha": [{", ".join(_json_float(float(a)) for a in rep.witness)}]'
        lines.append(line + "}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv_with_meta(path, meta: dict, columns, rows) -> None:
    """CSV with ``# key=value`` comment lines before the header row.

    A value holding a line break would end its comment line early, so it
    is refused, naming its key, before the file is opened.
    """
    for key, value in meta.items():
        if "\n" in str(value) or "\r" in str(value):
            raise ValueError(f"meta value of {key!r} holds a line break: {value!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in meta.items():
            if key == "kind":
                continue
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


def read_csv_with_meta(path) -> "tuple[dict, list[str], list[list[str]]]":
    """Inverse of :func:`write_csv_with_meta` (meta, columns, rows). Only
    the ``# key=value`` lines before the header row are meta; a data row
    that reads like one stays a row."""
    meta: dict = {}
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(fh)
    head = 0
    while head < len(lines) and lines[head].startswith("# ") and "=" in lines[head]:
        key, _, value = lines[head][2:].rstrip("\n").partition("=")
        meta[key] = value
        head += 1
    rows = list(csv.reader(lines[head:]))
    return meta, rows[0], rows[1:]
