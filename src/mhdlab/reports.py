"""Deterministic report emission: columnar text tables and JSON summaries.

Identical inputs produce byte-identical files: fixed float formatting, sorted
JSON keys, no timestamps.  Every artifact embeds the configuration hash and
package version.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_coerce)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def _coerce(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x)}")


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.12e}{x.imag:+.12e}j"
    return f"{float(x):.12e}"


def write_table(path, header: list[str], rows: list[list] | np.ndarray, meta: dict | None = None):
    """A commented header and one line per row.

    ``rows`` is a list of rows of mixed values, each written through
    ``fmt``, or a 2-D float array, each row written with one ``"%.12e"``
    format string: the text ``fmt`` gives a float, at a fraction of the cost
    of one call per value.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for key, val in sorted((meta or {}).items()):
            fh.write(f"# {key}={val}\n")
        fh.write("# " + " ".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = " ".join(["%.12e"] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row.tolist()) for row in rows)
        else:
            fh.writelines(" ".join(fmt(v) for v in row) + "\n" for row in rows)


def write_summary(path, summary: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, default=_coerce)
        fh.write("\n")
