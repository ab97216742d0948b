"""Output oracles: the paper tables and recorded metrics digests."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

EXPECTED_FILE = "expected/digests.json"


def digest(metrics: object) -> str:
    """sha256 of ``DesignRun.metrics()`` as canonical JSON.

    The JSON round trip first makes an in-process dict and a served
    (already decoded) one hash alike, whatever their key types.
    """
    canonical = json.dumps(json.loads(json.dumps(metrics)), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def paper_sections(text: str) -> str:
    """Table 1, Table 2 and the compaction summary, as ``tables`` prints.

    They run from the ``Table 1`` heading through the compaction
    ``average:`` line; the timing and Figure 2 lines around them are
    left out.
    """
    lines = text.splitlines()
    first = lines.index("Table 1: Die-Area (um^2)")
    last = next(
        i for i in range(first, len(lines))
        if lines[i].startswith("  average: ")
    )
    return "\n".join(lines[first:last + 1])


def wrong_cells(got: str, expected: str,
                cells: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Cells whose table rows differ; every cell if any other line does."""
    cells = list(cells)
    got_lines, want_lines = got.splitlines(), expected.splitlines()
    if len(got_lines) != len(want_lines):
        return set(cells)
    wrong: Set[Tuple[str, str]] = set()
    for have, want in zip(got_lines, want_lines):
        if have == want:
            continue
        words = want.split()
        hit = {c for c in cells if words and words[0] == c[0]
               and (len(words) < 2 or words[1] not in ("granular", "lut")
                    or words[1] == c[1])}
        if not hit:
            return set(cells)
        wrong |= hit
    return wrong


def load_expected(bench_dir: Path) -> Dict[str, str]:
    path = bench_dir / EXPECTED_FILE
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


def digest_check(
    expected: Dict[str, str]
) -> Callable[[str, str], Optional[str]]:
    """A checker returning an error text for a wrong or unknown digest."""
    def check(key: str, value: str) -> Optional[str]:
        want = expected.get(key)
        if want is None:
            return f"no recorded digest for {key}"
        if want != value:
            return f"metrics digest {value[:12]} != recorded {want[:12]}"
        return None

    return check
