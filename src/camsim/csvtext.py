"""CSV text: each output's header, the block writer and the files.

Every number is printed as ``f"{v:.{d}f}"``. Wealth, walk and density lines
are assembled a block at a time by one writer, ``_lines``, whose number
fields go through a fixed-point kernel (``_fixed_cells``) where rounding in
floats is exact, take Python's digits for half-way cells, and print by
f-strings, field by field, where the kernel refuses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TextIO

import numpy as np


def export_csv(rows: Iterable[str], header: Sequence[str], path: str | Path) -> Path:
    """Write the header, then ``rows``: finished CSV text, each piece ending in ``"\\n"``.

    The file is UTF-8 with LF endings, whatever the locale. The caller
    formats every cell, without the locale, at its column's precision.
    """
    path = Path(path)
    with _writing(path), _open(path, header) as fh:
        fh.writelines(rows)
    return path


def _open(path: Path, header: Sequence[str]) -> TextIO:
    """A new CSV file, UTF-8 with LF endings, holding its header line."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    fh.write(",".join(header) + "\n")
    return fh


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Raise an OSError from the block again as ``failed writing <path>: ...``."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


@dataclass(frozen=True)
class _Pieces:
    """CSV text made piece by piece as it is written; len() counts the pieces."""

    count: int
    pieces: Iterator[str]

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[str]:
        return self.pieces


# Cells formatted in arrays. _PAD fills the bytes a shorter cell leaves
# unused; it never occurs in UTF-8, so one boolean compaction drops it from
# finished lines. A cell is printed in 4-byte words, each the ASCII bytes
# of a chunk 0 <= c < 10**4 of its digits, looked up in one table:
# _DIGITS[c] is c's four digits. _LEADING[c] is the same with its leading
# zeros as _PAD (all _PAD for c = 0: a word above a cell's digits), and
# _UNITS[c] as _LEADING[c] but "0" for c = 0; each goes on with _DIGITS,
# so a word with digits above it is at 10**4 + c. _DOTTED[c], c < 10**3,
# is "." and c's three digits.
_PAD = 0xFF
_digits = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
_digits = _digits.reshape(10**4, 4)
_leading = _digits.copy()
for _k in range(4):
    _leading[: 10 ** (3 - _k), _k] = _PAD  # byte k is a leading zero of c < 10**(3 - k)
_units = _leading.copy()
_units[0, -1] = ord("0")
_dotted = _digits[: 10**3].copy()
_dotted[:, 0] = ord(".")
_WORDS = np.concatenate((_leading, _digits, _units, _digits, _dotted)).view(np.uint32).ravel()
_WORDS.flags.writeable = False
_LEADING, _DIGITS = _WORDS[: 2 * 10**4], _WORDS[10**4 : 2 * 10**4]
_UNITS, _DOTTED = _WORDS[2 * 10**4 : 4 * 10**4], _WORDS[4 * 10**4 :]
del _digits, _leading, _units, _dotted, _k


def _fixed_cells(values: np.ndarray, d: int) -> np.ndarray | None:
    """The UTF-8 bytes of ``f"{v:.{d}f}"`` for every cell v of ``values``.

    Returns uint8 cells of shape ``values.shape + (width,)``: each cell's
    characters in order, with ``_PAD`` bytes where it is shorter than the
    widest or its words hold no digit. None when some cell is out of the
    exact range: not finite, or ``|v|·10**d >= 2**52``.

    ``p = |v|·10**d`` is the exact product P rounded once. Below 2**52 every
    half-integer is a float, and rounding to nearest never steps over a
    float, so ``rint(p)`` is P rounded half to even unless p is itself a
    half-integer. There P may lie either side of p, so those few cells take
    their digits from Python's own f-string. The rounded integer q is split
    once into its integer part and its d fraction digits. The integer part
    is printed in as many words as the largest one needs, lowest first: a
    word with digits above it shows all four of its digits, and the others
    show theirs without leading zeros (the units word keeps a "0"). The
    fraction, with zeros after it so that "." and its digits fill whole
    words, is printed lowest word first, the top one with its "." from
    ``_DOTTED``; the bytes that no cell prints, those zeros and the widest
    integer part's leading ``_PAD``, are cut off. The sign is the sign bit,
    so ``-0.0`` prints ``-0``; a block without one has no sign column.
    Integers at ``d = 0`` below 2**52 in size are exact already: q is |v|,
    and they skip the rounding.
    """
    v = np.asarray(values)
    if v.dtype.kind == "i" and d == 0 and -(2**52) < v.min(initial=0) <= v.max(initial=0) < 2**52:
        q, sign = np.abs(v).ravel(), (v < 0).ravel()  # printed as they are
    else:
        v = v.astype(np.float64, copy=False)
        if d > 22:  # 10**d is a float exactly up to 10**22
            return None
        with np.errstate(over="ignore"):
            p = np.abs(v) * float(10**d)
        if not (p < 2.0**52).all():
            return None
        r = np.rint(p)
        half = np.flatnonzero(np.abs(p - r) == 0.5)
        if half.size:
            r.flat[half] = [int(f"{x:.{d}f}".replace(".", "")) for x in np.abs(v.flat[half]).tolist()]
        q, sign = r.astype(np.int64).ravel(), np.signbit(v).ravel()
    # q < 2**52 < 10**16, so for every d >= 16 q's integer part is 0.
    scale = 10 ** min(d, 16)
    whole = q // scale
    # The d fraction digits, then t zeros, so that "." and the digits fill
    # whole words; the zeros are cut off again. frac < 2**52·10**3 < 2**63.
    t = -(d + 1) % 4 if d else 0
    frac = (q - whole * scale) * 10**t
    m = len(str(int(whole.max(initial=0))))
    high, low = -(-m // 4), -(-(d + 1) // 4) if d else 0
    words = np.empty((q.size, high + low), np.uint32)
    for j in reversed(range(high)):
        # w = 10**4·h + c, and w >= 10**4 + c exactly when h > 0.
        w, whole = whole, whole // 10**4
        at = np.minimum(w, w - whole * 10**4 + 10**4)
        words[:, j] = (_UNITS if j == high - 1 else _LEADING)[at]
    for j in reversed(range(high + 1, high + low)):
        w, frac = frac, frac // 10**4
        words[:, j] = _DIGITS[w - frac * 10**4]
    if d:
        words[:, high] = _DOTTED[frac]
    # No cell has digits in the widest one's leading _PAD bytes. The cells
    # are copied out of the words, so a block holds none of the bytes cut.
    cells = words.view(np.uint8)[:, 4 * high - m : 4 * (high + low) - t]
    if sign.any():
        cells = np.column_stack((np.where(sign, np.uint8(ord("-")), np.uint8(_PAD)), cells))
    else:
        cells = cells.copy()
    return cells.reshape(*v.shape, cells.shape[1])


def _text_cells(texts: Sequence[str]) -> np.ndarray:
    """The UTF-8 bytes of each text, one row each, padded with ``_PAD``."""
    raw = [t.encode() for t in texts]
    width = max(map(len, raw), default=0)
    joined = b"".join(b.ljust(width, bytes([_PAD])) for b in raw)
    return np.frombuffer(joined, np.uint8).reshape(len(raw), width)


# A field of a block of CSV lines: the _text_cells of some texts, or
# (values, d), numbers that print as f"{v:.{d}f}" of a float.
Field = np.ndarray | tuple[Any, int]


def _lines(shape: tuple[int, ...], *fields: Field) -> str:
    """One CSV line per index of ``shape``, in row-major order: each field's
    cells broadcast to ``shape + (their width,)``. A number field prints
    through ``_fixed_cells`` (an integer column at d = 0 straight from its
    digit words), or, when some cell of it is out of that kernel's exact
    range, as the ``_text_cells`` of its f-strings; both give the same bytes."""
    cells = []
    for f in fields:
        if not isinstance(f, np.ndarray):
            values, d = np.asarray(f[0]), f[1]
            f = _fixed_cells(values, d)
            if f is None:
                f = _text_cells([f"{v:.{d}f}" for v in values.ravel().astype(float).tolist()])
                f = f.reshape(*values.shape, f.shape[-1])
        cells.append(f)
    lines = np.empty((*shape, sum(c.shape[-1] + 1 for c in cells)), np.uint8)
    at = 0
    for c in cells:
        w = c.shape[-1]
        lines[..., at : at + w] = c
        lines[..., at + w] = ord(",")
        at += w + 1
    lines[..., -1] = ord("\n")
    flat = lines.ravel()
    return str(flat[flat != _PAD], "utf-8")


# Each output kind's CSV header; a selected kind is written to <kind>.csv.
# Energies print at 9 decimals and prices at the price quantum's decimals.
HEADERS = {
    "trades": (
        "round",
        "buyer",
        "seller",
        "job",
        "units",
        "price",
        "buyer_self_cost",
        "seller_cost",
        "system_energy_saved",
    ),
    "wealth": ("round", "player", "money", "energy_spent", "energy_saved"),
    "savings": ("round", "autarky_energy", "energy_expended", "energy_saved", "saved_fraction"),
    "density": ("job", "price", "mass"),
    "walk": ("trace", "step", "value"),
}
OUTPUT_KINDS = tuple(HEADERS)
