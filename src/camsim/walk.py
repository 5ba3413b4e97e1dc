"""Noisy price estimation as a mean-reverting random walk.

Players do not know true prices; each carries a Gaussian-noised estimate
that drifts back toward the true value over time:

    x[t+1] = (1 - eta) * x[t] + eta * true_price + sigma * z[t]

For 0 < eta < 2 the recursion is stable with stationary mean equal to the
true price and stationary variance sigma^2 / (eta * (2 - eta)), which
serves as the closed-form oracle for simulated traces. Estimates are
prices, so negative values are clamped to zero and counted; stationary
statistics are only trusted when sigma is small against the true price
and clamping is vanishingly rare.

``simulate_walk`` generates a trace (its values and how many of them were
clamped), ``stationary_stats`` gives the closed-form moments, and
``derive_trace_seed`` spawns each trace's seed from the scenario's master
seed.

A trace is the recursion stepped one value at a time, bit for bit. Each
step rounds from the last and the clamp makes the recursion sequential,
but a start error shrinks by |1 - eta| per step until two runs round to
the same float. So a long trace is stepped in lanes side by side, each
lane after the first started from a guess over the positions of the lane
before it, and one array pass checks every value against the step from
the value before it; the per-step loop takes over from the first value
that fails, and takes traces too short, or mixing too slowly, for lanes.
``check_walk_bound`` refuses a walk whose values could overflow a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import WalkParams


@dataclass(frozen=True)
class WalkTrace:
    values: np.ndarray
    clamped: int


def simulate_walk(
    params: WalkParams,
    steps: int,
    seed: int | np.random.Generator,
    start: float | None = None,
) -> WalkTrace:
    """Generate a reproducible trace of ``steps`` values after ``start``.

    The values are those of the recursion stepped one value at a time,
    ``x = max(fl(fl((1 - eta)·x) + d), 0)``, bit for bit, clamps counted.
    A trace of at least ``_MIN_LANES`` lane widths is first stepped in lanes
    side by side (``_lanes``), then checked against that recursion in one
    array pass (``_verified``); from the first value that fails, and for
    shorter traces or slower mixing, the per-step loop goes on. ``seed`` is
    a trace seed, or the generator of a trace already begun: pieces drawn
    from one generator, each starting from the last value of the piece
    before, are the trace drawn whole.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    current = params.true_price if start is None else start
    rng = seed
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    noise = params.sigma * rng.standard_normal(steps)
    drive = params.eta * params.true_price + noise
    decay = 1.0 - params.eta
    width = _overlap(decay)
    first, clamped = 0, 0
    if steps >= _MIN_LANES * width:
        with np.errstate(over="ignore", invalid="ignore"):  # as the loop, which warns of neither
            values = _lanes(drive, decay, current, params.true_price, width)
            first, clamped = _verified(values, drive, decay, current)
    else:
        values = np.empty(steps)
    if first < steps:
        last = current if first == 0 else float(values[first - 1])
        values[first:], more = _walk_by_step(drive[first:], decay, last)
        clamped += more
    return WalkTrace(values=values, clamped=clamped)


# A start error shrinks by |1 - eta| per step, so after _overlap(1 - eta)
# steps it is below 2**-64 of what it was: from then on a lane started from
# a guess holds the same floats as one started from the true value. The
# lanes pay off from _MIN_LANES of them; below that the loop is faster.
_OVERLAP_BITS = 64
_MIN_LANES = 64


def _overlap(decay: float) -> float:
    """The fewest steps w with ``|decay|**w <= 2**-_OVERLAP_BITS``; inf when
    ``|decay|`` rounds to 1."""
    if decay == 0:
        return 1
    shrink = -math.log(abs(decay))
    return math.ceil(_OVERLAP_BITS * math.log(2) / shrink) if shrink > 0 else math.inf


def _step(x: np.ndarray, decay: float, d: np.ndarray, out: np.ndarray) -> None:
    """One step of every lane: ``out = max(fl(fl(decay·x) + d), 0)``."""
    np.multiply(x, decay, out=out)
    np.add(out, d, out=out)
    np.maximum(out, 0.0, out=out)


def _lanes(drive: np.ndarray, decay: float, start: float, guess: float, width: int) -> np.ndarray:
    """The recursion over ``drive`` in lanes of ``width`` positions, stepped
    side by side, one numpy step per position of a lane.

    Lane 0 starts from ``start``. Every other lane starts from ``guess`` a
    lane early and warms up over the positions of the lane before, so its
    start error has shrunk by ``|decay|**width`` when its own positions
    begin. Returns the value at each position of ``drive``; only
    ``_verified`` tells which of them are the recursion's.
    """
    n = drive.size
    lanes = -(-n // width)
    padded = np.zeros(lanes * width)
    padded[:n] = drive
    grid = np.ascontiguousarray(padded.reshape(lanes, width).T)  # [j, k] is position k·width + j
    x = np.full(lanes, guess)
    x[0] = start
    warm = x[1:]
    for d in grid[:, :-1]:
        _step(warm, decay, d, warm)
    out = np.empty_like(grid)
    for d, row in zip(grid, out):
        _step(x, decay, d, row)
        x = row
    return out.T.ravel()[:n]


def _verified(values: np.ndarray, drive: np.ndarray, decay: float, start: float) -> tuple[int, int]:
    """How many leading ``values`` are the recursion's from ``start`` bit for
    bit, and how many of those it clamped: one array pass computes every
    step from the value before it."""
    stepped = np.empty_like(values)
    stepped[0] = start
    stepped[1:] = values[:-1]
    np.multiply(stepped, decay, out=stepped)
    stepped += drive
    clamps = stepped < 0
    np.maximum(stepped, 0.0, out=stepped)
    wrong = stepped.view(np.uint64) != values.view(np.uint64)
    first = int(wrong.argmax()) if wrong.any() else values.size
    return first, int(np.count_nonzero(clamps[:first]))


def _walk_by_step(drive: np.ndarray, decay: float, current: float) -> tuple[list[float], int]:
    """The recursion over ``drive`` from ``current``, one value at a time,
    and how many values it clamped."""
    values = []
    clamped = 0
    for d in drive.tolist():
        current = decay * current + d
        if current < 0:
            current = 0.0
            clamped += 1
        values.append(current)
    return values, clamped


# numpy's standard_normal never returns |z| >= 12.3: its ziggurat tail adds
# to r = 3.654 an x with x**2 < 2·53·ln 2. 16 bounds every draw.
_Z_BOUND = 16.0


def check_walk_bound(params: WalkParams) -> None:
    """Raise ValueError if a trace of ``params`` from its true price could overflow a float.

    Every drive is at most ``D = eta·true_price + 16·sigma`` in size, and
    every value is >= 0 after the clamp. For eta <= 1 a step gives at most
    ``(1 - eta)·x + D``, so no value exceeds ``max(true_price, D / eta)``;
    for eta > 1 ``(1 - eta)·x <= 0``, so none exceeds ``max(true_price, D)``.
    Both are below ``B = true_price + D / min(eta, 1)``, and no unclamped
    sum exceeds 2·B in size. The walk is refused unless ``B < 2**1020``,
    which leaves room for rounding.
    """
    eta, price = params.eta, params.true_price
    bound = price + (eta * price + _Z_BOUND * params.sigma) / min(eta, 1.0)
    if not bound < 2.0**1020:
        raise ValueError(
            "walk: true_price + (eta * true_price + 16 * sigma) / min(eta, 1)"
            " must be below 2**1020, or its values could overflow"
        )


def stationary_stats(params: WalkParams) -> tuple[float, float]:
    """Exact stationary mean and variance of the unclamped recursion."""
    variance = params.sigma**2 / (params.eta * (2.0 - params.eta))
    return params.true_price, variance


def derive_trace_seed(master_seed: int, trace_index: int) -> int:
    """Deterministic per-trace seed from a master seed and trace index."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(2, trace_index))
    return int(ss.generate_state(1)[0])
