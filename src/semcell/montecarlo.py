"""Monte Carlo oracle for every closed-form probability in the package.

Simulation draws raw channel realizations (area-uniform user placement,
unit-mean exponential fading power) and evaluates outage/utilization
events directly from the similarity curve and the two rate formulas --
never from the piecewise branch tables or the SNR breakpoints the closed
forms use -- so an agreement check between the two is a genuine
cross-validation.

Cells: every sample is a cell of ``width`` users, one user for the
per-user events and ``num_users`` for :class:`ExactCount` and
:class:`RangeCount`.  Every event is "the cells of one width in which a
per-user indicator holds for lo to hi users"; a per-user event is the
range [1, 1] on cells of one user, so at ``num_users = 1`` a count event
and its per-user event count the same cells.

Reproducibility: samples are generated in fixed blocks of 2^16 cells.
Block b draws from a PCG64DXSM stream (O'Neill 2014) seeded by the b-th
spawned child of ``SeedSequence(seed)``, so its contents depend only on
(seed, b), never on which worker draws them.  The stream holds the U1 of
all the block's cells, then their U2, whatever the width.  Every value
sits at a fixed position of its stream, one 64-bit output per double,
and a PCG stream can jump ahead by any number of outputs, so the unit of
parallel work is a tile of about 2^16 SNR values: it opens the block's
stream at its own offset and draws only its cells, exactly the values a
sequential draw of the block puts there.  The tiles of every block are
dealt out together, so even a one-block sweep uses every worker.

Workers: each worker is a process forked from the caller and tallies a
fixed share of the tiles (every n-th one); the caller adds up the
workers' integer cell counts.  No tile depends on another and integer
sums do not depend on their order, so an estimate is bit-identical for
any worker count and any split of blocks into tiles.  The worker count
is capped by the CPUs this process may run on.  A worker's exception
reaches the caller, and every worker has exited when
:func:`estimate_many` returns or raises.  Where ``fork`` is missing
(Windows), the tiles run in the calling process.

Draw sharing: :func:`estimate_many` estimates a whole sweep in one call.
All grid points reuse one set of channel draws per block -- the draws
they already shared through identical (seed, block) keys -- and a point
whose SNR scale c_L R^(-a) differs from the first point's gets its SNRs
by one multiplication with the ratio of the two scales.  Every point's
odds scale in :func:`_curves` must lie within e^(+-_LOG_SCALE_LIMIT),
where the similarity is accurate: a point whose ratio leaves that range
computes its SNRs from the same draws at its own scale instead, and the
points after it scale those (see :func:`_draw_runs`).  A point at its
own scale has ratio 1 and odds scale e^(-c2), so a fit with |c2| beyond
about 673 is refused.  The Monte Carlo errors of the points of one sweep
are therefore correlated (common random numbers): a curve is smoother
than its per-point standard errors suggest, and its points are not
independent checks.

Evaluation: a tile raises its SNRs to the similarity curve's power
-10 c1 / ln 10 once, into the half of its draw buffer that held U1 (see
:func:`_odds`), so each point costs one log2, one divide and
multiplications over the tile (see :func:`_curves`).
tests/data/mc_reference pins the Monte Carlo columns of three sweeps
byte for byte.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .linkmodel import NetworkParams, mean_edge_snr, snr_scale
from .ratemodel import RateConfig, SimilarityFit, gamma_gap

BLOCK_SIZE = 1 << 16
SEED_LIMIT = 1 << 64  # seeds lie in [0, SEED_LIMIT)
_TILE_VALUES = 1 << 16  # SNR values per unit of parallel work, up to rounding
# |log of _curves' odds scale| up to which the similarity stays within 2^-53 (a2 - a1)
# of the logistic, also where the odds of the drawn SNRs leave the float range
_LOG_SCALE_LIMIT = math.log(sys.float_info.max) - 53.0 * math.log(2.0)

WORKERS_ENV_VAR = "SEMCELL_THREADS"


@dataclass(frozen=True)
class Scenario:
    """Everything the simulator needs: cell, similarity fit, rate config."""

    params: NetworkParams
    fit: SimilarityFit
    cfg: RateConfig


@dataclass(frozen=True)
class BitOutage:
    """Per-user event: bit rate at or below the outage rate threshold."""


@dataclass(frozen=True)
class SemOutage:
    """Per-user event: semantic rate at or below the threshold, or
    similarity QoS missed (outage of a pure semantic user)."""


@dataclass(frozen=True)
class HybridOutage:
    """Per-user event: the preferred mode's rate is at or below the
    threshold (semantic inside the semantic-preference window, bit
    outside it)."""


@dataclass(frozen=True)
class SemUtilization:
    """Per-user event: served semantically above the outage rate."""


UserEvent = BitOutage | SemOutage | HybridOutage | SemUtilization


@dataclass(frozen=True)
class ExactCount:
    """Cell-level event: the per-user indicator holds for exactly
    ``count`` of the L users of one realization."""

    count: int
    indicator: UserEvent = field(default_factory=HybridOutage)


@dataclass(frozen=True)
class RangeCount:
    """Cell-level event: the per-user indicator count lands in
    [count_lo, count_hi]."""

    count_lo: int
    count_hi: int
    indicator: UserEvent = field(default_factory=HybridOutage)


Event = UserEvent | ExactCount | RangeCount


@dataclass(frozen=True)
class McEstimate:
    """Probability estimate with its binomial standard error."""

    estimate: float
    std_error: float


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers() -> int:
    """Requested worker count: SEMCELL_THREADS, else the number of CPUs this
    process may run on.

    Workers are processes; SEMCELL_THREADS keeps its name from when they
    were threads.  :func:`estimate_many` starts at most one per usable CPU
    and per tile, whatever is requested here.
    """
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from exc
        if value < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
        return value
    return _usable_cpus()


def user_stream(seed: int, block_index: int, offset: int = 0) -> np.random.Generator:
    """Random stream for one sample block.

    PCG64DXSM seeded by child ``block_index`` of ``SeedSequence(seed)``
    (the child :meth:`SeedSequence.spawn` makes): block contents depend
    only on those two integers, never on which worker draws them.  The
    stream starts ``offset`` values into the block's sequence, at the
    values a sequential draw puts there; each double takes one 64-bit
    output, so any offset >= 0 works.
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    bit_generator = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(block_index,)))
    if offset:
        bit_generator.advance(offset)
    return np.random.Generator(bit_generator)


def sample_user(stream: np.random.Generator, params: NetworkParams, size,
                u2_offset: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Draw received SNRs, shaped ``size``, of uniformly placed users with Rayleigh fading.

    r = R sqrt(U1) (area-uniform disc), |h|^2 = -ln(1 - U2) (unit-mean
    exponential by inverse transform), g = c_L |h|^2 r^(-a), computed as
    c_L R^(-a) |h|^2 U1^(-a/2) with one power per draw.

    All U1 come first, then all U2.  By default U2 follows U1 directly;
    ``u2_offset`` puts the first U2 that many values after the first U1,
    as in the U2 run of a longer sequential draw, and must be at least
    the number of U1 values; it needs a stream that can jump ahead (see
    :func:`user_stream`).  ``out``, shaped (2, *size), holds U1 and U2
    instead of new arrays; the SNRs come back in ``out[1]``.
    """
    u1 = stream.random(size, out=None if out is None else out[0])
    if u2_offset is not None:
        if u2_offset < u1.size:
            raise ValueError(f"u2_offset must be at least {u1.size}, got {u2_offset}")
        stream.bit_generator.advance(u2_offset - u1.size)
    u2 = stream.random(size, out=None if out is None else out[1])
    # U1 == 0 has probability zero but a float can land on it: the SNR is +inf
    at_origin = not u1.all()
    # in place, so two arrays stay live: U1^(-a/2) in u1, the fading gain and then g in u2
    g = np.log1p(np.negative(u2, out=u2), out=u2)
    np.multiply(g, -mean_edge_snr(params), out=g)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        near = np.power(u1, -0.5 * params.pathloss_exp, out=u1)
        np.multiply(g, near, out=g)
    if at_origin:
        g[near == np.inf] = np.inf
    return g


def _odds(g: np.ndarray, fit: SimilarityFit, out: np.ndarray | None = None) -> np.ndarray:
    """e^(-c1 10 log10 g) = g^(-10 c1 / ln 10): the odds against the
    similarity curve's logistic at SNR g, before its factor e^(-c2).

    Taken once per tile.  Inf at g = 0 and 0 at g = inf, never NaN on
    the SNRs :func:`sample_user` draws (in [0, inf]); it leaves the float
    range where |c1 10 log10 g| exceeds about 709, far beyond the
    logistic's transition.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return np.power(g, -10.0 * fit.c1 / math.log(10.0), out=out)


def _curves(g0: np.ndarray, odds0: np.ndarray, scenario: Scenario, ratio: float, gap: float,
            m: np.ndarray, rate_sem: np.ndarray, rate_bit: np.ndarray) -> None:
    """Similarity, semantic rate and bit rate at SNR g0 * ratio, into the last three arguments.

    ``odds0`` is :func:`_odds` of g0, so a point costs one log2 and one
    divide.  Operation by operation, in this order:

    * rate_bit = log2(1 + g0 * (ratio / gap)) * (1 / mu);
    * m = a1 + (a2 - a1) / (1 + odds0 * e^(-10 c1 log10(ratio) - c2)),
      the logistic of z = c1 10 log10(g0 ratio) + c2, whose odds e^(-z)
      are odds0 times one scale per point;
    * rate_sem = m * (1 / k).

    ``ratio`` is one that :func:`_snr_ratio` accepts, so the scale lies
    within e^(+-_LOG_SCALE_LIMIT): it is positive and finite, the odds
    are never NaN, and m = a1 at g0 = 0 and m = a1 + (a2 - a1) at g0 = inf.
    """
    fit, cfg = scenario.fit, scenario.cfg
    scale = math.exp(-10.0 * fit.c1 * math.log10(ratio) - fit.c2)
    with np.errstate(over="ignore"):
        np.multiply(g0, ratio / gap, out=rate_bit)
        np.add(rate_bit, 1.0, out=rate_bit)
        np.log2(rate_bit, out=rate_bit)
        np.multiply(rate_bit, 1.0 / cfg.mu, out=rate_bit)
        np.multiply(odds0, scale, out=m)
        np.add(m, 1.0, out=m)
        np.divide(fit.a2 - fit.a1, m, out=m)
        np.add(m, fit.a1, out=m)
    np.multiply(m, 1.0 / fit.k, out=rate_sem)


def _indicators(kinds: list[type], m: np.ndarray, rate_sem: np.ndarray,
                rate_bit: np.ndarray, cfg: RateConfig) -> list[np.ndarray]:
    """Per-user indicator of each event type in ``kinds``, from the three curves.

    Each rate is compared with r_out once: the hybrid outage is the bit
    outage, switched to the semantic one where the semantic mode is preferred.
    Every event set a sweep asks for needs all three comparisons at each
    cell width.
    """
    r_out, m_th = cfg.r_out, cfg.m_th
    bit_low = rate_bit <= r_out
    sem_low = rate_sem <= r_out
    prefers_sem = m >= m_th
    prefers_sem &= rate_sem >= rate_bit
    out = []
    for kind in kinds:
        if kind is BitOutage:
            out.append(bit_low)
        elif kind is SemOutage:
            out.append(sem_low | (m <= m_th))
        elif kind is HybridOutage:
            out.append(bit_low ^ (prefers_sem & (sem_low ^ bit_low)))
        else:
            out.append(prefers_sem & ~sem_low)
    return out


@dataclass(frozen=True)
class _Tile:
    """``rows`` cells of ``width`` users of one block, from cell ``first`` on.

    A block's stream holds the U1 of its BLOCK_SIZE cells, then their U2,
    each cell's ``width`` values in a row.  The tile's U1 values start
    ``width * first`` values into the stream, its U2 values
    ``width * BLOCK_SIZE`` values after them.
    """

    block: int
    width: int
    first: int
    rows: int


def _tiles(n: int, widths: list[int]) -> list[_Tile]:
    """Near-equal tiles of about _TILE_VALUES values covering n cells of each width."""
    tiles = []
    for block in range(-(-n // BLOCK_SIZE)):
        rows = min(BLOCK_SIZE, n - block * BLOCK_SIZE)
        for width in widths:
            pieces = -(-rows * width // _TILE_VALUES)
            step = -(-rows // pieces)
            tiles += [_Tile(block, width, first, min(step, rows - first))
                      for first in range(0, rows, step)]
    return tiles


def _tally_tiles(tiles: list[_Tile], seed: int, points: list[tuple[Scenario, float, float]],
                 ranges: dict[int, dict[type, list[tuple[int, int, int]]]]) -> np.ndarray:
    """tally[point, j]: cells over ``tiles`` whose indicator count lies in range j.

    ``ranges[width][kind]`` lists (j, lo, hi): range j counts the cells of
    ``width`` users in which the indicator of ``kind`` holds for lo to hi
    users.  The draw and curve buffers hold as many values as the largest
    tile and serve every tile.  A tile is evaluated users-major, so a
    cell's count is a sum down one column.
    """
    params, fit = points[0][0].params, points[0][0].fit
    tally = np.zeros((len(points), sum(len(r) for k in ranges.values() for r in k.values())),
                     dtype=np.int64)
    count_type = np.min_scalar_type(params.num_users)  # holds any count, narrow for a fast sum
    largest = max((t.width * t.rows for t in tiles), default=0)
    draws, users_major, work = np.empty(2 * largest), np.empty(largest), np.empty(3 * largest)
    for tile in tiles:
        width, rows = tile.width, tile.rows
        size = width * rows
        g0 = sample_user(user_stream(seed, tile.block, width * tile.first), params,
                         size=(rows, width), u2_offset=width * BLOCK_SIZE,
                         out=draws[:2 * size].reshape(2, rows, width))
        cells = users_major[:size].reshape(width, rows)
        np.copyto(cells, g0.T)
        # the U1 half of the draw buffer is dead once the SNRs are drawn
        odds0 = _odds(cells, fit, out=draws[:size].reshape(width, rows))
        m, rate_sem, rate_bit = work[:3 * size].reshape(3, width, rows)
        kinds = ranges[width]
        for p, (scenario, ratio, gap) in enumerate(points):
            _curves(cells, odds0, scenario, ratio, gap, m, rate_sem, rate_bit)
            flags = _indicators(list(kinds), m, rate_sem, rate_bit, scenario.cfg)
            for flag, kind_ranges in zip(flags, kinds.values()):
                counts = flag.view(np.uint8).sum(axis=0, dtype=count_type)
                for j, lo, hi in kind_ranges:
                    tally[p, j] += np.count_nonzero((counts >= lo) & (counts <= hi))
    return tally


def _cell_event(event: Event, num_users: int) -> tuple[int, type, int, int]:
    """(width, kind, lo, hi): ``event`` holds for a cell of ``width`` users in
    which the per-user event ``kind`` holds for lo to hi of them."""
    if isinstance(event, UserEvent):
        return 1, type(event), 1, 1
    if isinstance(event, ExactCount):
        lo = hi = event.count
    elif isinstance(event, RangeCount):
        lo, hi = event.count_lo, event.count_hi
    else:
        raise TypeError(f"unknown event {event!r}")
    if not 0 <= lo <= hi <= num_users:
        raise ValueError(f"count range [{lo}, {hi}] must satisfy 0 <= lo <= hi <= {num_users}")
    if not isinstance(event.indicator, UserEvent):
        raise TypeError(f"indicator must be a per-user event, got {event.indicator!r}")
    return num_users, type(event.indicator), lo, hi


def _shared(scenario: Scenario) -> tuple:
    return scenario.params.num_users, scenario.params.pathloss_exp, scenario.fit


def _snr_ratio(scenario: Scenario, reference: Scenario) -> float | None:
    """c_L R^(-a) of ``scenario`` over that of ``reference``, by which the
    reference's SNRs scale to the scenario's; None where :func:`_curves`
    would not be accurate at that ratio.

    The ratio must be a normal float whose odds scale,
    e^-(10 c1 log10(ratio) + c2), lies within e^(+-_LOG_SCALE_LIMIT); at
    ratio 1, a run's first point, that reads |c2| <= _LOG_SCALE_LIMIT.
    There the similarity is accurate for every drawn SNR: where the odds
    of a drawn SNR leave the float range, the logistic at the scaled SNR
    is still within 2^-53 (a2 - a1) of the asymptote they give.
    """
    p, p0 = scenario.params, reference.params
    try:
        # two ratios, so that neither scale can underflow
        ratio = (snr_scale(p) / snr_scale(p0)
                 * (p.cell_radius_m / p0.cell_radius_m) ** (-p0.pathloss_exp))
    except OverflowError:
        return None
    fit = scenario.fit
    if (sys.float_info.min <= ratio < math.inf
            and abs(10.0 * fit.c1 * math.log10(ratio) + fit.c2) <= _LOG_SCALE_LIMIT):
        return ratio
    return None


def _draw_runs(scenarios: list[Scenario]) -> list[list[tuple[Scenario, float, float]]]:
    """The points (scenario, ratio, gap) in runs of consecutive scenarios
    that share one set of SNRs: a run's first point computes its SNRs from
    the draws at its own scale, and each later one scales them by its
    :func:`_snr_ratio` to the first.  A point whose ratio is None starts
    a new run."""
    runs = []
    for s in scenarios:
        ratio = _snr_ratio(s, runs[-1][0][0]) if runs else None
        if ratio is None:
            runs.append([])
            ratio = 1.0
        runs[-1].append((s, ratio, gamma_gap(s.cfg)))
    return runs


def estimate_many(events: list[Event], n: int, seed: int,
                  scenarios: list[Scenario]) -> list[list[McEstimate]]:
    """Estimate several events at several grid points from shared draws.

    Returns one list per scenario, one estimate per event.  The scenarios
    must share ``num_users``, ``pathloss_exp`` and ``fit``.  Events are
    grouped by cell width, and the events of one width share its draws
    and one tally per distinct (indicator, count range).  Each event
    at each point sees the samples a one-event, one-point call would draw
    for it, the SNRs scaled by c_L R^(-a) of that point over c_L R^(-a)
    of the first point of its run (see :func:`_draw_runs`); on points with
    the network parameters of their run's first point the estimates are
    exactly that call's.  A fit with |c2| > _LOG_SCALE_LIMIT raises
    ValueError: :func:`_snr_ratio` rejects its odds scale e^(-c2) at ratio 1.
    A sample is a cell of one user for per-user events and of num_users
    users for the count events.  SEMCELL_THREADS (see
    :func:`resolve_workers`) sets the worker processes, at most one per
    usable CPU and per tile.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    scenarios = list(scenarios)
    if not scenarios:
        return []
    first = scenarios[0]
    if any(_shared(s) != _shared(first) for s in scenarios[1:]):
        raise ValueError("the scenarios of one sweep must share num_users, pathloss_exp and fit")
    if abs(first.fit.c2) > _LOG_SCALE_LIMIT:  # the rule of _snr_ratio at a run's first point
        raise ValueError(f"similarity_fit.c2: the Monte Carlo oracle needs |c2| <= "
                         f"{_LOG_SCALE_LIMIT:.2f}, got {first.fit.c2!r}")
    cell_events = [_cell_event(e, first.params.num_users) for e in events]
    if not events:
        return [[] for _ in scenarios]
    keys = list(dict.fromkeys(cell_events))
    ranges = {}
    for j, (width, kind, lo, hi) in enumerate(keys):
        ranges.setdefault(width, {}).setdefault(kind, []).append((j, lo, hi))
    runs = _draw_runs(scenarios)
    tiles = _tiles(n, list(ranges))
    n_workers = min(resolve_workers(), _usable_cpus(), len(tiles))
    if n_workers <= 1 or not hasattr(os, "fork"):
        tallies = [_tally_tiles(tiles, seed, points, ranges) for points in runs]
    else:
        # imported here, so that no command pays for it at start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a worker starts from this process's imports, not a fresh numpy import
        with ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [[pool.submit(_tally_tiles, tiles[w::n_workers], seed, points, ranges)
                        for w in range(n_workers)] for points in runs]
            tallies = [sum(f.result() for f in run) for run in futures]
    totals = np.concatenate(tallies)
    columns = [keys.index(c) for c in cell_events]
    results = []
    for row in totals:
        p_hats = [int(row[j]) / n for j in columns]
        results.append([McEstimate(p, math.sqrt(p * (1.0 - p) / n)) for p in p_hats])
    return results

