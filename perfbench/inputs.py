"""Seeded inputs for the three benchmark phases.

Every generator is a pure function of its arguments: the same seed
gives the same geometry, queries and traffic.  The program under test
only ever sees the generated instances and requests.

The seed chooses where every instance sits, never what it is: shapes,
corpus composition and request order come from fixed streams, and the
seed translates each instance.  Every seed therefore brings new content
keys (nothing is cached across seeds) but the same topology, so the
same work, and runs with different seeds differ only by measurement
noise.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from repro import Rect, SpatialInstance
from repro.datasets import (
    circle_chain,
    fig_1a,
    fig_1b,
    fig_1c,
    fig_1d,
    grid_instance,
    grid_of_squares,
    mixed_corpus,
    nested_rings,
    overlap_chain,
    random_rectangles,
)
from repro.logic import (
    connected_intersection_query,
    parse,
    triple_intersection_query,
)
from repro.transforms import AffineMap


def translated(instance: SpatialInstance, dx: int, dy: int) -> SpatialInstance:
    """*instance* shifted by (dx, dy): same topology, new content key.

    Rectangles stay rectangles, so a translated grid costs the
    arrangement exactly what the original does."""
    shift = AffineMap.translation(dx, dy)

    def move(_name, region):
        if isinstance(region, Rect):
            return Rect(
                region.x1 + dx, region.y1 + dy, region.x2 + dx, region.y2 + dy
            )
        return shift.apply_to_region(region)

    return instance.map_regions(move)


# -- ingest ------------------------------------------------------------------


@dataclass(frozen=True)
class IngestSize:
    mixed: int
    grids: tuple[int, ...]


INGEST_SIZES = {
    # A full round takes about 2 s on one core (the k = 14 grid alone
    # 1.5 s), so a run has several rounds to take medians over.
    "full": IngestSize(mixed=120, grids=(6, 14)),
    "light": IngestSize(mixed=40, grids=(6,)),
    "tiny": IngestSize(mixed=12, grids=(3,)),
}


def ingest_batches(
    seed: int, rnd: int, size: IngestSize
) -> list[list[SpatialInstance]]:
    """Round *rnd*'s corpus, in the batches it is loaded in: first
    ``mixed_corpus`` (with its in-batch duplicates and translated
    copies) moved by one seeded offset, then each ``grid_instance`` grid
    at a seeded translation.  Every round loads the same topology at new
    keys."""
    rng = random.Random(seed * 1000 + rnd)
    dx, dy = rng.randrange(1, 5000), rng.randrange(1, 5000)
    batches = [[translated(inst, dx, dy) for inst in mixed_corpus(size.mixed)]]
    for k in size.grids:
        batches.append(
            [translated(grid_instance(k), rng.randrange(1, 5000), rng.randrange(1, 5000))]
        )
    return batches


# -- serve -------------------------------------------------------------------

# Instance i of a working set comes from family i mod 5.
_FAMILIES = (
    lambda rng: overlap_chain(rng.randrange(2, 5)),
    lambda rng: nested_rings(rng.randrange(2, 5)),
    lambda rng: grid_of_squares(rng.randrange(1, 3), rng.randrange(1, 4)),
    lambda rng: random_rectangles(rng.randrange(2, 5), seed=rng.randrange(10_000)),
    lambda rng: circle_chain(rng.randrange(1, 3), vertices=8),
)

# Sentences that apply to any instance: name quantifiers only.
GENERIC_QUERIES = (
    "exists name a, b . not (a = b) and overlap(a, b)",
    "forall name a . exists r . subset(r, a)",
    "exists name a, b . not (a = b) and contains(a, b)",
)


def small_instances(seed: int, n: int) -> list[SpatialInstance]:
    """The *n* instances of a serve working set.  Instance i sits in its
    own 1000-wide strip of x, so no two share a content key."""
    shapes, moves = random.Random(0), random.Random(seed)
    return [
        translated(
            _FAMILIES[i % len(_FAMILIES)](shapes),
            1000 * i + moves.randrange(500),
            moves.randrange(500),
        )
        for i in range(n)
    ]


def fresh_instance(seed: int, index: int) -> SpatialInstance:
    """The never-seen geometry of fresh request *index*: far to the
    right of the working set, one strip per index.  Every fresh
    instance has the same shape, so fresh writes cost alike and their
    median latency does not jump between the families' costs."""
    moves = random.Random(seed * 1_000_003 + index)
    return translated(
        overlap_chain(3),
        10_000_000 + 1000 * index + moves.randrange(500),
        moves.randrange(500),
    )


def cell_queries(instance: SpatialInstance) -> list:
    """The cell-semantics sentences asked of one instance: the generic
    name queries, plus Example 4.1 (triple intersection) and Example
    4.2 (connected intersection) over its first region names."""
    names = sorted(instance.names())
    out = [parse(q) for q in GENERIC_QUERIES]
    if len(names) >= 3:
        out.append(triple_intersection_query(*names[:3]))
    if len(names) >= 2:
        out.append(connected_intersection_query(*names[:2]))
    return out


@dataclass(frozen=True)
class ServeSize:
    instances: int
    cache_size: int
    fixed_requests: tuple[int, int]  # closed, open; traced runs


# The working set is larger than the 64-entry universe cache and than
# the pipeline's invariant cache (sized with ``cache_size``), so the
# Zipf tail is served by the store and by universe rebuilds.
SERVE_SIZES = {
    "full": ServeSize(instances=240, cache_size=32, fixed_requests=(600, 600)),
    "light": ServeSize(instances=100, cache_size=16, fixed_requests=(150, 200)),
    "tiny": ServeSize(instances=12, cache_size=4, fixed_requests=(30, 30)),
}
# The closed loop's size: this many requests per second of its share of
# a segment, about its capacity at full size on two cores.  A fixed
# count, not a time box, so every run sends the same requests and meets
# the same cache states.
CLOSED_RATE_RPS = 600
# The open loop's rate, requests per second: a fifth of the closed-loop
# capacity (about 600/s at full size, at the reference speed), where
# open-loop medians hold steady.
OPEN_RATE_RPS = 120.0

# Request mix: (kind, share).  "fresh" registers never-seen geometry
# and asks its invariant: the write share.
SERVE_MIX = (("cells", 0.50), ("invariant", 0.25), ("equivalent", 0.20), ("fresh", 0.05))


def zipf_sampler(rng: random.Random, n: int, s: float = 1.0):
    """Draw ranks 0..n-1 with P(rank i) proportional to 1/(i+1)^s."""
    cum, acc = [], 0.0
    for i in range(n):
        acc += 1.0 / (i + 1) ** s
        cum.append(acc)
    return lambda: min(n - 1, bisect.bisect_left(cum, rng.random() * acc))


def traffic(
    stream: int, names: list[str], queries: dict[str, int], n: int, fresh_base: int
) -> list[tuple]:
    """*n* requests of random stream *stream*: Zipf-skewed over a
    permutation of *names*.

    Ops are ``("cells", name, query_index)``, ``("invariant", name)``,
    ``("equivalent", name_a, name_b)`` and ``("fresh", index)``; fresh
    indices count up from *fresh_base*, so each one is new geometry.
    An instance with no askable sentence gets an invariant lookup in
    place of a cells request.
    """
    rng = random.Random(stream)
    order = list(names)
    rng.shuffle(order)
    draw = zipf_sampler(rng, len(order))
    kinds = [k for k, _ in SERVE_MIX]
    shares = [w for _, w in SERVE_MIX]
    ops: list[tuple] = []
    fresh = fresh_base
    for _ in range(n):
        kind = rng.choices(kinds, shares)[0]
        if kind == "cells":
            name = order[draw()]
            if queries[name]:
                ops.append(("cells", name, rng.randrange(queries[name])))
            else:
                ops.append(("invariant", name))
        elif kind == "invariant":
            ops.append(("invariant", order[draw()]))
        elif kind == "equivalent":
            ops.append(("equivalent", order[draw()], order[draw()]))
        else:
            ops.append(("fresh", fresh))
            fresh += 1
    return ops


# -- query -------------------------------------------------------------------

# The paper's Example 4.1 / 4.2 sentences over figures 1a-1d and a
# 4-square chain, with the answers the paper gives.
QUERY_CASES = (
    ("fig_1a/triple", fig_1a, triple_intersection_query, True),
    ("fig_1b/triple", fig_1b, triple_intersection_query, False),
    ("fig_1c/connected", fig_1c, connected_intersection_query, True),
    ("fig_1d/connected", fig_1d, connected_intersection_query, False),
    (
        "chain4/triple",
        lambda: overlap_chain(4),
        lambda: triple_intersection_query("R000", "R001", "R002"),
        False,
    ),
    (
        "chain4/connected",
        lambda: overlap_chain(4),
        lambda: connected_intersection_query("R000", "R001"),
        True,
    ),
)


@dataclass(frozen=True)
class QuerySize:
    cases: tuple[str, ...]


# Evaluated with the library defaults: refinement 0, no face cap.
QUERY_SIZES = {
    "light": QuerySize(tuple(c[0] for c in QUERY_CASES)),
    "tiny": QuerySize(("fig_1a/triple", "fig_1c/connected")),
}


def query_round(seed: int, size: QuerySize) -> list[tuple]:
    """``(label, instance, sentence, expected)`` for one pass, every
    instance translated by a seeded offset so its universe is new."""
    rng = random.Random(seed)
    out = []
    for label, make_instance, make_query, expected in QUERY_CASES:
        if label in size.cases:
            inst = translated(
                make_instance(), rng.randrange(1, 10_000), rng.randrange(1, 10_000)
            )
            out.append((label, inst, make_query(), expected))
    return out
