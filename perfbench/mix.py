"""Seeded workload inputs drawn from fixed, reference-recorded pools.

Every request a run can send comes from a pool defined here, and
``perfbench/reference.json`` holds the recorded answer for each pool entry,
so a run at any workload seed is checked.  The workload seed only chooses
which entries are sent and in what order; the program under test receives
nothing but these generated requests.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from perfbench.harness import encode_request, json_request

# -- cold-analyze ----------------------------------------------------------------------

#: Scale of every measured cold compute (23.6k recipes).
COLD_SCALE = 0.2
#: Corpus seeds with recorded references; a run draws a seeded permutation.
COLD_SEEDS = tuple(range(1001, 1065))
#: The warm-up compute in set-up: imports, pool start-up and first-call costs.
WARMUP_CONFIG = {"seed": 7, "scale": 0.02}

# -- read-mix --------------------------------------------------------------------------

READ_CONFIGS = (
    {"seed": 2020, "scale": 0.05},
    {"seed": 2020, "scale": 0.05, "linkage_method": "complete"},
    {"seed": 2020, "scale": 0.05, "min_support": 0.25},
)
#: Zipf(1) popularity of the read configs, most popular first.
ZIPF_WEIGHTS = tuple(1.0 / rank for rank in range(1, len(READ_CONFIGS) + 1))
#: Category shares of the read mix.  Within a category every choice is
#: uniform: the five query ops, the 64 batch sizes and the two probes.
READ_SHARES = (
    ("query", 0.60),
    ("classify", 0.22),
    ("analyze", 0.10),
    ("probe", 0.03),
    ("malformed", 0.05),
)
QUERY_OPS = ("nearest", "patterns", "top-patterns", "authenticity", "cuisine")
CUISINES = (
    "Australian", "Belgian", "Canadian", "Caribbean", "Central American",
    "Chinese and Mongolian", "Deutschland", "Eastern European", "French", "Greek",
    "Indian Subcontinent", "Irish", "Italian", "Japanese", "Korean", "Mexican",
    "Middle Eastern", "Northern Africa", "Rest Africa", "Scandinavian",
    "South American", "Southeast Asian", "Spanish and Portuguese", "Thai", "UK", "US",
)
FIGURES = ("figure2", "figure3", "figure4", "figure5", "figure6")
ITEMS = (
    "salt", "onion", "butter", "garlic clove", "sugar", "olive oil", "soy sauce",
    "cumin", "ginger", "lime juice", "tomato", "flour", "cream", "egg", "sesame oil",
    "fish sauce", "coconut milk", "cilantro", "potato", "lemon juice", "mirin",
    "maple syrup", "feta cheese", "parmesan cheese", "turmeric", "basil",
    "smoked paprika", "scotch bonnet", "sauerkraut", "beet", "lemongrass",
    "jalapeno", "nori", "wasabi", "dragon fruit jam",
)
#: One fixed classify batch per size from 1 to 64 recipes.
BATCH_SIZES = tuple(range(1, 65))
#: Ingredients per generated recipe; the benchmark's own choice.
RECIPE_ITEMS = (3, 8)
#: Length of a generated read trace; a run that exhausts it starts over.
READ_TRACE_LENGTH = 100_000


@dataclass(frozen=True)
class Request:
    """One pool entry: a stable id, the raw request and its expected status."""

    id: str
    raw: bytes
    status: int
    category: str
    #: How the 200 body is compared: "exact" (whole canonical body),
    #: "analyze", "healthz" or "stats" (volatile fields dropped first).
    check: str = "exact"


def _batches() -> tuple[tuple[tuple[str, ...], ...], ...]:
    rng = random.Random(20_201)
    return tuple(
        tuple(tuple(rng.sample(ITEMS, rng.randint(*RECIPE_ITEMS))) for _ in range(size))
        for size in BATCH_SIZES
    )


BATCHES = _batches()


def analyze_request(config: dict) -> bytes:
    return json_request("POST", "/analyze", {"config": config})


def classify_request(config: dict, batch) -> bytes:
    return json_request("POST", "/classify", {"config": config, "recipes": [list(r) for r in batch]})


# -- the read-mix pool -----------------------------------------------------------------


def _query_entries(index: int, config: dict) -> dict[str, list[Request]]:
    def query(name: str, payload: dict) -> Request:
        raw = json_request("POST", "/query", {"config": config, **payload})
        return Request(f"c{index}.{name}", raw, 200, "query")

    return {
        "nearest": [
            query(f"nearest.{cuisine}.{figure}", {"op": "nearest", "cuisine": cuisine, "figure": figure, "k": 5})
            for cuisine in CUISINES
            for figure in FIGURES
        ],
        "patterns": [
            query(f"patterns.{item}", {"op": "patterns", "items": [item], "limit": 10})
            for item in ITEMS
        ],
        "top-patterns": [
            query(f"top.{cuisine}", {"op": "top-patterns", "cuisine": cuisine, "k": 5})
            for cuisine in CUISINES
        ],
        "authenticity": [
            query(f"authenticity.{item}", {"op": "authenticity", "item": item})
            for item in ITEMS
        ],
        "cuisine": [
            query(f"cuisine.{cuisine}", {"op": "cuisine", "cuisine": cuisine, "k": 5})
            for cuisine in CUISINES
        ],
    }


def _malformed() -> list[Request]:
    base = READ_CONFIGS[0]
    return [
        Request("bad.json", encode_request("POST", "/query", b'{"config": {'), 400, "malformed"),
        Request("bad.op", json_request("POST", "/query", {"config": base, "op": "median"}), 400, "malformed"),
        Request(
            "bad.cuisine",
            json_request("POST", "/query", {"config": base, "op": "top-patterns", "cuisine": "Atlantis"}),
            400,
            "malformed",
        ),
        Request("bad.field", json_request("POST", "/analyze", {"config": {**base, "colour": "red"}}), 400, "malformed"),
        Request("bad.type", json_request("POST", "/analyze", {"config": {"scale": "0.05"}}), 400, "malformed"),
        Request("bad.recipes", json_request("POST", "/classify", {"config": base, "recipes": []}), 400, "malformed"),
        Request("bad.route", json_request("GET", "/no-such-route"), 404, "malformed"),
        Request("bad.method", json_request("GET", "/analyze"), 405, "malformed"),
    ]


@dataclass(frozen=True)
class ReadPool:
    """Every read-mix request, grouped the way the generator draws them."""

    entries: tuple[Request, ...]
    #: category -> per-config lists (query: per-config {op: list}).
    query: tuple[dict[str, tuple[int, ...]], ...]
    classify: tuple[tuple[int, ...], ...]
    analyze: tuple[int, ...]
    probe: tuple[int, ...]
    malformed: tuple[int, ...]

    @property
    def warmup(self) -> list[int]:
        """Set-up requests: every route once per config, then the probes."""
        indices = []
        for index, analyze in enumerate(self.analyze):
            indices += [analyze, self.classify[index][0]]
            indices += [entries[0] for entries in self.query[index].values()]
        return indices + list(self.probe)


def read_pool() -> ReadPool:
    entries: list[Request] = []

    def add(requests) -> tuple[int, ...]:
        start = len(entries)
        entries.extend(requests)
        return tuple(range(start, len(entries)))

    query = []
    classify = []
    analyze = []
    for index, config in enumerate(READ_CONFIGS):
        query.append({op: add(reqs) for op, reqs in _query_entries(index, config).items()})
        classify.append(
            add(
                Request(f"c{index}.classify.{n}", classify_request(config, batch), 200, "classify")
                for n, batch in enumerate(BATCHES)
            )
        )
        analyze.extend(
            add([Request(f"c{index}.analyze", analyze_request(config), 200, "analyze", "analyze")])
        )
    probe = add(
        [
            Request("healthz", json_request("GET", "/healthz"), 200, "probe", "healthz"),
            Request("stats", json_request("GET", "/stats"), 200, "probe", "stats"),
        ]
    )
    malformed = add(_malformed())
    return ReadPool(tuple(entries), tuple(query), tuple(classify), tuple(analyze), probe, malformed)


def _chooser(rng: random.Random, shares):
    names = [name for name, _ in shares]
    cumulative = list(itertools.accumulate(weight for _, weight in shares))
    total = cumulative[-1]

    def choose():
        return names[bisect.bisect_right(cumulative, rng.random() * total)]

    return choose


def read_trace(seed: int, pool: ReadPool, length: int = READ_TRACE_LENGTH) -> list[int]:
    """A seeded closed-loop request sequence over *pool* (indices into entries).

    Category by :data:`READ_SHARES` and config by Zipf popularity; the query
    op, the pool entry and the probe are drawn uniformly.
    """
    rng = random.Random(seed)
    category = _chooser(rng, READ_SHARES)
    config = _chooser(rng, list(enumerate(ZIPF_WEIGHTS)))
    trace = []
    for _ in range(length):
        kind = category()
        if kind == "query":
            trace.append(rng.choice(pool.query[config()][rng.choice(QUERY_OPS)]))
        elif kind == "classify":
            trace.append(rng.choice(pool.classify[config()]))
        elif kind == "analyze":
            trace.append(pool.analyze[config()])
        elif kind == "probe":
            trace.append(rng.choice(pool.probe))
        else:
            trace.append(rng.choice(pool.malformed))
    return trace


# -- the cold-analyze plan -------------------------------------------------------------


def cold_plan(seed: int) -> list[int]:
    """The corpus seeds of one cold-analyze run, in request order."""
    order = list(COLD_SEEDS)
    random.Random(seed).shuffle(order)
    return order
