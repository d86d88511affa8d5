"""Device graphs for the globally driven conveyor-belt qubit loop.

The baseline device is a closed loop of 4N alternating A/B qubits plus one
in-loop A-crossed qubit ZZ-coupled to the first three information-carrying
(IC) sites.  Variants replace the in-loop qubit with two two-site couplers.
All site, sector and species indexing conventions live here.  A device
stores only its graph (N, kind, sites, edges); `DeviceTopology` derives the
index convention from N and kind, once, on first use.

Index convention (0-based site ids):
  - IC site Q_j sits at loop index 4*(j-1), for j = 1..N.
  - Sector S_j occupies the three indices clockwise after Q_j, i.e.
    (4j-3, 4j-2, 4j-1); the middle one is the sector-center B qubit.
  - The in-loop qubit (baseline) has id 4N; variant couplers have ids
    4N and 4N+1.
Even loop indices host B-family qubits, odd indices host A-family ones,
so the coupling graph is bipartite between families.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class Family(str, Enum):
    A = "A"
    B = "B"
    C = "C"


class Crossing(str, Enum):
    REGULAR = "regular"
    CROSSED = "crossed"
    DOUBLE_CROSSED = "double_crossed"


@dataclass(frozen=True)
class Species:
    family: Family
    crossing: Crossing

    def label(self) -> str:
        return f"{self.family.value}-{self.crossing.value}"


@dataclass(frozen=True)
class Site:
    index: int
    species: Species
    triangle_corrected: bool  # level spacing raised by the ZZ strength
    on_loop: bool


BASELINE = "baseline"
TWO_COUPLER_THREE_SPECIES = "two_coupler_three_species"
TWO_COUPLER_DOUBLE_CROSSED = "two_coupler_double_crossed"
VARIANT_KINDS = (TWO_COUPLER_THREE_SPECIES, TWO_COUPLER_DOUBLE_CROSSED)

# Variant couplers always bridge these IC pairs (same-parity and mixed-parity).
COUPLER_IC_PAIRS = ((1, 3), (4, 8))

FORMAT_VERSION = 1


@dataclass(frozen=True)
class DeviceTopology:
    """Immutable device graph; safe to share across threads.  It stores what
    a device file holds; the index convention is derived from N and kind."""

    n_logical: int
    kind: str
    sites: tuple[Site, ...]
    edges: tuple[tuple[int, int], ...]  # normalized (i < j), sorted

    @cached_property
    def ic_sites(self) -> tuple[int, ...]:
        """Q_1..Q_N."""
        return tuple(range(0, 4 * self.n_logical, 4))

    @cached_property
    def sectors(self) -> tuple[tuple[int, int, int], ...]:
        """S_1..S_N as (A, B, A)."""
        return tuple((q + 1, q + 2, q + 3) for q in self.ic_sites)

    @cached_property
    def init_targets(self) -> tuple[int, ...]:
        """Sector centers flipped by the init line: those of S_2, S_4, ..."""
        return tuple(center for _, center, _ in self.sectors[1::2])

    @property
    def central_site(self) -> int | None:
        """The in-loop qubit; baseline only."""
        return 4 * self.n_logical if self.kind == BASELINE else None

    @cached_property
    def coupler_pairs(self) -> tuple[tuple[int, tuple[int, int]], ...]:
        """(coupler id, its two IC ids) per variant coupler; none on the baseline."""
        if self.kind == BASELINE:
            return ()
        ic = self.ic_sites
        return tuple(
            (4 * self.n_logical + k, (ic[qa - 1], ic[qb - 1])) for k, (qa, qb) in enumerate(COUPLER_IC_PAIRS)
        )

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @cached_property
    def neighbor_map(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {s.index: set() for s in self.sites}
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return {k: frozenset(v) for k, v in nbrs.items()}

    @cached_property
    def tables(self) -> dict:
        """Arrays derived from this device by the pulse engine (the class
        masks), built on first use and dropped with the device.
        Threads that race to build an entry build equal ones."""
        return {}

    def sites_of(self, family: Family, crossing: Crossing) -> tuple[int, ...]:
        return tuple(
            s.index
            for s in self.sites
            if s.species.family is family and s.species.crossing is crossing
        )


def _normalize_edges(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, j), max(i, j)) for i, j in edges))


def site_count(n_logical: int, kind: str) -> int:
    """Sites of a well-built device: the 4N-site loop plus the in-loop qubit
    (baseline) or the two couplers (variants)."""
    return 4 * n_logical + (1 if kind == BASELINE else 2)


def _loop_sites(n_logical: int) -> list[Site]:
    loop_len = 4 * n_logical
    triangle = {0, 4, 8}  # Q_1..Q_3 gain the in-loop neighbor
    sites = []
    for i in range(loop_len):
        family = Family.B if i % 2 == 0 else Family.A
        crossing = Crossing.CROSSED if i == 4 else Crossing.REGULAR
        sites.append(
            Site(i, Species(family, crossing), triangle_corrected=i in triangle, on_loop=True)
        )
    return sites


def build_conveyor(n_logical: int) -> DeviceTopology:
    """Build the baseline loop: 4N+1 sites, one in-loop A-crossed qubit."""
    if n_logical < 4 or n_logical % 2 != 0:
        raise ValueError(
            f"n_logical must be an even integer >= 4, got {n_logical}: the loop "
            "encoding needs alternating sector phases and three distinct IC "
            "sites next to the in-loop qubit"
        )
    loop_len = 4 * n_logical
    central = loop_len
    sites = _loop_sites(n_logical)
    sites.append(
        Site(central, Species(Family.A, Crossing.CROSSED), triangle_corrected=True, on_loop=False)
    )
    edges = [(i, (i + 1) % loop_len) for i in range(loop_len)]
    edges += [(central, 0), (central, 4), (central, 8)]
    return DeviceTopology(n_logical, BASELINE, tuple(sites), _normalize_edges(edges))


_VARIANT_SPECIES = {
    TWO_COUPLER_THREE_SPECIES: (
        Species(Family.C, Crossing.REGULAR),
        Species(Family.C, Crossing.CROSSED),
    ),
    TWO_COUPLER_DOUBLE_CROSSED: (
        Species(Family.A, Crossing.CROSSED),
        Species(Family.A, Crossing.DOUBLE_CROSSED),
    ),
}


def build_variant(kind: str, n_logical: int) -> DeviceTopology:
    """Build a two-coupler variant: couplers bridge (Q_1,Q_3) and (Q_4,Q_8)."""
    if kind not in VARIANT_KINDS:
        raise ValueError(f"unknown variant kind {kind!r}; expected one of {VARIANT_KINDS}")
    if n_logical < 8 or n_logical % 2 != 0:
        raise ValueError(
            f"variant designs need even n_logical >= 8 (couplers reach Q_4 and Q_8), got {n_logical}"
        )
    loop_len = 4 * n_logical
    # The index convention needs only N and kind, so a graph-less device yields it.
    pairs = DeviceTopology(n_logical, kind, (), ()).coupler_pairs
    # Loop triangle flags differ from baseline: the coupler endpoints gain a
    # third neighbor instead of Q_1..Q_3.
    endpoint_ids = {q for _, ends in pairs for q in ends}
    sites = [
        Site(s.index, s.species, triangle_corrected=s.index in endpoint_ids, on_loop=True)
        for s in _loop_sites(n_logical)
    ]
    edges = [(i, (i + 1) % loop_len) for i in range(loop_len)]
    for (cid, ends), coupler_species in zip(pairs, _VARIANT_SPECIES[kind]):
        sites.append(Site(cid, coupler_species, triangle_corrected=False, on_loop=False))
        edges += [(cid, q) for q in ends]
    return DeviceTopology(n_logical, kind, tuple(sites), _normalize_edges(edges))


def neighbors(topo: DeviceTopology, site: int) -> frozenset[int]:
    if site not in topo.neighbor_map:
        raise ValueError(f"invalid site id {site} for a {topo.n_sites}-site device")
    return topo.neighbor_map[site]


# --- serialization (format 1) -------------------------------------------------

def _site_json(s: Site) -> dict:
    return {
        "index": s.index,
        "family": s.species.family.value,
        "crossing": s.species.crossing.value,
        "triangle_corrected": s.triangle_corrected,
        "on_loop": s.on_loop,
    }


def to_json_dict(topo: DeviceTopology) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": topo.kind,
        "n_logical": topo.n_logical,
        "sites": [_site_json(s) for s in topo.sites],
        "edges": [list(e) for e in topo.edges],
    }


def from_json_dict(doc: dict) -> DeviceTopology:
    """Rebuild the device a serialized document names by its kind and N.

    The document's site table and edge list must repeat that device's
    exactly (sites in any order); any difference raises ``ValueError``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"topology document must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported topology format {doc.get('format')!r}, expected {FORMAT_VERSION}")
    try:
        return _from_json_fields(doc)
    except KeyError as e:
        raise ValueError(f"topology document is missing key {e}") from None
    except TypeError as e:
        raise ValueError(f"malformed topology document: {e}") from None


def _from_json_fields(doc: dict) -> DeviceTopology:
    kind = doc["kind"]
    if kind != BASELINE and kind not in VARIANT_KINDS:
        raise ValueError(f"unknown topology kind {kind!r}")
    n = int(doc["n_logical"])
    sites = sorted(
        (
            Site(
                int(s["index"]),
                Species(Family(s["family"]), Crossing(s["crossing"])),
                bool(s["triangle_corrected"]),
                bool(s.get("on_loop", int(s["index"]) < 4 * n)),
            )
            for s in doc["sites"]
        ),
        key=lambda s: s.index,
    )
    edges = _normalize_edges(tuple((int(i), int(j)) for i, j in doc["edges"]))
    expected_count = site_count(n, kind)
    if len(sites) != expected_count:  # before building anything sized by N
        raise ValueError(f"site count {len(sites)} != {expected_count} for kind {kind}")
    topo = build_conveyor(n) if kind == BASELINE else build_variant(kind, n)
    for got, want in zip(sites, topo.sites):
        if got != want:
            raise ValueError(f"site {_site_json(got)} differs from the {kind} device's {_site_json(want)}")
    if edges != topo.edges:
        diff = sorted(set(edges) ^ set(topo.edges))
        raise ValueError(f"edges {diff} differ from the {kind} device" if diff else "an edge is listed twice")
    return topo


def save(topo: DeviceTopology, path) -> None:
    with open(path, "w") as f:
        json.dump(to_json_dict(topo), f, indent=1)
        f.write("\n")


def load(path) -> DeviceTopology:
    with open(path) as f:
        return from_json_dict(json.load(f))
