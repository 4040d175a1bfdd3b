"""Road network model: links, route enumeration, and volume-delay curves.

A network is a directed graph whose links carry a free-flow travel time
(hours), a practical capacity (vehicles per time unit) and a length (miles).
Routes are simple link sequences stored as ordered link-id tuples, which
index the per-link parameter vectors directly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InfeasibleDemandError, InputError


@dataclass(frozen=True)
class Link:
    id: int
    tail: str
    head: str
    t0_hours: float
    capacity: float
    length_miles: float


@dataclass(frozen=True)
class RoadNetwork:
    """Immutable directed road graph.

    Link ids must be the dense range 0..E-1 so that route link ids and
    per-link parameter arrays line up by position. Safe to share across
    threads once constructed.
    """

    nodes: tuple
    links: tuple

    def __post_init__(self):
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise InputError("duplicate node ids")
        ids = [lk.id for lk in self.links]
        if sorted(ids) != list(range(len(self.links))):
            raise InputError("link ids must be the dense range 0..E-1")
        for lk in self.links:
            if lk.tail not in node_set or lk.head not in node_set:
                raise InputError(f"link {lk.id} references unknown node")
            if lk.tail == lk.head:
                raise InputError(f"link {lk.id} is a self-loop")
            if not all(math.isfinite(x) and x > 0 for x in (lk.t0_hours, lk.capacity, lk.length_miles)):
                raise InputError(f"link {lk.id} needs positive finite t0, capacity and length")
        ordered = tuple(sorted(self.links, key=lambda lk: lk.id))
        object.__setattr__(self, "links", ordered)

    @property
    def num_links(self):
        return len(self.links)

    @cached_property
    def adjacency(self):
        """Outgoing links of every node, in link-id order; built once."""
        out = {node: [] for node in self.nodes}
        for lk in self.links:
            out[lk.tail].append(lk)
        return out

    @property
    def free_flow_times(self):
        """Per-link free-flow travel time vector, indexed by link id."""
        return np.array([lk.t0_hours for lk in self.links], dtype=float)

    @property
    def capacity_vector(self):
        """Per-link practical capacity vector, indexed by link id."""
        return np.array([lk.capacity for lk in self.links], dtype=float)


@dataclass(frozen=True)
class Route:
    """A simple directed path, stored as its link ids in travel order; its
    OD pair is the one whose ``RouteSet.route_of_od`` entry lists it."""

    links: tuple
    free_flow_time: float


@dataclass(frozen=True)
class RouteSet:
    """All route alternatives, grouped by OD pair.

    ``routes`` is the flat global ordering used by every matrix in the
    pipeline; ``route_of_od[k]`` lists the global indices of OD pair k's
    routes in discovery order.
    """

    od_pairs: tuple
    routes: tuple
    route_of_od: dict

    @property
    def num_routes(self):
        return len(self.routes)


def network_from_json(obj):
    """Load a network from the JSON schema {nodes, links, od_pairs}.

    Returns (network, od_pairs) where od_pairs is a list of
    (origin, destination, demand) tuples.
    """
    try:
        nodes = tuple(obj["nodes"])
        links = tuple(
            Link(
                id=int(lk["id"]),
                tail=lk["from"],
                head=lk["to"],
                t0_hours=float(lk["t0_hours"]),
                capacity=float(lk["capacity"]),
                length_miles=float(lk["length_miles"]),
            )
            for lk in obj["links"]
        )
        od = [(p["origin"], p["destination"], int(p.get("demand", 0))) for p in obj["od_pairs"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed network JSON: {exc}") from exc
    return RoadNetwork(nodes=nodes, links=links), od


def network_to_json(net, od_pairs):
    """Serialize to the canonical JSON schema (deterministic key order)."""
    return {
        "nodes": list(net.nodes),
        "links": [
            {
                "id": lk.id,
                "from": lk.tail,
                "to": lk.head,
                "t0_hours": lk.t0_hours,
                "capacity": lk.capacity,
                "length_miles": lk.length_miles,
            }
            for lk in net.links
        ],
        "od_pairs": [
            {"origin": o, "destination": d, "demand": n} for (o, d, n) in od_pairs
        ],
    }


def shortest_path(net, origin, destination, mask=frozenset()):
    """Minimum free-flow-time path from origin to destination, or None.

    ``mask`` is a set of excluded link ids. Ties are broken toward the
    lexicographically smallest link-id sequence so repeated runs are
    deterministic under a fixed input ordering.
    """
    adjacency = net.adjacency
    if origin not in adjacency or destination not in adjacency:
        raise InputError(f"unknown node id in OD pair ({origin!r}, {destination!r})")
    if origin == destination:
        raise InputError("origin and destination must differ")

    # heap entries carry the link-id tuple so equal-cost paths pop in
    # lexicographic order
    heap = [(0.0, (), origin)]
    settled = set()
    while heap:
        cost, path, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            return Route(links=path, free_flow_time=cost)
        for lk in adjacency[node]:
            if lk.id not in mask and lk.head not in settled:
                heapq.heappush(heap, (cost + lk.t0_hours, path + (lk.id,), lk.head))
    return None


def enumerate_routes(net, od_pairs, max_routes=4):
    """Enumerate up to ``max_routes`` alternatives per OD pair.

    Repeatedly takes the shortest free-flow path, masks its links, and
    searches again, so successive alternatives avoid earlier ones. A link is
    only added to the mask when the pair stays connected without it: on
    networks where every alternative funnels through a shared segment,
    removing the whole path would end enumeration after one route, so
    shared segments stay usable and alternatives differ where the topology
    allows. Enumeration stops early when only already-found routes remain.
    The mask is reset between OD pairs. OD pairs with no route at all are
    collected and reported together.
    """
    if max_routes < 1:
        raise InputError("max_routes must be >= 1")
    routes = []
    route_of_od = {}
    infeasible = []
    for k, od in enumerate(od_pairs):
        origin, destination = od[0], od[1]
        mask = set()
        found = []
        seen = set()
        while len(found) < max_routes:
            route = shortest_path(net, origin, destination, mask)
            if route is None or route.links in seen:
                break
            found.append(route)
            seen.add(route.links)
            for link_id in route.links:
                candidate = mask | {link_id}
                if shortest_path(net, origin, destination, candidate) is not None:
                    mask = candidate
        if not found:
            infeasible.append((origin, destination))
            continue
        start = len(routes)
        routes.extend(found)
        route_of_od[k] = list(range(start, len(routes)))
    if infeasible:
        raise InfeasibleDemandError(infeasible)
    return RouteSet(
        od_pairs=tuple((od[0], od[1]) for od in od_pairs),
        routes=tuple(routes),
        route_of_od=route_of_od,
    )


def bpr_travel_time(t0, w, v):
    """Volume-delay curve t0 * (1 + 0.15 * (v/w)^4).

    Accepts scalars or arrays; at v == w the delay is exactly 1.15 * t0.
    """
    t0 = np.asarray(t0, dtype=float)
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(t0 <= 0) or np.any(w <= 0):
        raise DomainError("t0 and w must be positive")
    if np.any(v < 0):
        raise DomainError("volume must be nonnegative")
    out = t0 * (1.0 + 0.15 * (v / w) ** 4)
    return float(out) if out.ndim == 0 else out
