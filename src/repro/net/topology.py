"""Switch topologies for the fabric simulator (:mod:`repro.net`).

A :class:`Topology` is a named, undirected switch graph with per-switch
*roles* (``"leaf"``/``"spine"`` for the two-tier datacenter builder,
``"switch"`` otherwise).  Everything downstream — path computation,
ECMP spreading, per-role result grouping — keys off switch names, which
are plain strings, so a topology stays trivially picklable and
printable.

Determinism is the design constraint: path enumeration depends only on
the graph and the flow identifier, never on dict iteration order or the
process's hash seed.  Neighbour lists are stored sorted, BFS visits
them in that order, and ECMP tie-breaks hash with :func:`zlib.crc32`
(stable across interpreters, unlike builtin ``hash``).

Builders:

* :func:`leaf_spine` — the two-tier Clos fabric the paper's deployment
  story targets: every leaf links to every spine, traffic between
  leaves crosses exactly one spine.
* :func:`linear` — a chain ``sw0 — sw1 — ... — swN-1``; ``linear(1)``
  is the degenerate one-switch fabric the golden tests pin against the
  classic single-switch engine.
* :func:`ring` — a cycle, the smallest topology with redundant paths
  everywhere (link-failure scenarios).
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["Topology", "leaf_spine", "linear", "ring"]

#: An undirected link as its canonical frozenset-of-endpoints key.
Link = FrozenSet[str]

#: Shared empty down-link set (immutable, so one instance is safe as a
#: default; a literal ``frozenset()`` default would trip the B008 audit).
NO_DOWN_LINKS: FrozenSet[Link] = frozenset()


def link_key(a: str, b: str) -> Link:
    """Canonical undirected-link key (order-free)."""
    return frozenset((a, b))


class Topology:
    """A named undirected graph of switches with optional roles.

    Args:
        name: Topology identifier (shows up in bench reports).
        switches: Switch names, order preserved (it fixes the display
            order of per-switch tables and result dicts).
        links: Undirected ``(a, b)`` pairs; both endpoints must be
            declared switches, self-links and duplicates are rejected.
        roles: Optional ``{switch: role}``; unlisted switches get
            ``"switch"``.
    """

    def __init__(
        self,
        name: str,
        switches: Iterable[str],
        links: Iterable[Tuple[str, str]],
        roles: Optional[Dict[str, str]] = None,
    ):
        self.name = name
        self.switches: Tuple[str, ...] = tuple(switches)
        if len(set(self.switches)) != len(self.switches):
            raise ValueError("duplicate switch names")
        if not self.switches:
            raise ValueError("a topology needs at least one switch")
        known = set(self.switches)
        adjacency: Dict[str, set] = {s: set() for s in self.switches}
        self.links: List[Tuple[str, str]] = []
        seen: set = set()
        for a, b in links:
            if a not in known or b not in known:
                raise ValueError(f"link ({a!r}, {b!r}) names unknown switch")
            if a == b:
                raise ValueError(f"self-link on {a!r}")
            key = link_key(a, b)
            if key in seen:
                raise ValueError(f"duplicate link ({a!r}, {b!r})")
            seen.add(key)
            self.links.append((a, b))
            adjacency[a].add(b)
            adjacency[b].add(a)
        #: Sorted neighbour tuples — the deterministic traversal order.
        self.adjacency: Dict[str, Tuple[str, ...]] = {
            s: tuple(sorted(neigh)) for s, neigh in adjacency.items()
        }
        self._roles = dict(roles or {})
        for switch in self._roles:
            if switch not in known:
                raise ValueError(f"role for unknown switch {switch!r}")

    def role(self, switch: str) -> str:
        """The switch's role (``"switch"`` unless the builder set one)."""
        return self._roles.get(switch, "switch")

    def by_role(self, role: str) -> Tuple[str, ...]:
        """Switches carrying ``role``, in declaration order."""
        return tuple(s for s in self.switches if self.role(s) == role)

    def __contains__(self, switch: str) -> bool:
        return switch in self.adjacency

    def __len__(self) -> int:
        return len(self.switches)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, {len(self.switches)} switches, "
            f"{len(self.links)} links)"
        )

    # -- paths ------------------------------------------------------------------

    def distances_to(
        self, dst: str, down: FrozenSet[Link] = NO_DOWN_LINKS
    ) -> Dict[str, int]:
        """Hop counts to ``dst`` from every switch that can reach it.

        Plain BFS over the sorted adjacency, skipping ``down`` links.
        Unreachable switches are absent from the result.
        """
        if dst not in self.adjacency:
            raise KeyError(f"unknown switch {dst!r}")
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                d = dist[node] + 1
                for neigh in self.adjacency[node]:
                    if neigh in dist or link_key(node, neigh) in down:
                        continue
                    dist[neigh] = d
                    nxt.append(neigh)
            frontier = nxt
        return dist

    def shortest_path(
        self,
        src: str,
        dst: str,
        flow_id: int = 0,
        down: FrozenSet[Link] = NO_DOWN_LINKS,
    ) -> Tuple[str, ...]:
        """One shortest ``src → dst`` switch path, ECMP-spread by flow.

        At each hop the candidates are the neighbours strictly closer
        to ``dst``; when several tie (equal-cost multipath, e.g. the
        spines of a leaf-spine fabric) the choice hashes
        ``(flow_id, current switch)`` with CRC32 — per-flow stable, so
        every packet of a flow takes the same path, and spread across
        flows, so aggregate traffic balances over the tied next hops.

        Raises :class:`ValueError` when ``dst`` is unreachable from
        ``src`` under the ``down`` link set.
        """
        if src not in self.adjacency:
            raise KeyError(f"unknown switch {src!r}")
        dist = self.distances_to(dst, down)
        if src not in dist:
            raise ValueError(
                f"no path from {src!r} to {dst!r}"
                + (f" with {len(down)} link(s) down" if down else "")
            )
        path = [src]
        node = src
        while node != dst:
            candidates = [
                neigh
                for neigh in self.adjacency[node]
                if dist.get(neigh, -1) == dist[node] - 1
                and link_key(node, neigh) not in down
            ]
            # adjacency is sorted, so candidates are too: the CRC pick
            # is over a deterministic ordering.
            digest = zlib.crc32(f"{flow_id}/{node}".encode("ascii"))
            node = candidates[digest % len(candidates)]
            path.append(node)
        return tuple(path)


# =============================================================================
# Builders
# =============================================================================


def leaf_spine(leaves: int = 4, spines: int = 2) -> Topology:
    """A two-tier Clos fabric: every leaf links to every spine.

    Switches are named ``leaf0..leaf<L-1>`` and ``spine0..spine<S-1>``
    with matching roles.  Any leaf-to-leaf path is exactly
    ``(leaf, spine, leaf)``, so spines aggregate *all* cross-leaf
    traffic — the cache-pressure concentration point the fabric bench
    measures.
    """
    if leaves < 1 or spines < 1:
        raise ValueError("leaf_spine needs at least one leaf and one spine")
    leaf_names = [f"leaf{i}" for i in range(leaves)]
    spine_names = [f"spine{i}" for i in range(spines)]
    links = [(lf, sp) for lf in leaf_names for sp in spine_names]
    roles = {name: "leaf" for name in leaf_names}
    roles.update({name: "spine" for name in spine_names})
    return Topology(
        f"leaf_spine_{leaves}x{spines}",
        leaf_names + spine_names,
        links,
        roles,
    )


def linear(n: int) -> Topology:
    """A chain of ``n`` switches ``sw0 — sw1 — ... — sw<n-1>``.

    ``linear(1)`` is the degenerate single-switch fabric: no links, one
    cache — the configuration the golden tests pin bit-identical to the
    classic :class:`~repro.sim.engine.VSwitchSimulator`.
    """
    if n < 1:
        raise ValueError("linear topology needs at least one switch")
    names = [f"sw{i}" for i in range(n)]
    links = [(names[i], names[i + 1]) for i in range(n - 1)]
    return Topology(f"linear_{n}", names, links)


def ring(n: int) -> Topology:
    """A cycle of ``n >= 3`` switches — two disjoint paths everywhere."""
    if n < 3:
        raise ValueError("ring topology needs at least three switches")
    names = [f"sw{i}" for i in range(n)]
    links = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return Topology(f"ring_{n}", names, links)
