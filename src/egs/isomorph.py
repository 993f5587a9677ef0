"""Exact isomorphism by colour refinement and individualisation.

One engine answers both isomorphism questions: structure isomorphism here
and, in `strategy.rnf_isomorphic`, isomorphism of reduced normal forms.
Each becomes two graphs with label-free initial vertex colours, searched
by individualisation-refinement (McKay & Piperno, "Practical graph
isomorphism II", 2014).  Colours are refined on the disjoint union of the
graphs, so a colour means the same on both sides, and a class with unequal
numbers of vertices from the two sides rules the colouring out.  A class
left with several vertices per side is resolved depth first, on an
explicit stack, by matching one vertex of the first graph with each of its
class in the second in turn.  A discrete colouring is returned as a
bijection only after every adjacency has been checked.

A structure has a vertex per history (coloured by length), per (player,
action) pair that occurs, per information set and per player (coloured by
name unless players may be permuted).  Edges join each history to its
children, each child to the actions of its last move, each action and each
information set to its owner, and each set to its members.  The graph
isomorphisms are exactly the structure isomorphisms: they preserve the
tree, the moves (each player's actions going to the image player's) and
the information partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EgsError, History, Structure


@dataclass(frozen=True)
class StructureIsomorphism:
    player_map: tuple[tuple[str, str], ...]
    action_maps: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    history_map: tuple[tuple[History, History], ...]


def _isomorphism(colours: list, adj: list[list[int]], n: int) -> list[int] | None:
    """Map the first of two graphs, vertices 0..n-1 of one disjoint union,
    onto the second, the rest, preserving colours (hashable keys) and the
    symmetric adjacency: the image of each first-graph vertex, or None."""
    side = [1] * n + [-1] * (len(colours) - n)
    ids: dict = {}
    colour = [ids.setdefault(c, len(ids)) for c in colours]
    members, pos = _classes(colour, len(ids))
    if any(sum(map(side.__getitem__, m)) for m in members):
        return None
    if not _refine(adj, side, colour, members, pos, list(range(len(members)))):
        return None
    # A branch point keeps only a copy of its colouring; the classes are
    # rebuilt from it when a later candidate is tried.
    branches = []
    while True:
        target = min(
            (c for c, m in enumerate(members) if len(m) > 2),
            key=lambda c: len(members[c]), default=None,
        )
        if target is None:
            image = [0] * n
            for a, b in map(sorted, members):
                image[a] = b
            if all(
                sorted(map(image.__getitem__, adj[v])) == sorted(adj[image[v]])
                for v in range(n)
            ):
                return image
            colour = None
        else:
            cls = members[target]
            candidates = sorted((v for v in cls if v >= n), reverse=True)
            branches.append((colour[:], len(members), target, min(cls), candidates))
        while branches:
            saved, k, target, v1, candidates = branches[-1]
            v2 = candidates.pop()
            if not candidates:
                branches.pop()
            if colour is None:
                colour = saved[:] if candidates else saved
                members, pos = _classes(colour, k)
            members.append(_split_off([v1, v2], members[target], colour, pos, len(members)))
            if _refine(adj, side, colour, members, pos, [len(members) - 1]):
                break
            colour = None
        else:
            return None


def _classes(colour: list[int], k: int) -> tuple[list[list[int]], list[int]]:
    """Each of the k classes' member list, and each vertex's index in it."""
    members: list[list[int]] = [[] for _ in range(k)]
    pos = [0] * len(colour)
    for v, c in enumerate(colour):
        pos[v] = len(members[c])
        members[c].append(v)
    return members, pos


def _split_off(part: list[int], cls: list[int], colour, pos, new: int) -> list[int]:
    """Move the vertices of part from the member list cls into a new class
    numbered new, in time linear in the part; return the part."""
    for i, v in enumerate(part):
        colour[v] = new
        last = cls.pop()
        if last != v:
            cls[pos[v]] = last
            pos[last] = pos[v]
        pos[v] = i
    return part


def _refine(adj, side, colour, members, pos, queue) -> bool:
    """Split colour classes, in place, until every vertex of a class has
    the same number of neighbours in every class, or every class holds one
    vertex per graph.  The queued classes are the splitters still to be
    used.  False as soon as a class holds unequal numbers of vertices from
    the two graphs (side +1 and -1)."""
    queued = set(queue)
    half = len(colour) // 2
    while queue and len(members) < half:
        splitter = queue.pop()
        queued.discard(splitter)
        count: dict[int, int] = {}
        for v in members[splitter]:
            for w in adj[v]:
                count[w] = count.get(w, 0) + 1
        touched: dict[int, list[int]] = {}
        for w in count:
            touched.setdefault(colour[w], []).append(w)
        for c, ws in touched.items():
            cls = members[c]
            parts: dict[int, list[int]] = {}
            for w in ws:
                parts.setdefault(count[w], []).append(w)
            whole = len(ws) == len(cls)
            if whole and len(parts) == 1:
                continue
            keys = sorted(parts)
            if whole:
                keys.pop(0)  # the part with the fewest neighbours keeps c
            fresh = [c]
            for k in keys:
                part = parts[k]
                if sum(map(side.__getitem__, part)):
                    return False
                fresh.append(len(members))
                members.append(_split_off(part, cls, colour, pos, len(members)))
            # A class already waiting splits as a whole; otherwise its
            # largest part can be skipped, that part's counts being implied.
            if c not in queued:
                fresh.remove(max(fresh, key=lambda d: len(members[d])))
            for d in fresh:
                if d not in queued:
                    queue.append(d)
                    queued.add(d)
    return True


def _structure_graph(g: Structure, by_name: bool, colours: list, adj: list):
    """Append the coloured graph of g (see the module docstring) to colours
    and adj; return its (player, action) vertices and its player vertices."""

    def vertex(c) -> int:
        colours.append(c)
        adj.append([])
        return len(adj) - 1

    def edge(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    index = {h: vertex(("history", h.length)) for h in g.histories}
    players = {p: vertex(("player", p if by_name else None)) for p in g.players}
    actions: dict[tuple[str, str], int] = {}
    for h in g.nonterminals:
        for kid in g.children(h):
            v = index[kid]
            edge(index[h], v)
            for pa in kid.moves[-1]:
                a = actions.get(pa)
                if a is None:
                    if pa[0] not in players:
                        raise EgsError(f"undeclared player {pa[0]} moves at {h.label()!r}")
                    a = actions[pa] = vertex(("action",))
                    edge(a, players[pa[0]])
                edge(v, a)
    for p in g.players:
        for s in g.partitions.get(p, ()):
            v = vertex(("set",))
            edge(v, players[p])
            for m in s.members:
                edge(v, index[m])
    return actions, players


def structure_isomorphic(
    g1: Structure,
    g2: Structure,
    allow_player_permutation: bool = False,
) -> StructureIsomorphism | None:
    if len(g1.players) != len(g2.players) or len(g1.histories) != len(g2.histories):
        return None
    if not allow_player_permutation and tuple(g1.players) != tuple(g2.players):
        return None
    colours: list = []
    adj: list[list[int]] = []
    actions1, players1 = _structure_graph(g1, not allow_player_permutation, colours, adj)
    n = len(adj)
    actions2, players2 = _structure_graph(g2, not allow_player_permutation, colours, adj)
    image = _isomorphism(colours, adj, n)
    if image is None:
        return None
    action_of = {v: a for a, v in actions2.items()}
    player_of = {v: p for p, v in players2.items()}
    return StructureIsomorphism(
        player_map=tuple(sorted((p, player_of[image[v]]) for p, v in players1.items())),
        action_maps=tuple(
            (p, tuple(sorted(
                (a, action_of[image[v]][1]) for (q, a), v in actions1.items() if q == p
            )))
            for p in g1.players
        ),
        history_map=tuple(
            (h, g2.histories[image[i] - n]) for i, h in enumerate(g1.histories)
        ),
    )
