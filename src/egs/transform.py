"""Invariant transformations on extensive game structures.

Coalescing merges an information set into the own set that controls it
(the mover's choice migrates up into the controlling action); an
interchange/simultanizing (IS) synchronizes a dictated part of an
information set with a predecessor history.  Both are one rewrite,
`_lift`: the mover's choice moves up to an earlier history (a base member
or the anchor), histories strictly inside the affected region up to the
mover's members are replicated once per mover action, and histories past
them carry the action taken there up and drop the vacated move when
nobody else acted in it.  The lift hands the constructor its predecessor
with the rewritten region and forward, and the new structure edits the
predecessor's indices instead of rebuilding them.  On top of these two
operators sit UO-preserving minimization, complete immediate
compactification opportunities, the equal-length-preserving synthesized
opportunities for von Neumann structures, and the backward
(leaves-to-root) compactification.  Both kinds of opportunity come lazily
from one walk over subsets of their atoms, `_subsets`, which cuts each
branch that cannot serve and refuses past a bound on subsets tested.  The
composed transformations of both kinds of opportunity, τ and φ, run one
loop, `_compose`: IS pieces at every image of their anchors, then
coalescings under their named links, each carried to the current
structure through the running map, which is the first step's map
extended by each later one; `backward_compactify` applies each ICO
through `apply_tau`.  One operator and a composition of them return the
same `HistoryMap`, the images of histories and information sets; payoffs
and plans follow the terminals, so the map holds nothing else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    EgsError,
    History,
    InfoSet,
    Structure,
    history_key,
    make_profile,
    sim_classes,
    strictly_precedes,
)
from .validate import check_uo, check_vnm


class TransformError(EgsError):
    pass


# An opportunity search refuses the instance past this many subsets tested:
# every subset of 16 atoms for one class's ICOs, of 14 for synthesized ones.
_MAX_ICO_SUBSETS = 2**16 - 1
_MAX_SYNTH_SUBSETS = 2**14 - 1


@dataclass(frozen=True)
class CoalescingOpp:
    """base is controlled by mover via the link action: choosing the link
    at base leads exactly to the mover's subtrees."""

    owner: str
    base: InfoSet
    mover: InfoSet
    link: str

    # the owner and the histories moved, as an ICO names its parts
    part = property(lambda self: (self.owner, self.mover.member_set))


@dataclass(frozen=True)
class IsOpp:
    """anchor's subtree terminals coincide with those of the sub-mover, a
    subset of the mover information set owned by a player inactive at the
    anchor."""

    owner: str
    anchor: History
    submover: tuple[History, ...]
    mover: InfoSet

    def __post_init__(self):
        submover_set = frozenset(self.submover)
        object.__setattr__(self, "submover", tuple(sorted(submover_set, key=history_key)))
        object.__setattr__(self, "submover_set", submover_set)  # as InfoSet.member_set
        object.__setattr__(self, "part", (self.owner, submover_set))  # as CoalescingOpp.part


@dataclass(frozen=True)
class HistoryMap:
    """The natural correspondence of a transformation: one coalescing or
    IS, or a composition of them.

    forward sends each old history to its replacements (one per mover
    action for histories weakly between an opportunity's ends, exactly one
    elsewhere); infoset_map sends every old information set to its
    identity in the new structure (a coalescing mover maps onto its base).
    Plans follow their terminals (see `dominance.check_monotonic`), so the
    map records nothing about the operators applied.
    """

    forward: dict[History, tuple[History, ...]]
    infoset_map: dict[InfoSet, InfoSet]

    def extend(self, step: "HistoryMap") -> "HistoryMap":
        """This map followed by step."""
        forward = {}
        for h, mids in self.forward.items():
            if len(mids) == 1 and len(step.forward[mids[0]]) == 1:
                forward[h] = step.forward[mids[0]]
            else:
                forward[h] = tuple(sorted(
                    {img for mid in mids for img in step.forward[mid]}, key=history_key
                ))
        infosets = {s: step.infoset_map[cur] for s, cur in self.infoset_map.items()}
        return HistoryMap(forward, infosets)

    def terminal_bijection(self, old: Structure, new: Structure) -> dict[History, History]:
        out = {}
        for z in old.terminals:
            images = [h for h in self.forward[z] if new.is_terminal(h)]
            if len(images) != 1:
                raise TransformError(f"terminal {z.label()!r} has {len(images)} images")
            out[z] = images[0]
        if len(set(out.values())) != len(out):
            raise TransformError("terminal correspondence is not injective")
        return out


# -- control and dictation ----------------------------------------------


def controls(structure: Structure, base: InfoSet, mover: InfoSet) -> str | None:
    """The action at base whose terminal set equals the mover's, if any."""
    if base.owner != mover.owner:
        raise EgsError("control relates information sets of one player")
    structure.require_info_set(base)
    structure.require_info_set(mover)
    if base == mover:
        return None
    target = structure._terminal_mask_set(mover.members)
    for action in structure.feasible_at(base):
        if structure._action_mask(base, action) == target:
            return action
    return None


def dictates(structure: Structure, anchor: History, members, owner: str) -> bool:
    """True iff the candidate sub-mover's terminal set equals the anchor's."""
    if owner in structure.active(anchor):
        raise EgsError(f"{owner} is active at the anchor {anchor.label()!r}")
    members = tuple(members)
    if not members:
        return False
    return structure._terminal_mask_set((anchor,)) == structure._terminal_mask_set(members)


# -- opportunity discovery ----------------------------------------------


def _infoset_key(s: InfoSet):
    return (s.owner, s._members_key)


def _coalescings(structure: Structure, movers):
    """The coalescings moving each of the sets, bases in link order."""
    for mover in movers:
        target = structure._terminal_mask_set(mover.members)
        for base, link in structure._links.get((mover.owner, target), ()):
            if base != mover:
                yield CoalescingOpp(mover.owner, base, mover, link)


def _coalescing_key(o: CoalescingOpp):
    return (o.owner, _infoset_key(o.base), o.link)


def find_coalescing(structure: Structure) -> list[CoalescingOpp]:
    out = list(_coalescings(structure, structure.info_sets))
    # Stable: movers of one (base, link) stay in partition order.
    out.sort(key=_coalescing_key)
    return out


def _is_parts(structure: Structure, sets):
    """The IS opportunities moving part of each of the sets, one per
    anchor.  Only an ancestor whose terminal set lies inside the set's can
    dictate, and an ancestor's terminal set holds those of the histories
    below it, so each member climbs until the first ancestor outside,
    collecting itself at every anchor on the way."""
    z = structure._z
    for s in sets:
        outside = ~structure._terminal_mask_set(s.members)
        below: dict[History, list[History]] = {}
        for m in s.members:
            g = m
            while g.moves:
                g = g.parent
                mask = z.get(g)
                if mask is None or mask & outside:
                    break
                if s.owner not in structure.active(g):
                    below.setdefault(g, []).append(m)
        for g, d in below.items():
            if dictates(structure, g, d, s.owner):
                yield IsOpp(s.owner, g, d, s)


def _is_key(o: IsOpp):
    return (history_key(o.anchor), o.owner, _infoset_key(o.mover))


def find_is(structure: Structure) -> list[IsOpp]:
    """Every anchor at which the owner is inactive and whose terminal set
    is that of the members below it."""
    out = list(_is_parts(structure, structure.info_sets))
    out.sort(key=_is_key)
    return out


def is_non_crossing(structure: Structure, opp: IsOpp) -> bool:
    """A sub-mover may not be lifted over an information set that keeps a
    foothold before the destination: crossing holds when some other set
    has a member weakly between the anchor and the sub-mover while another
    of its members sits before the anchor or before a non-moving member of
    the mover.  Both are bitsets over positions in `info_sets`: the sets
    with a foothold are those before the anchor or a non-moving member,
    and the sets lifted over are those met climbing from each sub-mover
    member up to the anchor."""
    _, before, at = structure._order
    foothold = before[opp.anchor]
    for x in opp.mover.members:
        if x not in opp.submover_set:
            foothold |= before[x]
    lifted = 0
    for m in opp.submover:
        met, g = 0, m
        while g.length > opp.anchor.length:
            met |= at.get(g, 0)
            g = g.parent
        if g == opp.anchor:
            lifted |= met
    return not lifted & foothold & ~(1 << structure._position[opp.mover])


# -- applying a coalescing: the lift shared with IS -----------------------


def _descendants(structure: Structure, h: History) -> list[History]:
    out = []
    stack = list(structure.children(h))
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(structure.children(g))
    return out


def _lift(structure: Structure, owner: str, top, below, mover: InfoSet, mover_block):
    """The one rewrite behind both operators.

    top sends each history of the affected region to the history the
    mover's choice moves up to, listing each after its parent (as
    `_descendants` gives them); below sends each history strictly past a
    moving member to that member.  A region history up to a moving member,
    the member included, gets one replica per mover action; one past a
    member takes the action chosen there into the top's outgoing move, and
    the member's move loses the owner's component (vanishing when nobody
    else acted).  Each image is built one move past its parent's image.
    Returns the new structure, forward and infoset_map.  mover_block lists
    the members, before the lift, of the mover's new block; None drops the
    block and maps the mover onto the block of the histories its members
    move up to.  A region history these rules do not cover (in a malformed
    structure: nested tops or movers, an action the mover does not offer)
    raises `TransformError` naming it.
    """
    mover_actions = structure.feasible_at(mover)
    forward: dict[History, tuple[History, ...]] = {g: (g,) for g in structure.histories}
    # each move out of a top with the owner's action set to each mover
    # action: sorted, as the actions are, so forward lists replicas in order
    replicas: dict[tuple, tuple] = {}
    for g, t in top.items():
        p, last, m = g._parent, g.moves[-1], below.get(g)
        if m is None:
            if p is t:
                if last not in replicas:
                    replicas[last] = tuple(sorted(
                        make_profile({**dict(last), owner: c}) for c in mover_actions
                    ))
                forward[g] = tuple(map(t.extend, replicas[last]))
                continue
            if top.get(p) is t and p not in below:
                forward[g] = tuple(h.extend(last) for h in forward[p])
                continue
        elif top.get(p) is t:
            if p is m and m not in below:
                rest = dict(last)
                taken = rest.pop(owner)
                if taken in mover_actions:
                    h = forward[m][mover_actions.index(taken)]
                    forward[g] = (h.extend(make_profile(rest)) if rest else h,)
                    continue
            elif below.get(p) is m:
                forward[g] = (forward[p][0].extend(last),)
                continue
        raise TransformError(f"the lift has no image for {g.label()!r}")

    new_histories = structure._hist_set.difference(top).union(
        *(forward[g] for g in top)
    )
    # the blocks kept as they are, and the (player, block) pairs dropped and
    # added, which the edit indexes instead of comparing the partitions
    infoset_map: dict[InfoSet, InfoSet] = {}
    partitions: dict[str, list[InfoSet]] = {p: [] for p in structure.players}
    dropped = [(p, s) for p, bs in structure.partitions.items() if p not in partitions for s in bs]
    added = []
    for p in structure.players:
        for block in structure.partitions.get(p, ()):
            members = block.members
            if block is not mover and block.owner == p and top.keys().isdisjoint(members):
                partitions[p].append(block)
                infoset_map[block] = block
                continue
            dropped.append((p, block))
            if block is mover:
                if mover_block is None:
                    continue
                members = mover_block
            new_block = InfoSet(p, tuple(h for m in members for h in forward[m]))
            partitions[p].append(new_block)
            added.append((p, new_block))
            infoset_map[block] = new_block
    if mover_block is None:
        infoset_map[mover] = infoset_map[structure.info_set_of(owner, top[mover.members[0]])]
    # one constructor call that edits the predecessor's indices
    new_structure = Structure(
        structure.players, structure.actions, new_histories,
        {p: tuple(blocks) for p, blocks in partitions.items()},
        _edit=(structure, top, forward, dropped, added),
    )
    return new_structure, forward, infoset_map


def apply_coalescing(
    structure: Structure, opp: CoalescingOpp
) -> tuple[Structure, HistoryMap]:
    if not structure.has_info_set(opp.base) or not structure.has_info_set(opp.mover):
        raise TransformError(f"stale coalescing opportunity {opp!r}")
    if controls(structure, opp.base, opp.mover) != opp.link:
        raise TransformError(f"stale coalescing opportunity {opp!r}")
    i = opp.owner
    top: dict[History, History] = {}
    for b in opp.base.members:
        for kid in structure.children(b):
            if dict(kid.moves[-1]).get(i) == opp.link:
                top.update(dict.fromkeys([kid, *_descendants(structure, kid)], b))
    below = {g: m for m in opp.mover.members for g in _descendants(structure, m)}
    new_structure, forward, infoset_map = _lift(structure, i, top, below, opp.mover, None)
    return new_structure, HistoryMap(forward, infoset_map)


# -- applying an interchange/simultanizing -------------------------------


def apply_is(structure: Structure, opp: IsOpp) -> tuple[Structure, HistoryMap]:
    i = opp.owner
    if not structure.has_history(opp.anchor) or not structure.has_info_set(opp.mover):
        raise TransformError(f"stale IS opportunity {opp!r}")
    if not opp.submover_set <= opp.mover.member_set:
        raise TransformError("sub-mover is not part of the mover")
    # Every history has a terminal below it, so dictation leaves no history
    # under the anchor that is neither on a path to the sub-mover nor past it.
    if not dictates(structure, opp.anchor, opp.submover, i):
        raise TransformError(f"stale IS opportunity {opp!r}")
    anchor = opp.anchor
    top = dict.fromkeys(_descendants(structure, anchor), anchor)
    below = {g: m for m in opp.submover for g in _descendants(structure, m)}
    kept = tuple(m for m in opp.mover.members if m not in opp.submover_set)
    new_structure, forward, infoset_map = _lift(
        structure, i, top, below, opp.mover, (anchor,) + kept
    )
    return new_structure, HistoryMap(forward, infoset_map)


# -- minimization ---------------------------------------------------------


def _available_reductions(structure: Structure, coalescings=None):
    """Every coalescing and every non-crossing IS, the coalescings first;
    coalescings already found may be passed in."""
    opps: list = list(find_coalescing(structure) if coalescings is None else coalescings)
    opps.extend(o for o in find_is(structure) if is_non_crossing(structure, o))
    return opps


def minimize_uo(structure: Structure, rng=None) -> Structure:
    """Iterate coalescings and non-crossing ISs until none remains.  The
    endpoint is unique up to structure isomorphism whatever the order, so a
    seeded rng may pick arbitrary reduction orders for testing.  Without
    one, the first coalescing goes first, and ISs are sought only when no
    coalescing is left."""
    ok, witness = check_uo(structure)
    if not ok:
        raise EgsError(f"minimization requires UO; offending pair {witness}")
    current = structure
    while True:
        opps = find_coalescing(current)
        if rng is not None or not opps:
            opps = _available_reductions(current, opps)
        if not opps:
            return current
        opp = opps[0] if rng is None else opps[rng.randrange(len(opps))]
        if isinstance(opp, CoalescingOpp):
            current, _ = apply_coalescing(current, opp)
        else:
            current, _ = apply_is(current, opp)


# -- immediate compactification opportunities -----------------------------


def is_immediate_coalescing(structure: Structure, opp: CoalescingOpp) -> bool:
    return all(m.moves and m.parent in opp.base.member_set for m in opp.mover.members)


def is_immediate_is(structure: Structure, opp: IsOpp) -> bool:
    return all(
        strictly_precedes(opp.anchor, m) and m.length == opp.anchor.length + 1
        for m in opp.submover
    )


@dataclass(frozen=True)
class Ico:
    """An immediate compactification opportunity: a bundle of immediate
    coalescings and immediate IS parts whose movers share one transitive-
    simultaneity class."""

    coalescings: tuple[CoalescingOpp, ...]
    is_parts: tuple[IsOpp, ...]


def _class_atoms(structure: Structure, group) -> list:
    """The immediate atoms whose mover is in the transitive-simultaneity
    class: its coalescings and then its IS parts, each in the order of
    `find_coalescing` and `find_is`."""
    atoms: list = sorted(
        (o for o in _coalescings(structure, group) if is_immediate_coalescing(structure, o)),
        key=_coalescing_key,
    )
    atoms.extend(sorted(
        (o for o in _is_parts(structure, group) if is_immediate_is(structure, o)),
        key=_is_key,
    ))
    return atoms


def _complete_in_class(structure: Structure, class_sets, atoms):
    """The complete ICOs of the class's immediate atoms, in walk order.  A
    part fixes its mover, so a branch completes iff it repeats no part and
    one atom for each part that it and the later atoms name is complete."""
    class_sets = frozenset(class_sets)

    def hopeless(chosen, later):
        return len({a.part for a in chosen}) < len(chosen) or _incompleteness(
            {a.part: a for a in (*chosen, *later)}.values(), class_sets
        ) is not None

    for chosen in _subsets(atoms, hopeless, _MAX_ICO_SUBSETS):
        if _incompleteness(chosen, class_sets) is None:
            yield Ico(
                tuple(a for a in chosen if isinstance(a, CoalescingOpp)),
                tuple(a for a in chosen if isinstance(a, IsOpp)),
            )


def _incompleteness(atoms, class_sets: frozenset) -> str | None:
    """Why the atoms are not a complete ICO for their transitive-
    simultaneity class, or None: the named parts must be pairwise
    distinct, every set of the class must participate and no other, and
    every overlap of two participants must be exactly the intersection of
    two named parts, one inside each (so overlaps move as a whole)."""
    parts = [a.part for a in atoms]
    if len(set(parts)) != len(parts):
        return "the named parts of the ICO are not distinct"
    participants = {a.mover for a in atoms}
    if participants != class_sets:
        return "incomplete ICO: some transitively simultaneous set does not participate"
    for f, e in itertools.combinations(participants, 2):
        fs, es = f.member_set, e.member_set
        overlap = fs & es
        if overlap and not any(
            b & c == overlap
            for owner_b, b in parts if owner_b == f.owner and b <= fs
            for owner_c, c in parts if owner_c == e.owner and c <= es
        ):
            return "incomplete ICO: an overlap does not move as a whole"
    return None


def _subsets(atoms, hopeless, limit):
    """The non-empty subsets of atoms, smallest first and each size in
    combinations order, but none grown from a branch that hopeless(chosen,
    later) cuts: no subset of chosen and the later atoms can serve.  Each
    size is walked depth first, and past limit subsets yielded, refused."""
    if not atoms or hopeless((), atoms):
        return
    tested = 0
    for r in range(1, len(atoms) + 1):
        stack = [((), 0)]
        while stack:
            chosen, i = stack.pop()
            if len(chosen) == r:
                tested += 1
                if tested > limit:
                    raise TransformError(f"more than {limit} subsets to test; instance too large")
                yield chosen
                continue
            # each next atom leaving enough after it, the first on top
            for j in range(len(atoms) - r + len(chosen), i - 1, -1):
                grown = chosen + (atoms[j],)
                if not hopeless(grown, atoms[j + 1:]):
                    stack.append((grown, j + 1))


def iter_complete_icos(structure: Structure):
    """The complete ICOs class by class, smallest first, found as read."""
    ok, witness = check_uo(structure)
    if not ok:
        raise EgsError(f"complete ICOs require UO; offending pair {witness}")
    for group in sim_classes(structure):
        yield from _complete_in_class(structure, group, _class_atoms(structure, group))


def find_complete_icos(structure: Structure) -> list[Ico]:
    return list(iter_complete_icos(structure))


def _verify_complete(structure: Structure, ico: Ico) -> None:
    atoms = ico.coalescings + ico.is_parts
    if not atoms:
        raise TransformError("an ICO needs at least one part")
    for opp in ico.coalescings:
        if not is_immediate_coalescing(structure, opp):
            raise TransformError(f"coalescing part {opp!r} is not immediate")
    for opp in ico.is_parts:
        if not structure.has_info_set(opp.mover) or not dictates(
            structure, opp.anchor, opp.submover, opp.owner
        ):
            raise TransformError(f"stale IS part {opp!r}")
        if not is_immediate_is(structure, opp):
            raise TransformError(f"IS part {opp!r} is not immediate")
    # the participants, checked above, must make up the class of the first
    home = next((g for g in sim_classes(structure) if atoms[0].mover in g), ())
    fault = _incompleteness(atoms, frozenset(home))
    if fault is not None:
        raise TransformError(fault)


def _compose(structure: Structure, is_parts, coalescings) -> tuple[Structure, HistoryMap]:
    """Apply each IS part at every current image of its anchor, then each
    coalescing under its named link, and let each step refuse a piece that
    no longer dictates or controls; returns the result and the composition
    of the steps' maps.  Before the first step every anchor, mover and
    base is its own image; from then on the running map is the first
    step's, extended by each later one (a foreign set maps to itself)."""
    current, comp = structure, None

    def now(s: InfoSet) -> InfoSet:
        return s if comp is None else comp.infoset_map.get(s, s)

    for part in is_parts:
        for a in (part.anchor,) if comp is None else comp.forward[part.anchor]:
            mover_now = now(part.mover)
            d = tuple(m for m in mover_now.members if strictly_precedes(a, m))
            # Sibling anchor images live in disjoint subtrees, so the
            # remaining ones are untouched by this application.
            current, step = apply_is(current, IsOpp(part.owner, a, d, mover_now))
            comp = step if comp is None else comp.extend(step)
    for part in coalescings:
        current, step = apply_coalescing(
            current, CoalescingOpp(part.owner, now(part.base), now(part.mover), part.link)
        )
        comp = step if comp is None else comp.extend(step)
    return current, comp


def apply_tau(structure: Structure, ico: Ico) -> tuple[Structure, HistoryMap]:
    """Compose the ICO's IS parts (input order) and then its coalescing
    parts.  Unambiguous ordering may break on intermediate structures and
    is restored by the final one."""
    _verify_complete(structure, ico)
    return _compose(structure, ico.is_parts, ico.coalescings)


def backward_compactify(structure: Structure) -> tuple[Structure, list[Ico]]:
    """Apply complete ICOs class by class from the deepest transitive-
    simultaneity class toward the root; ties break on the class's smallest
    member history.  Each class's atoms are found when it is visited, and
    its search stops at the first complete ICO, which is applied."""
    ok, witness = check_uo(structure)
    if not ok:
        raise EgsError(f"backward compactification requires UO; offending pair {witness}")
    current = structure
    schedule: list[Ico] = []
    while True:
        # a stable sort: sim_classes lists the classes by smallest member
        order = sorted(
            sim_classes(current),
            key=lambda group: -max(m.length for s in group for m in s.members),
        )
        for group in order:
            ico = next(_complete_in_class(current, group, _class_atoms(current, group)), None)
            if ico is not None:
                current, _ = apply_tau(current, ico)
                schedule.append(ico)
                break
        else:
            return current, schedule


# -- synthesized opportunities for von Neumann structures ------------------


@dataclass(frozen=True)
class CompleteControl:
    """A whole information set dictated piecewise by equal-length,
    pairwise-incomparable anchor histories."""

    owner: str
    mover: InfoSet
    anchors: tuple[History, ...]
    pieces: tuple[tuple[History, ...], ...]

    def __post_init__(self):
        pairs = sorted(
            zip(self.anchors, self.pieces), key=lambda ap: history_key(ap[0])
        )
        object.__setattr__(self, "anchors", tuple(a for a, _ in pairs))
        object.__setattr__(self, "pieces", tuple(tuple(p) for _, p in pairs))


@dataclass(frozen=True)
class SynthOpp:
    """A synthesized opportunity: coalescings plus complete controls whose
    movers are distinct, shifting collectively so every non-participating
    information set keeps its equal-length property."""

    coalescings: tuple[CoalescingOpp, ...]
    controls: tuple[CompleteControl, ...]


def _complete_controls_for(structure: Structure, mover: InfoSet, opps: list[IsOpp]):
    """The groups of the mover's IS anchors whose pieces partition it, with
    pairwise-incomparable anchors of equal length.  `find_is` gives one
    opportunity per anchor, so distinct anchors of equal length are
    incomparable, and their pieces, the members below each, are disjoint
    and non-empty: only a whole group of one length can cover the mover.
    The covering groups come smaller first, then by list position."""
    groups: dict[int, list[IsOpp]] = {}
    for o in opps:
        groups.setdefault(o.anchor.length, []).append(o)
    return [
        CompleteControl(
            mover.owner, mover,
            tuple(o.anchor for o in group),
            tuple(o.submover for o in group),
        )
        for group in sorted(groups.values(), key=len)
        if frozenset().union(*(o.submover for o in group)) == mover.member_set
    ]


def shift_depth(structure: Structure, h: History, movers: frozenset[InfoSet]) -> int:
    """How many strict prefixes of h are covered exclusively by mover
    information sets (each such move is absorbed upward by the composed
    transformation)."""
    count = 0
    while h.length:
        h = h.parent
        sets = [structure.info_set_of(p, h) for p in structure.active(h)]
        if sets and all(s in movers for s in sets):
            count += 1
    return count


def _uniform_shift(structure: Structure, movers: frozenset[InfoSet]) -> bool:
    for s in structure.info_sets:
        if s in movers:
            continue
        depths = {shift_depth(structure, m, movers) for m in s.members}
        if len(depths) > 1:
            return False
    return True


def iter_synthesized(structure: Structure):
    """The synthesized opportunities, smallest first, found as read.  A
    branch moving a set twice is cut; atoms added can restore equal length,
    so it is tested on whole subsets."""
    ok, witness = check_vnm(structure)
    if not ok:
        raise EgsError(f"synthesized opportunities require a vNM structure; see {witness!r}")
    atoms: list = find_coalescing(structure)
    for mover in structure.info_sets:
        opps = sorted(_is_parts(structure, (mover,)), key=_is_key)
        atoms.extend(_complete_controls_for(structure, mover, opps))

    def hopeless(chosen, later):
        return len({a.mover for a in chosen}) < len(chosen)

    for chosen in _subsets(atoms, hopeless, _MAX_SYNTH_SUBSETS):
        if _uniform_shift(structure, frozenset(a.mover for a in chosen)):
            yield SynthOpp(
                tuple(a for a in chosen if isinstance(a, CoalescingOpp)),
                tuple(a for a in chosen if isinstance(a, CompleteControl)),
            )


def find_synthesized(structure: Structure) -> list[SynthOpp]:
    return list(iter_synthesized(structure))


def _verify_synth(structure: Structure, opp: SynthOpp) -> None:
    if not opp.coalescings and not opp.controls:
        raise TransformError("a synthesized opportunity needs at least one part")
    for k in opp.controls:
        structure.require_info_set(k.mover)
        if len({a.length for a in k.anchors}) != 1:
            raise TransformError(f"anchors of {k!r} are not equal length")
        covered: set[History] = set()
        for anchor, piece in zip(k.anchors, k.pieces):
            if not dictates(structure, anchor, piece, k.owner):
                raise TransformError(f"stale control part {k!r}")
            covered |= set(piece)
        if covered != k.mover.member_set:
            raise TransformError(f"pieces of {k!r} do not partition the mover")
    movers = [a.mover for a in (*opp.coalescings, *opp.controls)]
    if len(set(movers)) != len(movers):
        raise TransformError("movers of a synthesized opportunity must be distinct")
    if not _uniform_shift(structure, frozenset(movers)):
        raise TransformError(
            "a non-participating information set would lose equal length"
        )


def apply_phi(structure: Structure, opp: SynthOpp) -> Structure:
    """The composed equal-length-preserving transformation: all control
    pieces (deepest anchors first), then all coalescings (deepest movers
    first)."""
    ok, witness = check_vnm(structure)
    if not ok:
        raise EgsError(f"the transformation requires a vNM structure; see {witness!r}")
    _verify_synth(structure, opp)
    pieces = [
        IsOpp(k.owner, anchor, piece, k.mover)
        for k in opp.controls for anchor, piece in zip(k.anchors, k.pieces)
    ]
    pieces.sort(key=lambda p: (-p.anchor.length, history_key(p.anchor)))
    coals = sorted(
        opp.coalescings,
        key=lambda c: (-max(m.length for m in c.mover.members), _infoset_key(c.mover)),
    )
    current, _ = _compose(structure, pieces, coals)
    ok, witness = check_vnm(current)
    if not ok:
        raise TransformError(f"transformation result lost equal length at {witness!r}")
    return current
