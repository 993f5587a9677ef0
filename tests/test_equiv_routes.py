"""Route agreement for behavioral equivalence on 200 random UO pairs:
equivalent pairs built by random transformation chains, inequivalent ones
by grafting a fresh decision onto a terminal (which perturbs the outcome
multiset without touching payoffs)."""

import random

from egs import (
    InfoSet,
    Structure,
    behaviorally_equivalent,
    check_uo,
    make_profile,
    validate_structure,
)

from corpus import random_chain, uo_corpus


def graft_extra_decision(structure, rng):
    """Turn one terminal into a decision point of the first player with two
    fresh actions: the terminal count grows, so the outcome multiset of the
    reduced normal form changes."""
    owner = structure.players[0]
    z = structure.terminals[rng.randrange(len(structure.terminals))]
    fresh = ("zz1", "zz2")
    kids = [z.extend(make_profile({owner: a})) for a in fresh]
    actions = dict(structure.actions)
    actions[owner] = actions[owner] | set(fresh)
    partitions = {p: list(blocks) for p, blocks in structure.partitions.items()}
    partitions[owner].append(InfoSet(owner, (z,)))
    return Structure(
        structure.players, actions,
        list(structure.histories) + kids,
        {p: tuple(v) for p, v in partitions.items()},
    )


def test_routes_agree_on_200_pairs():
    rng = random.Random(606)
    corpus = uo_corpus(100, seed=61)
    pairs = []
    for structure in corpus:
        pairs.append((structure, random_chain(structure, rng), True))
    for structure in corpus:
        other = graft_extra_decision(structure, rng)
        assert validate_structure(other).ok
        assert check_uo(other)[0]
        pairs.append((structure, other, False))
    assert len(pairs) == 200
    for g1, g2, expected in pairs:
        flag, _ = behaviorally_equivalent(g1, g2, route="both")
        assert flag == expected
