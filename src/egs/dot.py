"""Graphviz DOT rendering: one node per history, edges labeled with the
action profile taken, and one dashed box per information set linked to its
members (boxes rather than clusters, since sets of different players may
overlap).  Output is deterministic."""

from __future__ import annotations

from .core import Structure, profile_label


def _escaped(text: str) -> str:
    """Text for a DOT quoted string: `\\` and `"` escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(obj) -> str:
    from .dominance import Game

    game = obj if isinstance(obj, Game) else None
    structure: Structure = game.structure if game else obj
    ids = {h: f"n{k}" for k, h in enumerate(structure.histories)}
    lines = ["digraph egs {", "  rankdir=TB;"]
    for h in structure.histories:
        label = _escaped(h.label() or "root")
        if structure.is_terminal(h):
            if game is not None:
                pay = ",".join(
                    str(game.payoffs[p][h]) for p in structure.players
                )
                label = f"{label}\\n[{pay}]"
            lines.append(f'  {ids[h]} [label="{label}", shape=point, xlabel="{label}"];')
        else:
            owners = _escaped(",".join(structure.active(h)))
            lines.append(f'  {ids[h]} [label="{label}\\n{owners}", shape=circle];')
    for h in structure.histories:
        for kid in structure.children(h):
            lines.append(
                f'  {ids[h]} -> {ids[kid]} [label="{_escaped(profile_label(kid.moves[-1]))}"];'
            )
    hull = 0
    for p in structure.players:
        for k, block in enumerate(structure.partitions.get(p, ())):
            name = f"iset{hull}"
            hull += 1
            lines.append(
                f'  {name} [label="{_escaped(p)}:{k}", shape=box, style=dashed];'
            )
            for m in block.members:
                lines.append(
                    f"  {name} -> {ids[m]} [style=dashed, arrowhead=none, constraint=false];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
