"""Line-based text format for structures and games.

    egs 1
    player 1 actions A,O,B,E,F
    player 2 actions c,d,h,i
    node "" 1:A|O|B
    node "A" 1:E|F 2:c|d
    node "O" 2:h|i
    infoset 2 {"O","B"}
    payoff "O/h" 1=1/1 2=0/1

Only non-terminal histories get node lines; children are the full action
profile product, and anything without a node line is a terminal.  History
labels join profiles with '/'; a profile with one entry is the bare action
and otherwise is '(player=action,...)' sorted by player.  Active histories
not covered by an infoset line become singleton information sets, so only
non-trivial blocks need declaring.  Payoff lines (rationals 'p/q' or 'p',
q positive; one line per terminal, each player at most once) turn the
file into a game.  No line repeats a player, an action or a history, and
an infoset line holds only commas and whitespace between its quoted
histories.  '#' starts a comment outside quotes.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .core import EgsError, History, InfoSet, ROOT, Structure, profile_label
from .dominance import Game


class FormatError(EgsError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|\S+')

# An infoset line's members: a quoted history, its text inside the quotes
# in the first group; or in the second, stray text: a run of anything but
# commas, whitespace and quotes, or a quote that opens no history.
_MEMBER = re.compile(r'"((?:[^"\\]|\\.)*)"|([^\s,"]+|")')


# Runs of plain text and quoted spans (an unclosed one runs to the end of
# the line); the match stops at the first '#' outside quotes.
_BEFORE_COMMENT = re.compile(r'(?:[^"#]+|"[^"]*"?)*')


def _strip_comment(line: str) -> str:
    return _BEFORE_COMMENT.match(line).group()


# What a player id or an action name cannot hold, besides whitespace: the
# format reads it as syntax, and '#' starts a comment.  An action holding
# history-label syntax would give two histories one label.
_ID_SYNTAX = re.compile(r"[\s:=,#]")
_ACTION_CHARS = r'\s/(),="|#'
_ACTION_SYNTAX = re.compile(f"[{_ACTION_CHARS}]")
# The same, less the separator, searched once over a run of names joined by it
_RUN_SYNTAX = {sep: re.compile(f"[{_ACTION_CHARS.replace(sep, '')}]") for sep in ",|"}


def _name(kind: str, name: str, syntax: re.Pattern, lineno: int | None = None) -> str:
    """The name, if the format can carry it.  Otherwise raises EgsError
    saying why, a FormatError when parsing the given line."""
    found = syntax.search(name)
    if found or not name:
        what = f"contains {found.group()!r}" if found else "is empty"
        message = f"{kind} {name!r} {what}, which the format cannot carry"
        raise EgsError(message) if lineno is None else FormatError(lineno, message)
    return name


def _once(names: list[str], kind: str, lineno: int) -> list[str]:
    """The names, if none repeats; otherwise a FormatError naming the first
    repeat, which a set of the names would silently drop."""
    if len(set(names)) < len(names):
        repeat = next(n for k, n in enumerate(names) if n in names[:k])
        raise FormatError(lineno, f"{kind} {repeat!r} named twice")
    return names


def _actions(run: str, sep: str, lineno: int) -> list[str]:
    """The action names of a run joined by sep, if the format can carry
    each and none repeats.  One search covers the whole run; only when it
    finds something are the names checked one by one, to name the first."""
    names = run.split(sep)
    if _RUN_SYNTAX[sep].search(run) or "" in names:
        for a in names:
            _name("action", a, _ACTION_SYNTAX, lineno)
    return _once(names, "action", lineno)


def _unescape(text: str) -> str:
    """A history label from its text inside the quotes."""
    return text.replace('\\"', '"')


def _unquote(token: str, lineno: int) -> str:
    if len(token) < 2 or token[0] != '"' or token[-1] != '"':
        raise FormatError(lineno, f"expected a quoted history, got {token}")
    return _unescape(token[1:-1])


# 'p/q' or 'p' in ASCII digits; q must be positive
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_fraction(text: str, lineno: int) -> Fraction:
    found = _RATIONAL.fullmatch(text)
    den = int(found.group(2) or 1) if found else 0
    if not den:
        raise FormatError(lineno, f"bad rational {text!r}")
    return Fraction(int(found.group(1)), den)


def parse(text: str):
    """Parse the format; returns a Structure, or a Game when payoff lines
    are present.  Diagnostics carry line numbers; semantic problems are
    left for validate_structure."""
    players: list[str] = []
    actions: dict[str, frozenset[str]] = {}
    # each node's line, its players in line order and its children's profiles
    nodes: dict[str, tuple[int, list[str], list[tuple]]] = {}
    infoset_lines: list[tuple[int, str, list[str]]] = []
    payoff_lines: list[tuple[int, str, dict[str, Fraction]]] = []
    header_seen = False

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = _strip_comment(line)
        tokens = _TOKEN.findall(line)
        if not tokens:
            continue
        if not header_seen:
            if tokens[:2] != ["egs", "1"]:
                raise FormatError(lineno, "expected header 'egs 1'")
            header_seen = True
            continue
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 3:
                raise FormatError(lineno, "expected: node \"<history>\" pid:a|b ...")
            label = _unquote(tokens[1], lineno)
            pids, pools = [], []
            for tok in tokens[2:]:
                pid, colon, acts = tok.partition(":")
                if not colon:
                    raise FormatError(lineno, f"expected pid:a|b|..., got {tok}")
                if pid in pids:
                    raise FormatError(lineno, f"node {label!r} names player {pid} twice")
                pids.append(pid)
                pools.append([(pid, a) for a in _actions(acts, "|", lineno)])
            if label in nodes:
                raise FormatError(lineno, f"node {label!r} declared twice")
            # A child's profile takes one entry from each pool; with the
            # pools sorted by player, so is every combination.
            nodes[label] = (lineno, pids, list(itertools.product(*sorted(pools))))
        elif kind == "infoset":
            if len(tokens) < 3:
                raise FormatError(lineno, "expected: infoset <pid> {\"h\",...}")
            body = line.split(None, 2)[2].strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise FormatError(lineno, "infoset members must be {...}")
            labels = []
            for quoted, stray in _MEMBER.findall(body, 1, len(body) - 1):
                if stray:
                    raise FormatError(lineno, f"expected quoted histories, got {stray!r}")
                labels.append(_unescape(quoted))
            infoset_lines.append((lineno, tokens[1], _once(labels, "history", lineno)))
        elif kind == "payoff":
            if len(tokens) < 3:
                raise FormatError(lineno, "expected: payoff \"<terminal>\" pid=p/q ...")
            label = _unquote(tokens[1], lineno)
            values: dict[str, Fraction] = {}
            for tok in tokens[2:]:
                pid, equals, num = tok.partition("=")
                if not equals:
                    raise FormatError(lineno, f"expected pid=p/q, got {tok}")
                if pid in values:
                    raise FormatError(lineno, f"payoff {label!r} names player {pid} twice")
                values[pid] = _parse_fraction(num, lineno)
            payoff_lines.append((lineno, label, values))
        elif kind == "player":
            if len(tokens) != 4 or tokens[2] != "actions":
                raise FormatError(lineno, "expected: player <id> actions a,b,...")
            pid = _name("player id", tokens[1], _ID_SYNTAX, lineno)
            if pid in actions:
                raise FormatError(lineno, f"player {pid} declared twice")
            players.append(pid)
            actions[pid] = frozenset(_actions(tokens[3], ",", lineno))
        else:
            raise FormatError(lineno, f"unknown directive {kind!r}")
    if not header_seen:
        raise FormatError(1, "empty input; expected header 'egs 1'")

    histories: dict[str, History] = {}
    used_nodes: set[str] = set()
    if "" in nodes:
        # Each history carries its label down the walk: its parent's, a '/'
        # and its last move's part, as `History.label` writes them.
        stack = [(ROOT, "")]
        histories[""] = ROOT
        while stack:
            h, label = stack.pop()
            node = nodes.get(label)
            if node is None:
                continue
            used_nodes.add(label)
            prefix = label + "/" if label else ""
            for profile in node[2]:
                child = h.extend(profile)
                child_label = prefix + profile_label(profile)
                histories[child_label] = child
                stack.append((child, child_label))
    unreachable = sorted(set(nodes) - used_nodes)
    if unreachable:
        lineno = nodes[unreachable[0]][0]
        raise FormatError(lineno, f"node {unreachable[0]!r} is not reachable from the root")

    partitions: dict[str, list[InfoSet]] = {p: [] for p in players}
    declared_members: dict[str, set[History]] = {p: set() for p in players}
    for lineno, pid, labels in infoset_lines:
        if pid not in actions:
            raise FormatError(lineno, f"infoset for undeclared player {pid}")
        members = []
        for lbl in labels:
            if lbl not in histories:
                raise FormatError(lineno, f"unknown history {lbl!r} in infoset")
            members.append(histories[lbl])
        if not members:
            raise FormatError(lineno, "empty infoset")
        partitions[pid].append(InfoSet(pid, tuple(members)))
        declared_members[pid].update(members)

    # A node line names the players active at its history; each such
    # history no infoset line covers gets a singleton set.
    for label, (_, pids, _) in nodes.items():
        h = histories[label]
        for pid in pids:
            if pid in partitions and h not in declared_members[pid]:
                partitions[pid].append(InfoSet(pid, (h,)))
    structure = Structure(players, actions, histories.values(), partitions)

    if not payoff_lines:
        return structure
    payoffs: dict[str, dict[History, Fraction]] = {p: {} for p in players}
    paid: set[History] = set()
    for lineno, label, values in payoff_lines:
        if label not in histories:
            raise FormatError(lineno, f"unknown terminal {label!r}")
        if label in nodes:
            raise FormatError(lineno, f"payoff for non-terminal {label!r}")
        z = histories[label]
        if z in paid:
            raise FormatError(lineno, f"payoff for {label!r} given twice")
        paid.add(z)
        for pid, v in values.items():
            if pid not in actions:
                raise FormatError(lineno, f"payoff for undeclared player {pid}")
            payoffs[pid][z] = v
    return Game(structure, payoffs)


def _quote(label: str) -> str:
    return '"' + label.replace('"', '\\"') + '"'


def serialize(obj) -> str:
    """Deterministic text form; parse(serialize(x)) == x.  Raises EgsError
    for a player id or action name the format cannot carry."""
    game = obj if isinstance(obj, Game) else None
    structure: Structure = game.structure if game else obj
    lines = ["egs 1"]
    # a valid structure's node lines use only the names declared here
    for p in structure.players:
        acts = (_name("action", a, _ACTION_SYNTAX) for a in sorted(structure.actions[p]))
        lines.append(f"player {_name('player id', p, _ID_SYNTAX)} actions {','.join(acts)}")
    # Each history's label is its parent's, a '/' and its last move's part,
    # as `History.label` writes them; parents come first in history order.
    labels: dict[History, str] = {}
    for h in structure.histories:
        parent = h.parent if h.length > 1 else None
        if parent in labels:
            labels[h] = labels[parent] + "/" + profile_label(h.moves[-1])
        else:
            labels[h] = h.label()
        if structure.is_terminal(h):
            continue
        specs = " ".join(
            f"{p}:{'|'.join(structure.feasible(h, p))}" for p in structure.active(h)
        )
        lines.append(f"node {_quote(labels[h])} {specs}")
    for p in structure.players:
        for block in structure.partitions.get(p, ()):
            members = ",".join(
                _quote(labels[m] if m in labels else m.label()) for m in block.members
            )
            lines.append(f"infoset {p} {{{members}}}")
    if game is not None:
        for z in structure.terminals:
            values = " ".join(
                f"{p}={game.payoffs[p][z].numerator}/{game.payoffs[p][z].denominator}"
                for p in structure.players
            )
            lines.append(f"payoff {_quote(labels[z])} {values}")
    return "\n".join(lines) + "\n"
