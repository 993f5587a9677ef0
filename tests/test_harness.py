import re
import string
import subprocess
import sys
from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egs import (
    ROOT,
    EgsError,
    FormatError,
    Game,
    InfoSet,
    Structure,
    GenError,
    GenParams,
    History,
    check_uo,
    check_vnm,
    find_complete_icos,
    gen_random,
    make_profile,
    parse,
    random_payoffs,
    serialize,
    to_dot,
    validate_structure,
)

from egs.core import profile_label

from corpus import profile_count, seeded_structures
from fixtures import g_chain, g_fan, g_red1, game_nul, g_sim, path
from oracles import parse_reference, strip_comment_reference


def test_round_trip_fixtures():
    for build in (g_red1, g_chain, g_sim):
        g = build()
        text = serialize(g)
        again = parse(text)
        assert again == g
        assert serialize(again) == text


def test_round_trip_game():
    game = game_nul()
    text = serialize(game)
    again = parse(text)
    assert isinstance(again, Game)
    assert again.structure == game.structure
    assert again.payoffs == game.payoffs
    assert serialize(again) == text


def test_parse_red1_matches_formalization():
    text = """
egs 1
player 1 actions A,O,B,E,F
player 2 actions c,d,h,i
node "" 1:A|O|B
node "A" 1:E|F 2:c|d
node "O" 2:h|i
node "B" 2:h|i
infoset 2 {"O","B"}
"""
    g = parse(text)
    assert validate_structure(g).ok
    assert g == g_red1()


def test_parse_header_required():
    with pytest.raises(FormatError):
        parse("node \"\" 1:a|b\n")


def test_parse_empty_nodes_fails_validation_not_parse():
    g = parse("egs 1\nplayer 1 actions a,b\n")
    report = validate_structure(g)
    assert not report.ok
    assert "root" in report.axioms()


def test_parse_duplicate_infoset_member_reported_by_validate():
    text = """
egs 1
player 1 actions A,O,B,E,F
player 2 actions c,d,h,i
node "" 1:A|O|B
node "A" 1:E|F 2:c|d
node "O" 2:h|i
node "B" 2:h|i
infoset 2 {"O","B"}
infoset 2 {"O"}
"""
    g = parse(text)
    report = validate_structure(g)
    assert "partition" in report.axioms()


def test_parse_unreachable_node():
    text = "egs 1\nplayer 1 actions a,b\nnode \"\" 1:a|b\nnode \"z\" 1:a|b\n"
    with pytest.raises(FormatError) as err:
        parse(text)
    assert "reachable" in str(err.value)


def test_parse_rejects_an_action_name_with_label_syntax():
    # "a/b" would be the label of the history a then b: the two collided
    text = 'egs 1\nplayer 1 actions a,b,c,x\nnode "" 1:a/b|a|x\nnode "a" 1:b|c\n'
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == 3 and "'a/b'" in str(err.value)
    for ch in '/(),="':
        with pytest.raises(FormatError) as err:
            parse(f'egs 1\nplayer 1 actions a,b\nnode "" 1:a|b{ch}c\n')
        assert err.value.line == 3
        if ch != ",":  # the player line splits its actions on commas
            with pytest.raises(FormatError) as err:
                parse(f'egs 1\nplayer 1 actions a,b{ch}c\nnode "" 1:a|b\n')
            assert err.value.line == 2


def _one_choice(pid: str, actions: tuple[str, ...]) -> Structure:
    """Player pid picks one of the actions at the root."""
    kids = [ROOT.extend(make_profile({pid: a})) for a in actions]
    return Structure(
        (pid,), {pid: frozenset(actions)}, [ROOT, *kids], {pid: (InfoSet(pid, (ROOT,)),)}
    )


@pytest.mark.parametrize("pid, action, name, ch", [
    ("1", "a#b", "a#b", "#"),     # parsed back as the one action a
    ("1", "a|b", "a|b", "|"),     # parsed back as two histories
    ("1", "a b", "a b", " "),     # did not parse
    ("1", "a/b", "a/b", "/"),     # parse refuses it
    ("1", "", "", "is empty"),    # parsed back without it
    ("x:y", "a", "x:y", ":"),     # parsed back as a different structure
    ("x#y", "a", "x#y", "#"),     # did not parse
    ("x y", "a", "x y", " "),
    ("x,y", "a", "x,y", ","),
])
def test_serialize_refuses_a_name_the_format_cannot_carry(pid, action, name, ch):
    g = _one_choice(pid, (action, "c"))
    with pytest.raises(EgsError) as err:
        serialize(g)
    assert repr(name) in str(err.value)
    assert (ch if name == "" else repr(ch)) in str(err.value)


def test_serialize_refuses_a_game_whose_player_id_holds_an_equals_sign():
    # the payoff line "x=y=1/1" failed to parse
    g = _one_choice("x=y", ("a", "b"))
    game = Game(g, {"x=y": {z: Fraction(1) for z in g.terminals}})
    with pytest.raises(EgsError, match="'x=y' contains '='"):
        serialize(game)


def test_parse_refuses_a_player_id_holding_a_colon_or_an_equals_sign():
    for pid in ("x:y", "x=y"):
        with pytest.raises(FormatError) as err:
            parse(f'egs 1\nplayer {pid} actions a,b\nnode "" {pid}:a|b\n')
        assert err.value.line == 2 and repr(pid) in str(err.value)


# Every printable name parse can read as one token: '#' starts a comment
@pytest.mark.parametrize(
    "name", [""] + [f"x{ch}y" for ch in sorted(set(string.punctuation) - {"#"})]
)
def test_parse_and_serialize_refuse_the_same_names(name):
    for pid, action in ((name, "a"), ("1", name)):
        g = _one_choice(pid, (action, "c"))
        try:
            text = serialize(g)
        except EgsError:
            text = None
        declared = f'egs 1\nplayer {pid} actions {action},c\nnode "" {pid}:{action}|c\n'
        if text is None:
            with pytest.raises(FormatError) as err:
                parse(declared)
            assert err.value.line in (2, 3)
        else:
            assert parse(declared) == g and parse(text) == g


def test_parse_refuses_a_node_line_naming_a_player_twice():
    # read as profiles (1=a,1=c), which serialize wrote back as 1:a|b|c|d
    with pytest.raises(FormatError) as err:
        parse('egs 1\nplayer 1 actions a,b,c,d\nnode "" 1:a|b 1:c|d\n')
    assert err.value.line == 3 and "player 1 twice" in str(err.value)


@pytest.mark.parametrize("text, line, repeat", [
    # two children "L", and player 1's plans listed as L,R
    ('egs 1\nplayer 1 actions L,R\nnode "" 1:L|L|R\n', 3, "action 'L' named twice"),
    ('egs 1\nplayer 1 actions L,R,L\nnode "" 1:L|R\n', 2, "action 'L' named twice"),
    ('egs 1\nplayer 1 actions L,R\nplayer 2 actions a,b\nnode "" 1:L|R\n'
     'node "L" 2:a|b\nnode "R" 2:a|b\ninfoset 2 {"L","L"}\n', 7, "history 'L' named twice"),
], ids=["node", "player", "infoset"])
def test_parse_refuses_a_repeated_name(text, line, repeat):
    # a set of the names dropped the repeat silently
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == line and repeat in str(err.value)


_TWO_SETS = (
    'egs 1\nplayer 1 actions L,R\nplayer 2 actions a,b\n'
    'node "" 1:L|R\nnode "L" 2:a|b\nnode "R" 2:a|b\n'
)


@pytest.mark.parametrize("members, stray", [
    ('"" junk', "junk"),
    ('"L" "R" x', "x"),
    ('"L"x,"R"', "x"),
    ('"L";"R"', ";"),
    ('"L","R', '"'),
    ('"L"} {"R"', "}"),
])
def test_parse_refuses_stray_text_between_infoset_members(members, stray):
    # the text between the quoted histories was dropped, and validate said ok
    with pytest.raises(FormatError) as err:
        parse(_TWO_SETS + f"infoset 2 {{{members}}}\n")
    assert err.value.line == 7 and f"got {stray!r}" in str(err.value)


def test_parse_reads_only_commas_and_whitespace_between_infoset_members():
    assert parse(_TWO_SETS + 'infoset 2 { "L" ,, "R" ,}\n') == parse(
        _TWO_SETS + 'infoset 2 {"L","R"}\n'
    )


_ONE_MOVE = 'egs 1\nplayer 1 actions L,R\nnode "" 1:L|R\npayoff "R" 1=0/1\n'


def test_parse_refuses_a_second_payoff_line_for_a_terminal():
    # the second line used to win silently
    with pytest.raises(FormatError) as err:
        parse(_ONE_MOVE + 'payoff "L" 1=1/1\npayoff "L" 1=5/1\n')
    assert err.value.line == 6 and "'L' given twice" in str(err.value)


def test_parse_refuses_a_payoff_line_for_a_non_terminal():
    # the game refused it with no line number: payoffs must cover the terminals
    with pytest.raises(FormatError) as err:
        parse('egs 1\nplayer 1 actions L,R\nnode "" 1:L|R\npayoff "" 1=1\n')
    assert err.value.line == 4 and "non-terminal ''" in str(err.value)


def test_parse_refuses_a_payoff_line_naming_a_player_twice():
    with pytest.raises(FormatError) as err:
        parse(_ONE_MOVE + 'payoff "L" 1=1/1 1=7/1\n')
    assert err.value.line == 5 and "player 1 twice" in str(err.value)


def test_parse_reads_rationals_as_p_over_q_with_positive_q():
    # int() alone also took a negative q, '+', '_' and non-ASCII digits
    bad_values = ("1/-2", "1/0", "-1/-2", "0/-1", "+2/3", "2/+3", "1_0/3", "\u0663/4", "1/", "/2")
    for bad in bad_values:
        with pytest.raises(FormatError) as err:
            parse(_ONE_MOVE + f'payoff "L" 1={bad}\n')
        assert err.value.line == 5 and f"bad rational {bad!r}" in str(err.value)
    game = parse(_ONE_MOVE + 'payoff "L" 1=-1/2\n')
    assert game.payoffs["1"][path({"1": "L"})] == Fraction(-1, 2)


def test_parse_bad_rational():
    text = "egs 1\nplayer 1 actions a,b\nnode \"\" 1:a|b\npayoff \"a\" 1=1/0\n"
    with pytest.raises(FormatError):
        parse(text)


def test_parse_gives_singletons_to_histories_no_infoset_line_covers():
    text = """
egs 1
player 1 actions a,b,c,d
player 2 actions x,y
node "" 1:a|b
node "a" 2:x|y
node "b" 2:x|y
node "a/x" 1:c|d
node "b/x" 1:c|d 3:p|q
infoset 1 {"a/x","b/x"}
infoset 2 {"a"}
"""
    g = parse(text)
    a, b = path({"1": "a"}), path({"1": "b"})
    ax = a.extend(make_profile({"2": "x"}))
    bx = b.extend(make_profile({"2": "x"}))
    assert g.partitions == {
        "1": (InfoSet("1", (ROOT,)), InfoSet("1", (ax, bx))),
        "2": (InfoSet("2", (a,)), InfoSet("2", (b,))),
    }
    # the undeclared player 3 moves at b/x but gets no partition
    assert g.active(bx) == ("1", "3")


def test_parse_builds_one_structure(monkeypatch):
    texts = serialize(g_red1()), serialize(game_nul())
    built = []
    init = Structure.__init__
    monkeypatch.setattr(
        Structure, "__init__", lambda self, *args: built.append(1) or init(self, *args)
    )
    for k, text in enumerate(texts, start=1):
        parse(text)
        assert len(built) == k


@settings(max_examples=100, deadline=None)
@given(seeded_structures(), st.integers(0, 2**32))
def test_round_trip_is_byte_identical_on_the_corpus(g, seed):
    text = serialize(g)
    assert parse(text) == g and serialize(parse(text)) == text
    if profile_count(g) > 2000:
        return  # a game's utility lists hold one entry per plan profile
    game = Game(g, random_payoffs(g, random.Random(seed)))
    text = serialize(game)
    again = parse(text)
    assert again.payoffs == game.payoffs and serialize(again) == text


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
def test_parse_builds_the_labels_history_label_gives(g):
    # every node and infoset line is found by the label parse builds down
    # the root walk; a label unlike `History.label` would leave a node
    # unreachable, a member unknown or the tree short
    from unittest import mock

    text = serialize(g)
    with mock.patch.object(History, "label", side_effect=AssertionError("label called")):
        parsed = parse(text)
    assert parsed == g and serialize(parsed) == text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='a"#\\ /()', max_size=40))
def test_strip_comment_matches_the_character_loop(line):
    from egs.fileformat import _strip_comment

    assert _strip_comment(line) == strip_comment_reference(line)


def _parsed(read, text):
    """What a parse of the text gives: the value, or the error's type,
    message and line."""
    try:
        value = read(text)
    except EgsError as err:
        return type(err), str(err), getattr(err, "line", None)
    if isinstance(value, Game):
        return Game, value.structure, value.payoffs
    return Structure, value


# Stray text put at some place in a line: into a label, a spec, a name or
# between an infoset line's members
_STRAY = (" ", "x", " junk", "|", ",", ":", "=", "/", "(", '"', '\\"', "{", "}", "1:z", "a\\")


@st.composite
def _mutated_texts(draw):
    """A serialized corpus structure or game, with up to three lines
    dropped, repeated, given a '#' comment, an escaped quote in a label,
    stray text, or their node specs in reverse player order."""
    g = draw(seeded_structures())
    if draw(st.booleans()) and profile_count(g) <= 2000:
        g = Game(g, random_payoffs(g, random.Random(draw(st.integers(0, 2**32)))))
    lines = serialize(g).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("drop", "repeat", "comment", "quote", "stray", "reverse")))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, line)
        elif kind == "comment":
            lines[i] = line[:at] + draw(st.sampled_from(("#", " # note", '#"', "#x"))) + line[at:]
        elif kind == "quote":
            quotes = [k for k, ch in enumerate(line) if ch == '"']
            if quotes:
                k = draw(st.sampled_from(quotes)) + 1
                lines[i] = line[:k] + '\\"' + line[k:]
        elif kind == "stray":
            lines[i] = line[:at] + draw(st.sampled_from(_STRAY)) + line[at:]
        elif line.startswith("node "):
            head, _, specs = line.rpartition('" ')
            lines[i] = head + '" ' + " ".join(reversed(specs.split()))
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_mutated_texts())
def test_parse_agrees_with_the_line_by_line_reference(text):
    assert _parsed(parse, text) == _parsed(parse_reference, text)


def test_gen_deterministic():
    params = GenParams(seed=7, players=2, max_depth=3)
    a = gen_random(params)
    b = gen_random(params)
    assert a == b
    assert serialize(a) == serialize(b)


def test_gen_depth_one_simultaneous():
    params = GenParams(seed=3, players=2, max_depth=1, simultaneity=1.0)
    g = gen_random(params)
    assert max(h.length for h in g.histories) == 1
    assert sorted(g.active(g.root)) == ["1", "2"]


def test_gen_validates_1000_draws():
    for seed in range(1000):
        g = gen_random(GenParams(seed=seed, players=2 + seed % 2, max_depth=3,
                                 simultaneity=0.3, merge_prob=0.6))
        assert validate_structure(g).ok


def test_round_trip_500_generated():
    from fixtures import (
        g_ent, g_ga, g_icot, g_kms, g_ladder, g_mud, g_nc,
        g_nec_interpolation, g_nec_participant, g_nul, g_ovlp, g_sim3,
        g_uneven, g_uom, g_g76,
    )

    everything = [
        g_red1(), g_chain(), g_sim(), g_ent(), g_ga(), g_icot(), g_kms(),
        g_ladder(), g_mud(), g_nc(), g_nec_interpolation(),
        g_nec_participant(), g_nul(), g_ovlp(), g_sim3(), g_uneven(),
        g_uom(), g_g76(),
    ]
    for seed in range(500):
        everything.append(gen_random(GenParams(
            seed=seed, players=2 + seed % 2, max_depth=2 + seed % 3,
            simultaneity=0.3, merge_prob=0.6,
        )))
    for g in everything:
        assert parse(serialize(g)) == g


def test_gen_flags():
    g = gen_random(GenParams(seed=5, players=3, max_depth=3,
                             simultaneity=0.4, merge_prob=0.7), require_uo=True)
    assert check_uo(g)[0]
    g = gen_random(GenParams(seed=5, players=2, max_depth=3,
                             simultaneity=0.3, merge_prob=0.7), require_vnm=True)
    assert check_vnm(g)[0]


def test_gen_budget_error():
    # six players cannot all act at a root-only tree: every attempt fails
    with pytest.raises(GenError, match="in 400 attempts"):
        gen_random(GenParams(seed=1, players=6, max_depth=1, simultaneity=0.0))


def test_random_payoffs_cover_terminals():
    import random

    g = g_red1()
    pay = random_payoffs(g, random.Random(1))
    game = Game(g, pay)
    assert set(game.payoffs["1"]) == set(g.terminals)


def test_dot_counts():
    chain = to_dot(g_chain())
    assert chain.count("shape=circle") + chain.count("shape=point") == 5
    assert chain.count("shape=box") == 2
    red = to_dot(g_red1())
    assert red.count("shape=circle") + red.count("shape=point") == 12
    assert red.count("shape=box") == 4
    # the O/B hull connects both members
    assert red.count("style=dashed, arrowhead=none") == 5  # 1+1+1+2 members
    assert to_dot(g_red1()) == red  # byte-identical on repeat


def test_dot_game_payoffs_shown():
    text = to_dot(game_nul())
    assert "[1," in text or "[0," in text


_DOT_ATTRIBUTES = re.compile(r'\[((?:\w+=(?:"(?:[^"\\]|\\.)*"|\w+)(?:, |(?=\])))*)\];$')
_DOT_ATTRIBUTE = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\w+)')


@pytest.mark.parametrize("text", [
    # a player id may hold '"' and an action '\\'; the file is valid
    'egs 1\nplayer a"b actions x,y\nplayer 2 actions c,d\nnode "" a"b:x|y 2:c|d\n',
    'egs 1\nplayer a"b\\c actions x\\y,z\nplayer 2 actions c,d\nnode "" a"b\\c:x\\y|z 2:c|d\n',
], ids=["quote", "quote and backslash"])
def test_dot_quotes_every_label_whatever_the_names_hold(text):
    g = parse(text)
    assert validate_structure(g).ok
    labels = []
    for line in to_dot(g).splitlines()[2:-1]:
        attributes = _DOT_ATTRIBUTES.search(line)
        assert attributes, line
        for name, value in _DOT_ATTRIBUTE.findall(attributes.group(1)):
            if value.startswith('"'):
                # DOT's escapes: a line break, a quote and a backslash
                value = re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], value[1:-1])
                labels.append((name, value))
    players = ",".join(g.active(ROOT))
    expected = [("label", f"root\n{players}")]
    for t in g.terminals:
        expected += [("label", t.label()), ("xlabel", t.label())]
    expected += [("label", profile_label(t.moves[-1])) for t in g.terminals]
    expected += [("label", f"{p}:0") for p in g.players]
    assert labels == expected


# -- command-line interface ---------------------------------------------


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "egs.cli", *args],
        capture_output=True, text=True, input=stdin,
    )


def test_cli_end_to_end(tmp_path):
    red = tmp_path / "red1.egs"
    red.write_text(serialize(g_red1()))

    out = run_cli("validate", str(red))
    assert out.returncode == 0 and out.stdout.strip() == "ok"

    out = run_cli("check", "uo", str(red))
    assert out.returncode == 0 and out.stdout.startswith("yes")

    out = run_cli("check", "vnm", str(red))
    assert out.returncode == 0

    out = run_cli("rnf", str(red))
    assert out.returncode == 0 and "player 1:" in out.stdout

    out = run_cli("opps", str(red))
    assert out.returncode == 0 and "[0]" in out.stdout

    out = run_cli("apply", str(red), "--kind", "coalescing", "--opp", "0")
    assert out.returncode == 0
    coalesced = tmp_path / "red2.egs"
    coalesced.write_text(out.stdout)

    out = run_cli("equiv", str(red), str(coalesced))
    assert out.returncode == 0 and "equivalent" in out.stdout

    out = run_cli("equiv", str(red), str(coalesced), "--via-minimal")
    assert out.returncode == 0

    out = run_cli("minimize", str(red))
    assert out.returncode == 0
    assert parse(out.stdout) == parse((tmp_path / "red2.egs").read_text())

    out = run_cli("dot", str(red))
    assert out.returncode == 0 and out.stdout.startswith("digraph")


def test_cli_negative_and_error_codes(tmp_path):
    from fixtures import g_kms

    kms = tmp_path / "kms.egs"
    kms.write_text(serialize(g_kms()))
    out = run_cli("check", "uo", str(kms))
    assert out.returncode == 1

    chain = tmp_path / "chain.egs"
    chain.write_text(serialize(g_chain()))
    sim = tmp_path / "sim.egs"
    sim.write_text(serialize(g_sim()))
    out = run_cli("equiv", str(chain), str(sim))
    assert out.returncode == 1

    out = run_cli("bd", str(chain))
    assert out.returncode == 2  # no payoffs in the file

    out = run_cli("validate", str(tmp_path / "missing.egs"))
    assert out.returncode == 2


def test_cli_equiv_states_why_a_pair_is_not_equivalent(tmp_path):
    chain = tmp_path / "chain.egs"
    chain.write_text(serialize(g_chain()))
    sim = tmp_path / "sim.egs"
    sim.write_text(serialize(g_sim()))
    for route in ((), ("--via-minimal",)):
        out = run_cli("equiv", *route, str(chain), str(sim))
        assert out.returncode == 1
        assert out.stdout == "not equivalent\nterminal counts differ: 3 vs 4\n"
        out = run_cli("equiv", *route, str(chain), str(chain))
        assert out.returncode == 0 and out.stdout == "equivalent\n"


def test_cli_refuses_a_rootless_structure_and_an_undeclared_mover(tmp_path):
    # exit 1 would read as a negative verdict: malformed input is an error
    header = "egs 1\nplayer 1 actions L,R\nplayer 2 actions a,b\n"
    undeclared = header + 'node "" 3:L|R\n'
    files = {
        "chain": serialize(g_chain()),
        "rootless": header,
        "undeclared": undeclared,
        "undeclared-game": undeclared + 'payoff "L" 1=0 2=0\npayoff "R" 1=1 2=1\n',
    }
    for name, text in files.items():
        (tmp_path / f"{name}.egs").write_text(text)
    cases = [
        (("rnf", "rootless"), "the structure has no root history"),
        (("equiv", "rootless", "chain"), "the structure has no root history"),
        (("equiv", "chain", "rootless"), "the structure has no root history"),
        (("rnf", "undeclared"), "undeclared player 3 moves at ''"),
        (("equiv", "undeclared", "chain"), "undeclared player 3 moves at ''"),
        (("equiv", "--via-minimal", "undeclared", "undeclared"), "undeclared player 3"),
        # the minimal route refuses these before its UO check, which passes
        # them, and before comparing counts, which differ from the chain's
        (("equiv", "--via-minimal", "rootless", "rootless"), "the structure has no root history"),
        (("equiv", "--via-minimal", "undeclared", "chain"), "undeclared player 3 moves at ''"),
        (("bd", "undeclared-game"), "undeclared player 3 moves at ''"),
    ]

    def run(*args):
        return run_cli(args[0], *(
            a if a.startswith("-") else str(tmp_path / f"{a}.egs") for a in args[1:]
        ))

    for args, message in cases:
        out = run(*args)
        assert out.returncode == 2, (args, out.stdout, out.stderr)
        assert out.stderr.startswith("error: ") and message in out.stderr, (args, out.stderr)
    # parsing a game builds no plan space, so validate reports on the file
    out = run("validate", "undeclared-game")
    assert out.returncode == 1, (out.stdout, out.stderr)
    assert "active-players: unknown player 3 at ''" in out.stdout


def test_cli_bd_refuses_a_malformed_payoff_line(tmp_path):
    lines = {
        "twice": 'payoff "L" 1=1/1\npayoff "L" 1=5/1\n',
        "player-twice": 'payoff "L" 1=1/1 1=7/1\n',
        "negative-q": 'payoff "L" 1=1/-2\n',
    }
    for name, text in lines.items():
        game = tmp_path / f"{name}.egs"
        game.write_text(_ONE_MOVE + text)
        out = run_cli("bd", str(game))
        assert out.returncode == 2 and out.stdout == "", (name, out.stdout)
        line = 6 if name == "twice" else 5
        assert out.stderr.startswith(f"error: line {line}: "), (name, out.stderr)


def test_cli_bd_and_monotonic(tmp_path):
    nul = tmp_path / "nul.egs"
    nul.write_text(serialize(game_nul()))
    out = run_cli("bd", str(nul))
    assert out.returncode == 0
    assert "survivors" in out.stdout
    assert "1:{A}" in out.stdout.replace(" ", "")

    out = run_cli("opps", str(nul), "--kind", "ico")
    assert out.returncode == 0
    index = None
    for line in out.stdout.splitlines():
        if "is_parts" in line and line.count("anchor") == 2:
            index = line.split("]")[0].strip("[")
    assert index is not None
    out = run_cli("monotonic", str(nul), "--ico", index)
    assert out.returncode == 0 and "monotonic" in out.stdout


def test_cli_reads_opportunities_only_up_to_the_one_it_needs(tmp_path):
    # listing the ICOs of the first fan, or the synthesized opportunities of
    # the second, is refused at its subset bound
    for n, kind in ((17, "ico"), (20, "synth")):
        fan = tmp_path / f"fan-{n}.egs"
        fan.write_text(serialize(g_fan(n)))
        out = run_cli("apply", str(fan), "--kind", kind, "--opp", "1")
        assert out.returncode == 0 and validate_structure(parse(out.stdout)).ok
    # past the last, the message counts them all
    nul = tmp_path / "nul.egs"
    nul.write_text(serialize(game_nul()))
    found = len(find_complete_icos(game_nul().structure))
    for k in (found, -1):
        out = run_cli("monotonic", str(nul), "--ico", str(k))
        assert out.returncode == 2
        assert out.stderr == f"error: no complete ICO #{k} (found {found})\n"
        out = run_cli("apply", str(nul), "--kind", "ico", "--opp", str(k))
        assert out.returncode == 2
        assert out.stderr == f"error: no ico opportunity #{k} (found {found})\n"


def test_cli_crossing_refused_without_force(tmp_path):
    from fixtures import g_mud

    mud = tmp_path / "mud.egs"
    mud.write_text(serialize(g_mud()))
    out = run_cli("opps", str(mud), "--kind", "is")
    assert out.returncode == 0 and "[0]" in out.stdout
    out = run_cli("apply", str(mud), "--kind", "is", "--opp", "0")
    assert out.returncode == 2
    out = run_cli("apply", str(mud), "--kind", "is", "--opp", "0", "--force")
    assert out.returncode == 0
    forced = parse(out.stdout)
    assert not check_uo(forced)[0]


def test_cli_gen_and_compact(tmp_path):
    out = run_cli("gen", "--seed", "11", "--players", "2", "--depth", "3",
                  "--uo")
    assert out.returncode == 0
    gen_file = tmp_path / "gen.egs"
    gen_file.write_text(out.stdout)
    again = run_cli("gen", "--seed", "11", "--players", "2", "--depth", "3",
                    "--uo")
    assert again.stdout == out.stdout

    out = run_cli("compact", str(gen_file))
    assert out.returncode == 0
    # output parses even with the applied-schedule comments
    result = parse(out.stdout)
    assert validate_structure(result).ok

    out = run_cli("gen", "--seed", "4", "--payoffs")
    assert out.returncode == 0
    game = parse(out.stdout)
    assert isinstance(game, Game)
