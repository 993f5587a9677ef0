"""The generator: pinned draws, and every draft valid whether or not
`gen_random` admits it."""

import dataclasses
import hashlib
import random

import pytest

import egs.generate
from egs import (
    GenError,
    GenParams,
    check_uo,
    check_vnm,
    gen_random,
    serialize,
    validate_structure,
)
from egs.generate import _generate_once

from fixtures import g_absent_minded

# sha256 of serialize(gen_random(...)): ("uo", players, depth, seed) with
# the benchmark templates' parameters (max_branching=2, no simultaneous
# moves, merge_prob=0.8, continue_prob=1.0) and require_uo; ("default",
# seed) with the default parameters; ("vnm", seed) with the defaults and
# require_vnm, at seeds where the flag rejects a draft (below 120, only
# these three do).  Any change to a draw changes one of these.
PINNED = {
    ("uo", 2, 3, 1): "1c7482ef31336196a9186f7ce92effa64aec9da1f2b8ee5bd41c9167c5e51e6c",
    ("uo", 2, 3, 2): "2f4fd858afa25d5efbc08c9e2cb3b07adcc708d4562e0e01463fa9d99bde1fac",
    ("uo", 2, 3, 3): "5a453bdd7c3f11e3542864a90a8f7a2c82c18d0a8aa70f6df751c9f0d6f0d732",
    ("uo", 3, 3, 1): "4342c54bda6204e345c8919a6f19e9419b582f8d8fa365620fa8f15f21ec24d6",
    ("uo", 3, 3, 2): "195a16881384ff7517533d4bdf1c4fa6d892c27e5fb874dfa017adbb3331a100",
    ("uo", 3, 3, 3): "b4a0a78f1d5e076224b921aa9500a95c4a1372333f4b09fc3572d45dc9e8cfe5",
    ("uo", 2, 4, 1): "91d5b162aa20d7a2f6467903e20da4fd7eb979eca2195ed992571e3b18ee2bea",
    ("uo", 2, 4, 2): "af1cf0c2f20b57fd1f0493e18bd1cb1366f944c360007d2bb9e14266b3d2f6ae",
    ("uo", 2, 4, 3): "326e4e8a968d20b917fbb061daf874c1d31ca0d40821952e1127c0691b057f40",
    ("uo", 2, 5, 1): "5fe342a4a4df1ca377be797d45abc21b8d682e0c124d780a4c5ddddcb87d0d3f",
    ("uo", 2, 5, 2): "5f0a86a252053a6002254d156e24fa99955185abbae963a91b219580876ff187",
    ("uo", 2, 5, 3): "be623bea8e0b1404b806347e0c6504ebff2b43e5ceee72b7d04125d773ac0f5f",
    ("uo", 3, 5, 1): "9f03e857b44728e6cd5d922e45d0b2bd2345e839a21f2344772d25afe03341ef",
    ("uo", 3, 5, 2): "9b31dcfe71aacf9e13a491bc116f738cf5a0d363d379827f558bbcc9dda3de58",
    ("uo", 3, 5, 3): "89ab58684c931aef13c75ea4f75964273d937c7d7ebf8cc02bd7ce1bdc261711",
    ("uo", 2, 6, 1): "f7e7628f162a898c2a6c997e6be86e080d15e02cf18094c3a40897cc103ac63c",
    ("uo", 2, 6, 2): "e727c8cf135b56052a1c00fb6b0d8916e3dc1bde964642751896d043362a0abd",
    ("uo", 2, 6, 3): "58f117eff658ad88d4725575d274421c95c8870a066528c82cba5af5f9436982",
    ("default", 1): "cd23a4a928e286f04b11d2624574b84c181c30874ec08137860e22818cfa0fc5",
    ("default", 2): "9e7be51e94299c20c5057f927e0e92aeb8a2951a2f324cc5c68e79114737f20d",
    ("default", 3): "d962d008179279396f0e7e308685056b0341cbb12a1fb039709895f61e506dc3",
    ("vnm", 19): "b42f010f4bc8e1287d8cd033259ba5e36194c866997d23239392f290a06c8664",
    ("vnm", 52): "1f6ba41d6ece5ef7cfac795de41fcd491b598cdc3ceb5548586a0ab7ec9b1997",
    ("vnm", 109): "a9a504042af96bbac58f8b852ee27366582298404af6d8d41bb108e5c0876063",
}


def _params(case) -> tuple[GenParams, dict]:
    kind, *rest = case
    if kind == "uo":
        players, depth, seed = rest
        params = GenParams(
            players=players, max_depth=depth, max_branching=2, simultaneity=0.0,
            merge_prob=0.8, continue_prob=1.0, seed=seed,
        )
        return params, {"require_uo": True}
    return GenParams(seed=rest[0]), {"require_vnm": kind == "vnm"}


@pytest.mark.parametrize("case", PINNED)
def test_draws_are_pinned(case):
    params, flags = _params(case)
    text = serialize(gen_random(params, **flags))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[case]


def test_every_draft_validates_admitted_or_not():
    mixes = [
        GenParams(players=2, max_depth=4, max_branching=2, simultaneity=0.0,
                  merge_prob=0.8, continue_prob=1.0),
        GenParams(players=3, max_depth=3, max_branching=3, simultaneity=0.5,
                  merge_prob=0.9, continue_prob=0.6),
        GenParams(players=2, max_depth=4, max_branching=2, simultaneity=0.3,
                  merge_prob=0.6, continue_prob=0.5),
        GenParams(players=4, max_depth=3, max_branching=2, simultaneity=0.8,
                  merge_prob=0.95, continue_prob=0.8),
    ]
    drafts, not_uo, not_vnm = 0, 0, 0
    for k, mix in enumerate(mixes):
        for seed in range(25):
            for attempt in range(3):
                params = dataclasses.replace(mix, seed=100 * k + seed)
                draft = _generate_once(params, random.Random(f"{params.seed}:{attempt}"))
                if draft is None:
                    continue
                drafts += 1
                assert validate_structure(draft).ok, (params, attempt)
                not_uo += not check_uo(draft)[0]
                not_vnm += not check_vnm(draft)[0]
    # most pairs give a draft, and the flags would reject some of them
    assert drafts > 200 and not_uo > 10 and not_vnm > 10


def test_gen_random_refuses_an_invalid_structure_it_would_return(monkeypatch):
    invalid = g_absent_minded()
    assert not validate_structure(invalid).ok
    monkeypatch.setattr(egs.generate, "_generate_once", lambda params, rng: invalid)
    with pytest.raises(GenError, match="invalid structure: perfect-recall"):
        gen_random(GenParams(seed=1))
    # a draft the flags reject is discarded unvalidated: it fails UO, so
    # every attempt is discarded until the budget runs out
    assert not check_uo(invalid)[0]
    with pytest.raises(GenError, match="no admissible structure"):
        gen_random(GenParams(seed=1), require_uo=True)
