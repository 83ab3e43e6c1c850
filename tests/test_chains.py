"""Chains of positive pairs, the basis decision, and chain-based normal forms."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter, deque
from itertools import product

import pytest

from ranktwo.chains import (
    BasisVerdict,
    EvenLengthError,
    NotABasisError,
    NotCyclicallyReducedError,
    NotStandardPairError,
    _conjugated_down,
    conjugate_bases,
    in_same_chain,
    is_basis,
    is_basis_positive,
    maximal_chain,
    nielsen_dehn_oracle,
    palindromize,
    standard_pair_decompose,
    step_backward,
    step_forward,
    sturmian_position,
)
from ranktwo.christoffel import christoffel_basis, christoffel_normal_form, christoffel_word
from ranktwo.morphisms import (
    GENERATOR_NAMES,
    eval_sturmian,
    format_sturmian,
    generator,
    generator_inverse,
)
from ranktwo.words import FreeWord


def _w(s: str) -> FreeWord:
    return FreeWord(s)


def _pair(su: str, sv: str) -> tuple[FreeWord, FreeWord]:
    return _w(su), _w(sv)


def _positive_words(length: int) -> list[str]:
    return ["".join(p) for p in product("ab", repeat=length)]


def _reference_walk(su: str, sv: str) -> tuple[list[tuple[str, str]], int] | None:
    """All chain members through (su, sv), or None when the chain is infinite.

    The chain walked one rotation at a time, kept as an oracle for the
    chain functions.  Returns the member list from the left end and the
    index of the starting pair in it.  Commuting words short-circuit to
    infinite; the walk is also capped, since no finite chain outruns
    |u| + |v| - 2.
    """
    if su + sv == sv + su:
        return None
    limit = len(su) + len(sv) - 2
    back = 0
    cu, cv = su, sv
    while cu[-1] == cv[-1]:
        cu = cu[-1] + cu[:-1]
        cv = cv[-1] + cv[:-1]
        back += 1
        if back > limit:
            return None
    members = [(cu, cv)]
    while cu[0] == cv[0]:
        cu = cu[1:] + cu[0]
        cv = cv[1:] + cv[0]
        members.append((cu, cv))
        if len(members) - 1 > limit:
            return None
    return members, back


_CONJUGATION_LETTERS = tuple(FreeWord(ch) for ch in "abAB")


def _reference_conjugation(u: FreeWord, v: FreeWord) -> tuple[list[str], bool]:
    """The conjugation step of the basis decision as a search over letters.

    Tries a, b, A, B in turn and conjugates by the first that shortens
    the pair, until both words are cyclically reduced; kept as an oracle
    for the forced conjugation in is_basis.  Returns the letters used and
    whether the search got stuck.
    """
    letters = []
    while not (u.is_cyclically_reduced and v.is_cyclically_reduced):
        for d in _CONJUGATION_LETTERS:
            nu, nv = u.conjugated_by(d), v.conjugated_by(d)
            if len(nu) + len(nv) < len(u) + len(v):
                letters.append(d.letters)
                u, v = nu, nv
                break
        else:
            return letters, True
    return letters, False


def _reference_conjugated_down(su: str, sv: str) -> tuple[tuple[FreeWord, FreeWord] | None, list]:
    """The forced conjugation of the basis decision one letter at a time.

    The words are held in deques, so conjugating by d is one push or
    pop at each end of each word; kept as an oracle for the closed form
    in is_basis.  Returns the reduced pair, or None once the forced
    letter does not shorten the pair, and the ("conjugate", d) steps.
    """
    u, v = deque(su), deque(sv)
    trace = []
    while True:
        if len(u) > 1 and u[0] == u[-1].swapcase():
            d = u[-1]
        elif len(v) > 1 and v[0] == v[-1].swapcase():
            d = v[-1]
        else:
            return (_w("".join(u)), _w("".join(v))), trace
        d_inv = d.swapcase()
        before = len(u) + len(v)
        for w in (u, v):
            if w and w[0] == d_inv:
                w.popleft()
            else:
                w.appendleft(d)
            # the front pop can empty a one-letter word
            if w and w[-1] == d:
                w.pop()
            else:
                w.append(d_inv)
        if len(u) + len(v) >= before:
            return None, trace
        trace.append(("conjugate", d))


def _random_reduced(rng: random.Random, n: int) -> FreeWord:
    s = ""
    while len(s) < n:
        ch = rng.choice("abAB")
        if not s or s[-1] != ch.swapcase():
            s += ch
    return _w(s)


_AUT_GENERATORS = [generator(n) for n in GENERATOR_NAMES] + [
    generator_inverse(n) for n in GENERATOR_NAMES
]


def _automorphic_image(rng: random.Random) -> tuple[FreeWord, FreeWord]:
    """The image of (a, b) under a random word of 0-12 automorphism generators."""
    u, v = _w("a"), _w("b")
    for _ in range(rng.randint(0, 12)):
        phi = rng.choice(_AUT_GENERATORS)
        u, v = phi(u), phi(v)
    return u, v


def _rotated(s: str, k: int) -> str:
    k %= len(s)
    return s[k:] + s[:k]


def test_steps():
    assert step_forward(*_pair("abaab", "aba")) == _pair("baaba", "baa")
    assert step_forward(*_pair("ba", "ab")) is None
    assert step_forward(*_pair("ab", "a")) == _pair("ba", "a")
    assert step_backward(*_pair("aab", "ab")) == _pair("baa", "ba")
    assert step_backward(*_pair("abaab", "aba")) is None


def test_steps_are_mutually_inverse():
    rng = random.Random(21)
    for _ in range(200):
        u = _w("".join(rng.choice("ab") for _ in range(rng.randint(1, 8))))
        v = _w("".join(rng.choice("ab") for _ in range(rng.randint(1, 8))))
        fwd = step_forward(u, v)
        if fwd is not None:
            assert step_backward(*fwd) == (u, v)
        bwd = step_backward(u, v)
        if bwd is not None:
            assert step_forward(*bwd) == (u, v)


def test_step_validation():
    with pytest.raises(ValueError):
        step_forward(_w("aB"), _w("b"))
    with pytest.raises(ValueError):
        step_forward(_w(""), _w("b"))
    with pytest.raises(ValueError):
        step_backward(_w("a"), _w("1"))


def test_worked_chain():
    chain = maximal_chain(*_pair("abaab", "aba"))
    assert not chain.is_infinite
    assert chain.length == 6
    assert chain.pairs == (
        _pair("abaab", "aba"),
        _pair("baaba", "baa"),
        _pair("aabab", "aab"),
        _pair("ababa", "aba"),
        _pair("babaa", "baa"),
        _pair("abaab", "aab"),
        _pair("baaba", "aba"),
    )
    # the walk starts from the left end regardless of the entry point
    assert maximal_chain(*_pair("ababa", "aba")).pairs == chain.pairs


def test_chain_ends_are_extremal():
    chain = maximal_chain(*_pair("abaab", "aba")).pairs
    assert step_backward(*chain[0]) is None
    assert step_forward(*chain[-1]) is None
    for prev, cur in zip(chain, chain[1:]):
        assert step_forward(*prev) == cur


def test_infinite_chains():
    assert maximal_chain(*_pair("aa", "aaa")).is_infinite
    assert maximal_chain(*_pair("ab", "abab")).is_infinite
    assert maximal_chain(*_pair("ab", "ab")).is_infinite
    with pytest.raises(ValueError):
        maximal_chain(*_pair("aa", "aaa")).length


def test_single_member_chain():
    chain = maximal_chain(*_pair("b", "a"))
    assert chain.length == 0
    assert chain.pairs == (_pair("b", "a"),)


def test_chain_records_keep_their_contract():
    chain = maximal_chain(*_pair("ab", "a"))
    assert repr(chain) == (
        "MaximalChain(pairs=((FreeWord('ab'), FreeWord('a')), (FreeWord('ba'), FreeWord('a'))))"
    )
    assert repr(maximal_chain(*_pair("aa", "a"))) == "MaximalChain(pairs=None)"
    verdict = is_basis(_w("ab"), _w("a"))
    assert repr(verdict) == (
        "BasisVerdict(is_basis=True, reason='', trace="
        "(('quadrant-map', 'id'), ('positive-pair', 'ab', 'a'), ('chain-length', 1)))"
    )
    for record, fields in ((chain, (chain.pairs,)), (verdict, (True, "", verdict.trace))):
        again = type(record)(*fields)
        assert again == record and hash(again) == hash(record)
        for name in ("pairs",) if record is chain else ("is_basis", "reason", "trace"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert maximal_chain(*_pair("ab", "a")) == chain
    assert maximal_chain(*_pair("aa", "a")) == maximal_chain(*_pair("a", "aa"))
    assert maximal_chain(*_pair("b", "a")) != chain
    assert is_basis(_w("ab"), _w("b")) != verdict
    # a chain is not a sequence: its arrows are .length, not len()
    with pytest.raises(TypeError):
        len(chain)


def test_is_basis_positive():
    assert is_basis_positive(*_pair("a", "b"))
    assert is_basis_positive(*_pair("abaab", "aba"))
    assert is_basis_positive(*_pair("aab", "ab"))
    assert not is_basis_positive(*_pair("aa", "b"))
    assert not is_basis_positive(*_pair("ab", "ba"))
    assert not is_basis_positive(*_pair("aa", "aaa"))


def test_nielsen_dehn_oracle():
    assert nielsen_dehn_oracle(*_pair("a", "b"))
    assert nielsen_dehn_oracle(_w("b"), _w("a"))
    assert nielsen_dehn_oracle(_w("Ba"), _w("b"))
    assert nielsen_dehn_oracle(_w("abaab"), _w("aba"))
    assert not nielsen_dehn_oracle(_w("ab"), _w("ba"))
    assert not nielsen_dehn_oracle(_w("a"), _w("a"))
    assert not nielsen_dehn_oracle(_w("aab"), _w("aba"))


def test_chain_functions_match_reference_walk_exhaustively():
    for total in range(2, 12):
        for i in range(1, total):
            for su in _positive_words(i):
                for sv in _positive_words(total - i):
                    u, v = _w(su), _w(sv)
                    walked = _reference_walk(su, sv)
                    chain = maximal_chain(u, v)
                    length = [s[1] for s in is_basis(u, v).trace if s[0] == "chain-length"]
                    if walked is None:
                        assert chain.is_infinite and length == ["infinite"], (su, sv)
                        assert in_same_chain(*_pair(_rotated(su, 1), _rotated(sv, 1)), u, v)
                        continue
                    members, back = walked
                    assert [(a.letters, b.letters) for a, b in chain.pairs] == members, (su, sv)
                    assert length == [len(members) - 1], (su, sv)
                    if len(members) - 1 == total - 2:
                        assert sturmian_position(u, v)[1] == back, (su, sv)
                    for a, b in chain.pairs:
                        assert in_same_chain(a, b, u, v), (su, sv, a, b)
                    # the first rotation past the right end that is no member;
                    # simultaneous rotations repeat after |u| * |v| steps
                    start = len(members) - back
                    outside = next(
                        (
                            (_rotated(su, k), _rotated(sv, k))
                            for k in range(start, start + i * (total - i))
                            if (_rotated(su, k), _rotated(sv, k)) not in members
                        ),
                        None,
                    )
                    if outside is not None:
                        assert not in_same_chain(*_pair(*outside), u, v), (su, sv, outside)


def test_is_basis_positive_matches_oracle_exhaustively():
    for total in range(2, 11):
        for i in range(1, total):
            for su in _positive_words(i):
                for sv in _positive_words(total - i):
                    u, v = _w(su), _w(sv)
                    assert is_basis_positive(u, v) == nielsen_dehn_oracle(u, v), (
                        su,
                        sv,
                    )


def test_is_basis_trace_quadrant():
    verdict = is_basis(_w("Ba"), _w("b"))
    assert verdict.is_basis
    assert verdict.trace == (
        ("invert-second",),
        ("quadrant-map", "T"),
        ("positive-pair", "ba", "b"),
        ("chain-length", 1),
    )


def test_is_basis_trace_conjugation_and_replay():
    u, v = _w("baabaabAB"), _w("baa")
    verdict = is_basis(u, v)
    assert verdict.is_basis
    assert verdict.reason == ""
    assert verdict.trace == (
        ("conjugate", "B"),
        ("conjugate", "A"),
        ("quadrant-map", "id"),
        ("positive-pair", "abaab", "aba"),
        ("chain-length", 6),
    )
    # replay the conjugations in reverse to recover the input
    letters = [step[1] for step in verdict.trace if step[0] == "conjugate"]
    w = _w("".join(reversed(letters)))
    final = next(step for step in verdict.trace if step[0] == "positive-pair")
    fu, fv = _w(final[1]), _w(final[2])
    assert u == fu.conjugated_by(w.inverse())
    assert v == fv.conjugated_by(w.inverse())


def test_is_basis_failure_reasons():
    stuck = is_basis(_w("abA"), _w("bAB"))
    assert not stuck.is_basis
    assert stuck.reason == "no conjugation shortens the pair"

    zero = is_basis(_w("abAB"), _w("b"))
    assert not zero.is_basis
    assert zero.reason == "a word abelianizes to zero"

    split = is_basis(_w("ab"), _w("aB"))
    assert not split.is_basis
    assert split.reason == "images share no closed quadrant, even after inverting the second"

    mixed = is_basis(_w("abAb"), _w("a"))
    assert not mixed.is_basis
    assert mixed.reason == "pair is not positive after normalization"

    short = is_basis(_w("ab"), _w("ba"))
    assert not short.is_basis
    assert short.reason == "chain length differs from |u| + |v| - 2"


def test_is_basis_handles_commuting_pairs():
    verdict = is_basis(_w("aa"), _w("aaa"))
    assert not verdict.is_basis
    assert ("chain-length", "infinite") in verdict.trace


def test_is_basis_matches_oracle_on_general_words():
    by_len = {0: [_w("")]}
    for n in range(1, 4):
        by_len[n] = [
            w * _w(ch)
            for w in by_len[n - 1]
            for ch in "abAB"
            if len(w * _w(ch)) == n
        ]
    words = [w for n in range(1, 4) for w in by_len[n]]
    for u in words:
        for v in words:
            assert is_basis(u, v).is_basis == nielsen_dehn_oracle(u, v), (
                str(u),
                str(v),
            )
    rng = random.Random(7341)
    for _ in range(300):
        u = _w("".join(rng.choice("abAB") for _ in range(rng.randint(1, 7))))
        v = _w("".join(rng.choice("abAB") for _ in range(rng.randint(1, 7))))
        if not u or not v:
            continue
        assert is_basis(u, v).is_basis == nielsen_dehn_oracle(u, v)


def test_decision_oracle_and_normal_form_agree_on_large_inputs():
    rng = random.Random(5120)
    counts = Counter()
    for _ in range(600):
        u, v = _automorphic_image(rng)
        if rng.random() < 0.2:
            v = v * v
        if rng.random() < 0.1:
            u = u * _w(rng.choice("abAB"))
        c = _random_reduced(rng, rng.randint(0, 300))
        u, v = u.conjugated_by(c), v.conjugated_by(c)
        basis = nielsen_dehn_oracle(u, v)
        assert is_basis(u, v).is_basis == basis, (str(u), str(v))
        counts[basis] += 1
        if basis:
            assert christoffel_normal_form(u, v) == christoffel_basis(
                u.abelianization(), v.abelianization()
            )
        else:
            with pytest.raises(NotABasisError):
                christoffel_normal_form(u, v)
    assert counts[True] >= 100 and counts[False] >= 100, counts


def test_conjugate_bases_round_trip_through_every_quadrant_map():
    # each (invert-second, quadrant map) combination the decision can take
    # must be undone by the normal forms
    rng = random.Random(8128)
    seen = Counter()
    for _ in range(1500):
        u, v = _automorphic_image(rng)
        if not (u.is_cyclically_reduced and v.is_cyclically_reduced):
            continue
        trace = is_basis(u, v).trace
        quadrant = next(step[1] for step in trace if step[0] == "quadrant-map")
        seen[("invert-second",) in trace, quadrant] += 1
        pairs = conjugate_bases(u, v)
        assert len(set(pairs)) == len(pairs) == len(u) + len(v) - 1
        assert (u, v) in pairs
        for pu, pv in pairs:
            assert pu.is_cyclically_reduced and pv.is_cyclically_reduced
            assert (pu.abelianization(), pv.abelianization()) == (
                u.abelianization(),
                v.abelianization(),
            )
            assert pu.is_conjugate_to(u) and pv.is_conjugate_to(v)
            assert nielsen_dehn_oracle(pu, pv)
        if len(u) % 2 and len(v) % 2:
            pu, pv = palindromize(u, v)
            assert pu.is_palindrome and pv.is_palindrome
            assert (pu, pv) in pairs
    assert len(seen) == 8 and min(seen.values()) >= 20, seen


def test_conjugate_bases():
    pairs = conjugate_bases(*_pair("aab", "ab"))
    assert pairs == (
        _pair("aba", "ab"),
        _pair("baa", "ba"),
        _pair("aab", "ab"),
        _pair("aba", "ba"),
    )
    for pu, pv in pairs:
        assert nielsen_dehn_oracle(pu, pv)
        assert in_same_chain(pu, pv, _w("aab"), _w("ab"))


def test_conjugate_bases_negative_quadrant():
    # the enumeration transports along the quadrant map and back
    pairs = conjugate_bases(_w("BAA"), _w("BA"))
    assert len(pairs) == 4
    assert (_w("BAA"), _w("BA")) in pairs
    for pu, pv in pairs:
        assert nielsen_dehn_oracle(pu, pv)
        assert pu.abelianization() == (-2, -1)


def test_conjugate_bases_validation():
    with pytest.raises(NotCyclicallyReducedError):
        conjugate_bases(_w("abA"), _w("b"))
    with pytest.raises(NotABasisError):
        conjugate_bases(_w("ab"), _w("ba"))
    with pytest.raises(NotABasisError):
        conjugate_bases(_w("abAB"), _w("b"))


def test_palindromize():
    assert palindromize(*_pair("abaab", "aba")) == _pair("ababa", "aba")
    pu, pv = palindromize(_w("aaaBaaB"), _w("aaB"))
    assert (str(pu), str(pv)) == ("aBaaaBa", "aBa")
    assert pu.is_palindrome and pv.is_palindrome
    assert christoffel_normal_form(pu, pv) == christoffel_normal_form(
        _w("aaaBaaB"), _w("aaB")
    )


def test_palindromize_validation():
    with pytest.raises(EvenLengthError):
        palindromize(*_pair("ab", "b"))
    with pytest.raises(NotABasisError):
        palindromize(*_pair("aab", "aba"))


def test_palindromize_all_short_bases():
    for total in range(2, 13):
        for i in range(1, total):
            if i % 2 == 0 or (total - i) % 2 == 0:
                continue
            for su in _positive_words(i):
                for sv in _positive_words(total - i):
                    u, v = _w(su), _w(sv)
                    if not is_basis_positive(u, v):
                        continue
                    pu, pv = palindromize(u, v)
                    assert pu.is_palindrome and pv.is_palindrome, (su, sv)


def test_conjugation_matches_reference_search():
    words = [""]
    for n in range(1, 5):
        words += [w + ch for w in words if len(w) == n - 1 for ch in "abAB"
                  if not w or w[-1] != ch.swapcase()]
    pairs = [_pair(x, y) for x in words for y in words]
    assert len(pairs) == 25_921
    rng = random.Random(2718)
    for _ in range(3000):
        x = _random_reduced(rng, rng.randint(0, 40))
        y = _random_reduced(rng, rng.randint(0, 3))
        u0 = _random_reduced(rng, rng.randint(1, 8))
        v0 = _random_reduced(rng, rng.randint(1, 8))
        pairs.append((u0.conjugated_by(x), v0.conjugated_by(x * y)))
    # deep inputs: short pairs, half of them bases, with one word or both
    # conjugated by 500-5,000 letters
    rng = random.Random(1618)
    for i in range(60):
        if i % 2:
            u0, v0 = _automorphic_image(rng)
        else:
            u0, v0 = _random_reduced(rng, rng.randint(1, 8)), _random_reduced(rng, rng.randint(1, 8))
        x = _random_reduced(rng, rng.randint(500, 5000))
        which = i % 3
        u = u0.conjugated_by(x) if which != 1 else u0
        v = v0.conjugated_by(x * _random_reduced(rng, rng.randint(0, 3))) if which else v0
        pairs.append((u, v))
    stuck_late = deep_bases = deep_stuck = deepest = 0
    for u, v in pairs:
        trace = []
        assert (_conjugated_down(u, v, trace), trace) == _reference_conjugated_down(
            u.letters, v.letters
        ), (str(u), str(v))
        letters, stuck = _reference_conjugation(u, v)
        verdict = is_basis(u, v)
        steps = [step[1] for step in verdict.trace if step[0] == "conjugate"]
        assert steps == letters, (str(u), str(v))
        assert (verdict.reason == "no conjugation shortens the pair") == stuck
        if letters and not stuck:
            # the rest of the decision is that of the conjugated-down pair
            x = FreeWord("".join(reversed(letters)))
            rest = is_basis(u.conjugated_by(x), v.conjugated_by(x))
            assert (verdict.is_basis, verdict.reason) == (rest.is_basis, rest.reason)
            assert verdict.trace[len(letters):] == rest.trace
            assert verdict.is_basis == nielsen_dehn_oracle(u, v)
        stuck_late += stuck and len(letters) >= 1
        deep_bases += verdict.is_basis and len(letters) >= 10
        deep_stuck += stuck and len(letters) >= 500
        deepest = max(deepest, len(letters) if verdict.is_basis else 0)
    # the sample reaches both ends of the loop after real work
    assert stuck_late >= 100 and deep_bases >= 10, (stuck_late, deep_bases)
    assert deep_stuck >= 5 and deepest >= 4000, (deep_stuck, deepest)


def test_deep_conjugation_runs_in_linear_time():
    # a loop that rebuilds both words at every step is about 15 times slower
    u0, v0 = christoffel_word(233, 144), christoffel_word(377, 233)
    x = _random_reduced(random.Random(64), 64_000)
    u, v = u0.conjugated_by(x), v0.conjugated_by(x)
    start = time.perf_counter()
    verdict = is_basis(u, v)
    elapsed = time.perf_counter() - start
    assert verdict.is_basis and verdict.reason == ""
    assert len(verdict.trace) == 64_003
    assert verdict.trace[-2] == ("positive-pair", u0.letters, v0.letters)
    assert elapsed < 0.5, elapsed


def test_in_same_chain():
    assert in_same_chain(_w("ababa"), _w("aba"), _w("abaab"), _w("aba"))
    assert in_same_chain(_w("baaba"), _w("aba"), _w("abaab"), _w("aba"))
    assert not in_same_chain(_w("a"), _w("b"), _w("b"), _w("a"))
    assert not in_same_chain(_w("aab"), _w("ab"), _w("abaab"), _w("aba"))
    # infinite chains cycle; membership is still decidable
    assert in_same_chain(_w("ba"), _w("baba"), _w("ab"), _w("abab"))
    assert not in_same_chain(_w("ab"), _w("baba"), _w("ab"), _w("abab"))
    # periodic words: only the offsets of one residue class are tried
    su, sv = _w("a" * 100000), _w("a" * 100000 + "b")
    tv = _w("b" + "a" * 100000)
    start = time.perf_counter()
    assert in_same_chain(su, tv, su, sv)
    assert in_same_chain(su, sv, su, sv)
    assert time.perf_counter() - start < 0.25
    with pytest.raises(NotCyclicallyReducedError):
        in_same_chain(_w("abA"), _w("b"), _w("ab"), _w("b"))
    with pytest.raises(ValueError):
        in_same_chain(_w("a"), _w("b"), _w("aB"), _w("b"))


def test_decompose_base_cases():
    assert standard_pair_decompose(*_pair("a", "b")) == ()
    assert standard_pair_decompose(*_pair("a", "ab")) == (("G", 1),)
    assert standard_pair_decompose(*_pair("ba", "b")) == (("D", 1),)
    assert standard_pair_decompose(*_pair("b", "a")) == (("E", 1),)


def test_decompose_worked_example():
    tokens = standard_pair_decompose(*_pair("abaab", "aba"))
    assert tokens == (("G", 1), ("D", 1), ("G", 1), ("E", 1))
    phi = eval_sturmian(tokens)
    assert str(phi(_w("a"))) == "abaab"
    assert str(phi(_w("b"))) == "aba"


def test_decompose_round_trips():
    # compositions within one tree family, optionally pre-swapped by E,
    # are exactly what the peeling recovers
    rng = random.Random(99)
    for _ in range(200):
        family = rng.choice((("G", "D"), ("Gt", "Dt")))
        tokens = [(rng.choice(family), 1) for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.5:
            tokens.append(("E", 1))
        phi = eval_sturmian(tuple(tokens))
        u, v = phi(_w("a")), phi(_w("b"))
        got = standard_pair_decompose(u, v)
        psi = eval_sturmian(got)
        assert psi(_w("a")) == u and psi(_w("b")) == v


def test_decompose_peels_long_quotients():
    # slope 1/k, then two copies of the short word peeled at once
    k = 5000
    tokens = (("G", 1),) * k + (("D", 1),) * 2
    u, v = _w(("a" * k + "b") * 2 + "a"), _w("a" * k + "b")
    assert standard_pair_decompose(u, v) == tokens
    phi = eval_sturmian(tokens)
    assert phi(_w("a")) == u and phi(_w("b")) == v


def test_decompose_mixed_families_reject():
    # a pair built across the two families peels in neither orientation
    phi = eval_sturmian((("G", 1), ("Dt", 1)))
    u, v = phi(_w("a")), phi(_w("b"))
    assert (str(u), str(v)) == ("aab", "ab")
    with pytest.raises(NotStandardPairError):
        standard_pair_decompose(u, v)


def test_decompose_rejects():
    with pytest.raises(NotStandardPairError):
        standard_pair_decompose(*_pair("aab", "aba"))
    with pytest.raises(NotStandardPairError):
        standard_pair_decompose(*_pair("ab", "ba"))
    with pytest.raises(ValueError):
        standard_pair_decompose(_w("Ba"), _w("b"))


def test_error_messages_are_bounded():
    u, v = _w("a" * 20000 + "b"), _w("a" * 20001 + "b")
    with pytest.raises(NotStandardPairError) as info:
        standard_pair_decompose(u, v)
    assert len(str(info.value)) < 300
    assert "(20001 letters)" in str(info.value)
    with pytest.raises(NotStandardPairError, match=r"^\(aab, aba\) does not peel"):
        standard_pair_decompose(*_pair("aab", "aba"))


def test_sturmian_position():
    tokens, offset, conj = sturmian_position(*_pair("abaab", "aba"))
    assert tokens == (("G", 1), ("D", 1), ("G", 1), ("E", 1))
    assert offset == 0
    assert conj == _w("")

    tokens, offset, conj = sturmian_position(*_pair("ababa", "aba"))
    assert tokens == (("G", 1), ("D", 1), ("G", 1), ("E", 1))
    assert offset == 3
    assert conj == _w("aba")
    u0, v0 = eval_sturmian(tokens)(_w("a")), eval_sturmian(tokens)(_w("b"))
    assert u0.conjugated_by(conj.inverse()) == _w("ababa")
    assert v0.conjugated_by(conj.inverse()) == _w("aba")


def test_sturmian_position_validation():
    with pytest.raises(NotABasisError):
        sturmian_position(*_pair("aa", "ab"))
    with pytest.raises(ValueError):
        sturmian_position(_w("aB"), _w("b"))


def test_sturmian_position_prefix_invariant():
    # every chain member is the left end conjugated by a prefix of u0^inf
    for total in range(2, 13):
        for i in range(1, total):
            for su in _positive_words(i):
                for sv in _positive_words(total - i):
                    u, v = _w(su), _w(sv)
                    if not is_basis_positive(u, v):
                        continue
                    tokens, offset, conj = sturmian_position(u, v)
                    phi = eval_sturmian(tokens)
                    u0, v0 = phi(_w("a")), phi(_w("b"))
                    assert u0.conjugated_by(conj.inverse()) == u, (su, sv)
                    assert v0.conjugated_by(conj.inverse()) == v, (su, sv)
                    assert conj.letters == (u0.letters * (offset // len(u0) + 1))[:offset]


def test_only_rank_two_pairs():
    # neither pair is a basis of F3, so a rank-2 verdict would be wrong
    ac, a, b = FreeWord("ac", rank=3), FreeWord("a", rank=3), FreeWord("b", rank=3)
    with pytest.raises(ValueError, match="rank 2"):
        is_basis(ac, a)
    with pytest.raises(ValueError, match="rank 2"):
        nielsen_dehn_oracle(a, b)
    for check in (maximal_chain, is_basis_positive, step_forward, standard_pair_decompose):
        with pytest.raises(ValueError, match="rank 2"):
            check(ac, a)
    with pytest.raises(ValueError, match="rank 2"):
        in_same_chain(FreeWord("ab", rank=3), a, _w("ab"), _w("a"))


def test_long_basis_runs_in_linear_memory():
    # a walk that keeps its chain needs about (|u| + |v|)^2 bytes here, 120 MB
    u, v = christoffel_basis((4181, 2584), (2584, 1597))
    assert (len(u), len(v)) == (6765, 4181)
    results = {}
    for check in (is_basis, is_basis_positive, sturmian_position, palindromize):
        tracemalloc.start()
        try:
            results[check] = check(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (check.__name__, peak)
    assert results[is_basis] == BasisVerdict(True, "", (
        ("quadrant-map", "id"),
        ("positive-pair", u.letters, v.letters),
        ("chain-length", 10944),
    ))
    assert results[is_basis_positive]
    tokens, offset, conjugator = results[sturmian_position]
    assert format_sturmian(tokens) == " ".join(["G D"] * 9)
    assert offset == 6764
    assert conjugator.letters == u.letters[1:]
    phi = eval_sturmian(tokens)
    assert phi(_w("a")).conjugated_by(conjugator.inverse()) == u
    assert phi(_w("b")).conjugated_by(conjugator.inverse()) == v
    pu, pv = results[palindromize]
    assert pu.is_palindrome and pv.is_palindrome
    assert (pu.abelianization(), pv.abelianization()) == ((4181, 2584), (2584, 1597))
    assert pu.letters.startswith("ababaabaababaabaababaababaabaababaababaa")
    assert in_same_chain(pu, pv, u, v)
