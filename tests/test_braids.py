"""Braid words, the rank-4 letter action, lifts, and the relation suites."""

from __future__ import annotations

import enum
import math
import operator
import random
import time
from functools import reduce
from itertools import product
from typing import NamedTuple

import pytest

from ranktwo.braids import (
    _ARTIN,
    _EXPANSIONS,
    _F2_ACTION,
    _DUAL,
    _RELATIONS,
    IMAGE_LETTER_LIMIT,
    KMAX_LIMIT,
    NORMAL_FORM_LETTER_LIMIT,
    SUITE_NAMES,
    BraidWord,
    ExtBraid,
    _aut_domain,
    _braid_domain,
    _normal_form,
    acts_by_inner,
    artin_action,
    braid_equal,
    delta,
    embed_sturmian,
    eq_mod_center,
    f2_action,
    f2_action_ext,
    from_aut_generator,
    gl2_image,
    omega,
    relation_suite,
    to_b3,
)
from ranktwo.christoffel import satisfies_path_conditions
from ranktwo.morphisms import (
    _FOLD_MEAN_LETTERS,
    F2Morphism,
    Mat2,
    eval_sturmian,
    generator,
    generator_inverse,
    parse_sturmian,
)
from ranktwo.words import FreeWord

# Defining relators of the 4-strand group, used to scramble words without
# changing the element they represent.
_RELATORS_4 = (
    (1, 2, 1, -2, -1, -2),
    (2, 3, 2, -3, -2, -3),
    (1, 3, -1, -3),
)


def _scramble(rng: random.Random, letters: tuple[int, ...], rounds: int) -> BraidWord:
    letters = list(letters)
    for _ in range(rounds):
        rel = list(rng.choice(_RELATORS_4))
        if rng.random() < 0.5:
            rel = [-l for l in reversed(rel)]
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = rel
        if rng.random() < 0.5:
            g = rng.choice((1, 2, 3, -1, -2, -3))
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = (g, -g)
    return BraidWord(4, tuple(letters))


def test_validation():
    with pytest.raises(ValueError):
        BraidWord(5)
    # 4.0 hashes and compares equal to 4, and a list cannot be hashed at all
    for strands in (4.0, [4], 3.0, True):
        with pytest.raises(ValueError, match=r"^strands must be 3 or 4$"):
            BraidWord(strands, (1, 4))
    with pytest.raises(ValueError):
        BraidWord(4, (0,))
    with pytest.raises(ValueError):
        BraidWord(4, (5,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    # True == 1, but it would print as "True", which parse cannot read back
    with pytest.raises(ValueError, match="nonzero integers"):
        BraidWord(4, (True, 2))
    message = "braid letters on %d strands are nonzero integers with absolute value at most %d"
    refused = ((4, 4, (1.0,)), (4, 4, (2, 0)), (4, 4, (5, 1)), (4, 4, (-5,)), (3, 2, (1, 3)))
    # a float, a bool or an unhashable letter among plain ints, past the plain-int type test
    refused += ((4, 4, (1, 2, 1.0)), (4, 4, (1, True)), (4, 4, ([1],)), (3, 2, (1, [1], -2)))
    for strands, top, letters in refused:
        with pytest.raises(ValueError, match=message % (strands, top)):
            BraidWord(strands, letters)
    BraidWord(3, (1, 2, -1))
    BraidWord(4, (4, -4))
    # an int subclass is an integer letter
    Letter = enum.IntEnum("Letter", {"ONE": 1, "FOUR": 4})
    assert BraidWord(4, (Letter.ONE, -2, Letter.FOUR)).letters == (1, -2, 4)


def test_parse_and_str():
    w = BraidWord.parse("1 -2 3")
    assert w.letters == (1, -2, 3)
    assert str(w) == "1 -2 3"
    assert str(BraidWord(4)) == ""
    assert BraidWord.parse("") == BraidWord(4)
    assert BraidWord.parse("1 2", strands=3).strands == 3
    with pytest.raises(ValueError):
        BraidWord.parse("1 x")


def test_group_operations():
    w = BraidWord.parse("1 -2")
    assert (w * BraidWord.parse("3")).letters == (1, -2, 3)
    assert w.inverse().letters == (2, -1)
    assert (w ** 2).letters == (1, -2, 1, -2)
    assert (w ** -1) == w.inverse()
    assert w ** 0 == BraidWord(4)
    with pytest.raises(ValueError):
        w * BraidWord.parse("1", strands=3)


def test_expand_fourth_generator():
    assert BraidWord(4, (4,)).expand().letters == (-3, -2, 1, 2, 3)
    assert BraidWord(4, (-4,)).expand().letters == (-3, -2, -1, 2, 3)
    assert BraidWord(4, (1, 4)).expand().letters == (1, -3, -2, 1, 2, 3)
    assert BraidWord(3, (1, 2)).expand().letters == (1, 2)


def test_fourth_generator_is_delta_conjugate():
    d = delta(4)
    assert braid_equal(BraidWord(4, (4,)), d * BraidWord(4, (3,)) * d.inverse())
    assert braid_equal(BraidWord(4, (4,)) ** -1, d * BraidWord(4, (-3,)) * d.inverse())


def test_delta():
    assert delta(4).letters == (1, 2, 3)
    assert delta(3).letters == (1, 2)


def test_exponent_sum():
    assert BraidWord.parse("1 -2 3").exponent_sum() == 1
    assert BraidWord(4, (4,)).exponent_sum() == 1
    assert BraidWord(4, (-4, -4)).exponent_sum() == -2
    assert delta(4).exponent_sum() == 3


def test_artin_action_on_generators():
    phi = artin_action(BraidWord(4, (1,)))
    a, b, c, d = (FreeWord.generator(4, i) for i in (1, 2, 3, 4))
    assert phi(a) == a * b * a.inverse()
    assert phi(b) == a
    assert phi(c) == c
    assert phi(d) == d
    psi = artin_action(BraidWord(4, (-1,)))
    assert psi(a) == b
    assert psi(b) == b.inverse() * a * b


def _reference_composed(rank: int, table: dict[int, F2Morphism], letters: tuple[int, ...]) -> F2Morphism:
    """The generator morphisms composed one product at a time; kept as an
    oracle for artin_action and f2_action, which compose images as strings.

    The product out * g is taken image by image, each image of g naming
    the images of out (and their inverses) to multiply, so that only the
    limit on the reduced images applies, not the budget of the morphism
    product on unreduced ones."""
    out = F2Morphism.identity(rank)
    for letter in letters:
        named = {}
        for g, image in zip("abcd", out.images):
            named[g], named[g.upper()] = image, image.inverse()
        out = F2Morphism(
            *(
                reduce(operator.mul, map(named.__getitem__, img.letters), FreeWord("", rank))
                for img in table[letter].images
            )
        )
        if sum(len(w) for w in out.images) > IMAGE_LETTER_LIMIT:
            raise ValueError(
                "the free-group image of this braid exceeds %d letters" % IMAGE_LETTER_LIMIT
            )
    return out


@pytest.mark.parametrize(
    "strands, alphabet, max_letters",
    [(3, (1, 2, -1, -2), 5), (4, (1, 2, 3, -1, -2, -3), 5), (4, (4, -4, 1, -2), 4)],
)
def test_actions_match_the_product_by_product_composition(strands, alphabet, max_letters):
    for n in range(max_letters + 1):
        for letters in product(alphabet, repeat=n):
            w = BraidWord(strands, letters)
            expanded = w.expand().letters
            assert artin_action(w) == _reference_composed(strands, _ARTIN[strands], expanded), letters
            if strands == 4:
                assert f2_action(w) == _reference_composed(2, _F2_ACTION, expanded), letters


def _first_letter_past_the_limit(rng, act, rank, table, alphabet, growth) -> tuple[int, ...]:
    """Bisect a seeded word for the first letter whose image passes the limit,
    checking the action against the reference on both sides of it; returns
    the longest prefix that passes.  One letter of the alphabet multiplies
    the summed image length by at most `growth`."""
    # random words pass the limit after about 80 to 200 letters
    letters = tuple(rng.choice(alphabet) for _ in range(400))
    below = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 45)))
    for sample in (below, letters):
        try:
            expected = _reference_composed(rank, table, sample)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = act(BraidWord(4, sample))
        except ValueError as exc:
            got = str(exc)
        assert got == expected, sample
    assert got == "the free-group image of this braid exceeds %d letters" % IMAGE_LETTER_LIMIT
    # raising is monotone in the prefix, so bisect for the first letter
    # that passes the limit, then ask the reference about it and the one before
    lo, hi = 0, len(letters)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            act(BraidWord(4, letters[:mid]))
            lo = mid
        except ValueError:
            hi = mid
    assert hi > 1
    with pytest.raises(ValueError, match="image of this braid exceeds %d letters" % IMAGE_LETTER_LIMIT):
        _reference_composed(rank, table, letters[:hi])
    phi = act(BraidWord(4, letters[: hi - 1]))
    assert phi == _reference_composed(rank, table, letters[: hi - 1])
    assert sum(len(x) for x in phi.images) > IMAGE_LETTER_LIMIT // growth
    return letters[: hi - 1]


def test_actions_pass_the_letter_limit_at_the_reference_letter():
    rng = random.Random(2020)
    actions = [(artin_action, 4, _ARTIN[4]), (f2_action, 2, _F2_ACTION)]
    for act, rank, table in actions * 3:
        _first_letter_past_the_limit(rng, act, rank, table, (1, 2, 3, -1, -2, -3), 4)
    # over all eight letters the limit is checked after each letter of the
    # input, as the reference does over the table holding 4 and -4, so the
    # five-letter expansion of 4 never builds or checks its inner images:
    # a word can pass where its expansion, composed letter by letter, does
    # not.  4 sends a, b, c, d to adA, aDbdA, aDcdA, a, at most 7 times longer
    inside_expansion = 0
    for act, rank, table in actions * 6:
        passing = _first_letter_past_the_limit(rng, act, rank, table, _LETTERS_4, 7)
        try:
            _reference_composed(rank, table, BraidWord(4, passing).expand().letters)
        except ValueError:
            inside_expansion += 1
    assert inside_expansion >= 1


def test_artin_action_is_homomorphism():
    rng = random.Random(314)
    for _ in range(100):
        l1 = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(rng.randint(0, 5)))
        l2 = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(rng.randint(0, 5)))
        w1, w2 = BraidWord(4, l1), BraidWord(4, l2)
        assert artin_action(w1 * w2) == artin_action(w1) * artin_action(w2)


def test_full_twist_is_central():
    twist = delta(4) ** 4
    phi = artin_action(twist)
    gens = [FreeWord.generator(4, i) for i in (1, 2, 3, 4)]
    core = FreeWord("abcd", rank=4)
    assert phi(core) == core
    for g in (BraidWord(4, (i,)) for i in (1, 2, 3, 4)):
        assert braid_equal(twist * g, g * twist)


def test_braid_equal():
    assert braid_equal(BraidWord.parse("1 2 1"), BraidWord.parse("2 1 2"))
    assert braid_equal(BraidWord.parse("1 3"), BraidWord.parse("3 1"))
    assert not braid_equal(BraidWord.parse("1"), BraidWord.parse("2"))
    assert braid_equal(BraidWord.parse("1 -1"), BraidWord(4))
    rng = random.Random(2718)
    for _ in range(30):
        base = tuple(rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(rng.randint(0, 4)))
        w = BraidWord(4, base)
        assert braid_equal(w, _scramble(rng, base, 3))
    assert not braid_equal(BraidWord(4, (1,)), _scramble(rng, (2,), 3))


# Relators among the band generators 1..4, on top of the Artin ones.
_RELATORS_BAND = _RELATORS_4 + (
    (4, 1, 2, 3, -3, -3, -2, -1),
    (2, 4, -2, -4),
    (3, 4, 3, -4, -3, -4),
    (4, 1, 4, -1, -4, -1),
)
_LETTERS_4 = (1, 2, 3, 4, -1, -2, -3, -4)


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # the permutation of the braid product a b: a after b
    return tuple(a[i] for i in b)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i], p[j] = j, i
    return tuple(p)


def _word_lengths(n: int, generators: list[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """The fewest generators whose product is p, for every permutation p of
    range(n), by breadth-first search: the inversion count for the adjacent
    transpositions, the reflection length for all of them."""
    length = {tuple(range(n)): 0}
    level = list(length)
    while level:
        reached = []
        for p in level:
            for t in generators:
                q = _compose(p, t)
                if q not in length:
                    length[q] = length[p] + 1
                    reached.append(q)
        level = reached
    return length


class _Garside(NamedTuple):
    """A Garside structure whose simple elements are permutations, in the
    shape of the library's tables: perms, steps and letters as in
    ranktwo.braids._dual_tables, with meets, complements and twists."""

    perms: list
    steps: list
    letters: dict
    meet: list
    comp: list
    tau: list
    untwist: list  # tau^-1
    mul: list  # mul[a][b], the index of a b, or None when it is not simple
    under: list  # under[a][b], the index of a^-1 b, or None


def _garside(n: int, generators: list, g: tuple[int, ...], atoms: list) -> _Garside:
    """The interval [1, g] of the permutations of range(n) in the word
    length over `generators`: the p with l(p) + l(p^-1 g) = l(g), by
    descending length, then in order, so g is 0 and the identity last.
    Letter i is the atom atoms[i - 1] with power 0, and -i is g atom^-1
    with power -1."""
    length = _word_lengths(n, generators)
    below = [p for p in length if length[p] + length[_compose(_inverse(p), g)] == length[g]]
    perms = sorted(below, key=lambda p: (-length[p], p))
    size = len(perms)
    index = {p: k for k, p in enumerate(perms)}
    divisors = [
        {a for a, x in enumerate(perms) if length[x] + length[_compose(_inverse(x), y)] == length[y]} for y in perms
    ]
    # the longest common divisor is the first, by the ordering
    meet = [[min(divisors[a] & divisors[b]) for b in range(size)] for a in range(size)]
    comp = [index[_compose(_inverse(p), g)] for p in perms]
    tau = [index[_compose(_compose(_inverse(g), p), g)] for p in perms]
    mul = [[index.get(_compose(x, y)) for y in perms] for x in perms]
    under = [[index.get(_compose(_inverse(x), y)) for y in perms] for x in perms]
    steps = [
        [None if m == size - 1 else (mul[a][m], under[m][b]) for b in range(size) for m in [meet[comp[a]][b]]]
        for a in range(size)
    ]
    # the order of tau, and tau^k for each k below it
    twists = [list(range(size))]
    while len(twists) == 1 or twists[-1] != twists[0]:
        twists.append([tau[a] for a in twists[-1]])
    letters = {}
    for i, t in enumerate(atoms, 1):
        for letter, power, f in ((i, 0, index[t]), (-i, -1, index[_compose(g, _inverse(t))])):
            letters[letter] = (power, tuple(twist[f] for twist in twists[:-1]))
    untwist = sorted(range(size), key=tau.__getitem__)
    return _Garside(perms, steps, letters, meet, comp, tau, untwist, mul, under)


def _adjacent(n: int) -> list[tuple[int, ...]]:
    return [_transposition(n, i - 1, i) for i in range(1, n)]


def _expansion_permutation(expansion: tuple[int, ...]) -> tuple[int, ...]:
    # sigma_i and its inverse both send the strands i - 1 and i to each other
    return reduce(_compose, (_adjacent(4)[abs(l) - 1] for l in expansion))


# Delta and the permutation braids: the classical structure, with sigma_4
# read as its expansion, kept as the oracle of the library's dual one, with
# delta = sigma_1 ... sigma_(n-1) and sigma_4 an atom
_CLASSICAL = {n: _garside(n, _adjacent(n), tuple(range(n))[::-1], _adjacent(n)) for n in (3, 4)}
_DUAL_ORACLE = {
    n: _garside(
        n,
        [_transposition(n, i, j) for j in range(n) for i in range(j)],
        reduce(_compose, _adjacent(n)),
        _adjacent(n) + [_expansion_permutation(_EXPANSIONS[4])] * (n == 4),
    )
    for n in (3, 4)
}


def _read(w: BraidWord, g: _Garside) -> tuple[int, ...]:
    # a structure without the letter 4 reads its expansion
    return w.letters if 4 in g.letters else w.expand().letters


def _left_multiplied_normal_form(
    w: BraidWord, g: _Garside, fronts: list[int] | None = None
) -> tuple[int, tuple[int, ...]]:
    """The library's left multiplication on the tables of g: each letter,
    read right to left, enters behind g^p twisted by tau^(p mod order) and
    is carried right by the step rows.  On the classical tables it is the
    classical normal form, the oracle of the dual one.
    `fronts` gets p mod order for each letter that enters just after the
    letter to its right formed a Garside element at the front."""
    order = len(g.letters[1][1])
    identity = len(g.perms) - 1
    p, rev = 0, [identity]
    formed = False
    for letter in reversed(_read(w, g)):
        power, twisted = g.letters[letter]
        if formed and fronts is not None:
            fronts.append(p % order)
        x = twisted[p % order]
        k = len(rev)
        rev.append(x)
        while True:
            k -= 1
            step = g.steps[x][rev[k]]
            if not step:
                rev[k + 1] = x
                break
            rev[k + 1], x = step
            if x == identity:
                del rev[k]
                break
        formed = not rev[-1]
        if formed:
            rev.pop()
            p += 1
        p += power
    return p, tuple(rev[:0:-1])


def _reference_normal_form(w: BraidWord, g: _Garside | None = None) -> tuple[int, tuple[int, ...]]:
    """The left normal form by right multiplication from the permutations,
    rewriting every factor by tau^-1 at each negative letter and bubbling
    each new factor left by meets and products; kept as an oracle for the
    twists and the step rows of _normal_form.  4 is read as its expansion."""
    g = g or _DUAL_ORACLE[w.strands]
    identity = len(g.perms) - 1
    p = 0
    factors: list[int] = []
    for letter in w.expand().letters:
        power, twisted = g.letters[letter]
        if power:
            p -= 1
            factors = [g.untwist[a] for a in factors]
        factors.append(twisted[0])
        k = len(factors) - 1
        while k:
            a, b = factors[k - 1], factors[k]
            m = g.meet[g.comp[a]][b]
            if m == identity:
                break
            factors[k - 1], factors[k] = g.mul[a][m], g.under[m][b]
            k -= 1
        while factors and factors[-1] == identity:
            factors.pop()
    lead = 0
    while lead < len(factors) and factors[lead] == 0:
        lead += 1
    return p + lead, tuple(factors[lead:])


def _right_appending_normal_form(w: BraidWord, g: _Garside | None = None) -> tuple[int, tuple[int, ...]]:
    """The left normal form by right multiplication: each letter adds its
    power to p and appends its factor twisted by tau^-p, bubbled left by the
    step rows; at the end tau^(p mod order) undoes the twist and leading
    Garside elements join p.  Kept as an oracle for the left multiplication
    in _normal_form, which reads the same step rows the other way."""
    g = g or _DUAL_ORACLE[w.strands]
    order = len(g.letters[1][1])
    identity = len(g.perms) - 1
    p = 0
    factors: list[int] = []
    for letter in _read(w, g):
        power, twisted = g.letters[letter]
        p += power
        factors.append(twisted[-p % order])
        k = len(factors) - 1
        while k:
            step = g.steps[factors[k - 1]][factors[k]]
            if step is None:
                break
            factors[k - 1], factors[k] = step
            k -= 1
        while factors and factors[-1] == identity:
            factors.pop()
    for _ in range(p % order):
        factors = [g.tau[a] for a in factors]
    lead = 0
    while lead < len(factors) and factors[lead] == 0:
        lead += 1
    return p + lead, tuple(factors[lead:])


def test_dual_tables_are_the_interval_below_delta():
    for n, size in ((3, 5), (4, 14)):
        assert _DUAL[n] == _DUAL_ORACLE[n][:3], n
        assert len(_DUAL[n][0]) == size and len(_CLASSICAL[n].perms) == math.factorial(n)
        # delta is 0 and the identity is last, in both structures
        for g, top in ((_DUAL_ORACLE[n], reduce(_compose, _adjacent(n))), (_CLASSICAL[n], tuple(range(n))[::-1])):
            assert g.perms[0] == top and g.perms[-1] == tuple(range(n)), n


def test_normal_form_matches_both_oracles_where_left_multiplication_branches():
    rng = random.Random(1930)
    words = []
    for strands, alphabet in ((3, (1, 2, -1, -2)), (4, _LETTERS_4)):
        # every periodic word of period at most 3, at 200 letters: the runs
        # whose carries pass every earlier factor, or cancel all of them
        for n in (1, 2, 3):
            words += [BraidWord(strands, (period * 200)[:200]) for period in product(alphabet, repeat=n)]
        # w w^-1 and w^-1 w, where every carry ends at the identity
        for _ in range(100):
            w = BraidWord(strands, [rng.choice(alphabet) for _ in range(rng.randint(1, 150))])
            for cancelling in (w * w.inverse(), w.inverse() * w):
                assert _normal_form(cancelling) == (0, ()), w
                words.append(cancelling)
    # a delta formed at the front, then the next letter entering under each
    # twist residue p mod n: every short word, and seeded long ones
    for strands, alphabet, most, floors in (
        (3, (1, 2, -1, -2), 6, (2800, 1600, 1800)),
        (4, _LETTERS_4, 4, (900, 175, 240, 1050)),
    ):
        fronts: list[int] = []
        short = [BraidWord(strands, letters) for n in range(most + 1) for letters in product(alphabet, repeat=n)]
        long = [BraidWord(strands, [rng.choice(alphabet) for _ in range(rng.randint(2, 60))]) for _ in range(100)]
        for w in short + long:
            _left_multiplied_normal_form(w, _DUAL_ORACLE[strands], fronts)
        residues = [fronts.count(r) for r in range(strands)]
        assert all(count >= floor for count, floor in zip(residues, floors)), (strands, residues)
        words += short + long
    for w in words:
        assert _normal_form(w) == _reference_normal_form(w) == _right_appending_normal_form(w), w
    # the classical structure's left multiplication, against its oracles
    for w in words[::7]:
        g = _CLASSICAL[w.strands]
        assert _left_multiplied_normal_form(w, g) == _reference_normal_form(w, g) == _right_appending_normal_form(w, g), w


@pytest.mark.parametrize("strands, most, words, classes", [(4, 5, 37449, 4887), (3, 8, 87381, 2589)])
def test_dual_and_classical_normal_forms_give_the_same_classes(strands, most, words, classes):
    alphabet = _LETTERS_4 if strands == 4 else (1, 2, -1, -2)
    duals, classicals, pairs = set(), set(), set()
    count = 0
    for n in range(most + 1):
        for letters in product(alphabet, repeat=n):
            w = BraidWord(strands, letters)
            dual, classical = _normal_form(w), _left_multiplied_normal_form(w, _CLASSICAL[strands])
            duals.add(dual)
            classicals.add(classical)
            pairs.add((dual, classical))
            count += 1
    # one partition: each dual form goes with one classical form, and back
    assert (count, len(duals), len(classicals), len(pairs)) == (words, classes, classes, classes)


def test_normal_form_matches_the_rewrite_at_every_negative_letter():
    words = [BraidWord(4, (1,) + (-2,) * k + (3,)) for k in (1, 5, 50, 200)]
    rng = random.Random(1992)
    for _ in range(300):
        strands = rng.choice((3, 4))
        alphabet = (1, 2, -1, -2) if strands == 3 else _LETTERS_4
        letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 200)))
        words.append(BraidWord(strands, letters))
    words += [w.inverse() for w in words]
    for w in words:
        assert _normal_form(w) == _reference_normal_form(w), w


def test_letter_four_matches_the_expanding_oracles():
    # every word of at most 4 letters over all eight letters, then seeded
    # longer ones; each oracle reads the word with 4 written out
    words = [BraidWord(4, letters) for n in range(5) for letters in product(_LETTERS_4, repeat=n)]
    assert len(words) == 4681
    rng = random.Random(1925)
    words += [
        BraidWord(4, [rng.choice(_LETTERS_4) for _ in range(rng.randint(5, 60))]) for _ in range(300)
    ]
    within_limit = 0
    for w in words:
        expanded = w.expand().letters
        assert _normal_form(w) == _reference_normal_form(w), w
        matrix = reduce(operator.mul, (_F2_ACTION[l].matrix() for l in expanded), Mat2.identity())
        assert gl2_image(w) == matrix, w
        for act, rank, table in ((artin_action, 4, _ARTIN[4]), (f2_action, 2, _F2_ACTION)):
            try:
                expected = _reference_composed(rank, table, expanded)
            except ValueError:
                # an image inside the expansion of a 4 passed the limit;
                # the letter-limit test covers these words
                continue
            assert act(w) == expected, w
            within_limit += 1
    assert within_limit >= 2 * len(words) - 10, within_limit


def test_letter_four_tables():
    # 4 lifts Dt^-1 and -4 lifts Dt, the paper's realization of Dt
    assert f2_action(BraidWord(4, (4,))) == generator_inverse("Dt") == _F2_ACTION[4]
    assert f2_action(BraidWord(4, (-4,))) == generator("Dt") == _F2_ACTION[-4]
    # the realization's Dt^-1 and Dt are the products over the expansions of 4 and -4
    assert sorted(_F2_ACTION) == [-4, -3, -2, -1, 1, 2, 3, 4]
    for letter, expansion in _EXPANSIONS.items():
        assert _F2_ACTION[letter] == reduce(operator.mul, (_F2_ACTION[l] for l in expansion)), letter
    assert [x.letters for x in _ARTIN[4][4].images] == ["adA", "aDbdA", "aDcdA", "a"]
    assert _ARTIN[4][4] * _ARTIN[4][-4] == F2Morphism.identity(4)
    assert 4 not in _ARTIN[3]
    # every letter is one simple factor f with its n twists: sigma_i is
    # its atom with delta power 0, and sigma_i^-1 is delta^-1 (delta sigma_i^-1)
    for n in (3, 4):
        perms, _, letters = _DUAL[n]
        delta_perm = reduce(_compose, _adjacent(n))
        assert set(letters) == set(_LETTERS_4 if n == 4 else (1, 2, -1, -2)), n
        for letter, (power, twisted) in letters.items():
            assert power == (-1 if letter < 0 else 0) and len(twisted) == n, letter
            assert _normal_form(BraidWord(n, (letter,))) == (power, twisted[:1]), letter
            if 0 < letter < n:
                atom = _adjacent(n)[letter - 1]
                assert perms[twisted[0]] == atom and perms[letters[-letter][1][0]] == _compose(delta_perm, atom)
    # tau = delta^-1 . delta sends sigma_1 -> sigma_4 -> sigma_3 -> sigma_2 -> sigma_1, by lemma1.2
    perms, _, letters = _DUAL[4]
    for i, j in ((1, 4), (4, 3), (3, 2), (2, 1)):
        assert letters[i][1][1] == letters[j][1][0], (i, j)
    # and the atom sigma_4 is the permutation of its expansion
    assert perms[letters[4][1][0]] == _expansion_permutation(_EXPANSIONS[4]) == _transposition(4, 0, 3)
    for g in (*_DUAL_ORACLE.values(), *_CLASSICAL.values()):
        size = len(g.perms)
        for a, b in product(range(size), repeat=2):
            step = g.steps[a][b]
            # a step keeps the product and leaves a left-weighted pair
            if step is None:
                assert g.meet[g.comp[a]][b] == size - 1, (size, a, b)
            else:
                assert _compose(*map(g.perms.__getitem__, step)) == _compose(g.perms[a], g.perms[b]), (size, a, b)
                assert g.steps[step[0]][step[1]] is None, (size, a, b)


def _oracle_equal(w1: BraidWord, w2: BraidWord) -> bool:
    return artin_action(w1) == artin_action(w2)


def _oracle_eq_mod_center(w1: BraidWord, w2: BraidWord) -> bool:
    # the center is generated by delta^4, whose exponent sum is 12, so
    # the exponent sums force the only power of it that can separate them
    diff = w1.exponent_sum() - w2.exponent_sum()
    return diff % 12 == 0 and _oracle_equal(w1, w2 * delta(4) ** (4 * (diff // 12)))


@pytest.mark.parametrize(
    "strands, max_letters, words, classes",
    [(4, 4, 1555, 469), (3, 6, 5461, 577)],
)
def test_normal_form_classes_are_the_image_classes(strands, max_letters, words, classes):
    alphabet = [l for i in range(1, strands) for l in (i, -i)]
    by_image: dict[F2Morphism, list[tuple[int, ...]]] = {}
    by_form: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    count = 0
    for n in range(max_letters + 1):
        for letters in product(alphabet, repeat=n):
            w = BraidWord(strands, letters)
            by_image.setdefault(artin_action(w), []).append(letters)
            form = _normal_form(w)
            assert form == _reference_normal_form(w), letters
            by_form.setdefault(form, []).append(letters)
            count += 1
    assert (count, len(by_image), len(by_form)) == (words, classes, classes)
    assert sorted(by_image.values()) == sorted(by_form.values())


def _seeded_pair(rng: random.Random, kind: str) -> tuple[BraidWord, BraidWord]:
    if kind == "relation":
        rel = list(rng.choice(_RELATORS_BAND))
        if rng.random() < 0.5:
            rel = [-l for l in reversed(rel)]
        letters = [rng.choice(_LETTERS_4) for _ in range(rng.randint(0, 14 - len(rel)))]
        pos = rng.randint(0, len(letters))
        return BraidWord(4, letters), BraidWord(4, letters[:pos] + rel + letters[pos:])
    letters = [rng.choice(_LETTERS_4) for _ in range(rng.randint(1, 14))]
    if kind == "random":
        return BraidWord(4, letters), BraidWord(4, [rng.choice(_LETTERS_4) for _ in letters])
    other = list(letters)
    i = rng.randrange(len(letters))
    if kind == "flip" or len(letters) == 1:
        other[i] = -other[i]
    else:
        i = min(i, len(letters) - 2)
        other[i], other[i + 1] = other[i + 1], other[i]
    return BraidWord(4, letters), BraidWord(4, other)


def test_equality_agrees_with_the_image_oracle_on_seeded_pairs():
    rng = random.Random(1969)
    seen = {(kind, same): 0 for kind in ("relation", "flip", "swap", "random") for same in (True, False)}
    central = 0
    for _ in range(800):
        kind = rng.choice(("relation", "flip", "swap", "random"))
        w1, w2 = _seeded_pair(rng, kind)
        same = _oracle_equal(w1, w2)
        assert braid_equal(w1, w2) == same, (w1, w2)
        assert braid_equal(w2, w1) == same, (w1, w2)
        assert eq_mod_center(w1, w2) == _oracle_eq_mod_center(w1, w2), (w1, w2)
        seen[kind, same] += 1
        shifted = w2 * delta(4) ** (4 * rng.choice((-2, -1, 1, 2)))
        assert not braid_equal(w1, shifted), (w1, shifted)
        mod_center = _oracle_eq_mod_center(w1, shifted)
        assert mod_center == same, (w1, shifted)
        assert eq_mod_center(w1, shifted) == mod_center, (w1, shifted)
        assert eq_mod_center(shifted, w1) == mod_center, (w1, shifted)
        central += mod_center
    # the sample holds equal relation pairs, equal swaps (commuting
    # letters), and misses of every kind
    assert seen["relation", True] >= 100 and seen["swap", True] >= 50, seen
    assert min(seen[kind, False] for kind in ("flip", "swap", "random")) >= 50, seen
    assert central >= 150, central


@pytest.mark.parametrize("strands, alphabet", [(3, (1, 2, -1, -2)), (4, _LETTERS_4)])
def test_comparisons_cancel_common_ends_as_the_whole_normal_forms_say(strands, alphabet):
    rng = random.Random(1712 + strands)

    def word(most: int) -> tuple[int, ...]:
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, most)))

    # common prefix and suffix that overlap in the shorter word
    pairs = [((1, 1, 1), (1, 1)), ((1, 2, 1), (1, 1)), ((2, 1, 2), (2, 2)), ((1, 2, 1, 2), (1, 2))]
    for _ in range(600):
        x = word(5)
        # y empty, equal to x, extending x at either end, or unrelated
        y = rng.choice(((), x, x + word(3), word(3) + x, word(5)))
        if strands == 4 and rng.random() < 0.3:
            k = rng.randint(0, len(y))
            y = y[:k] + rng.choice(((1, 2, 3) * 4, (-3, -2, -1) * 4)) + y[k:]
        prefix, suffix = word(6), word(6)
        pairs.append((prefix + x + suffix, prefix + y + suffix))
    # delta^k for every k from -7 to 7 at the front or back of a copy of a word; at
    # the front the factors stay the word's, so only the delta powers, central
    # exactly when 4 divides k, tell the two apart modulo the center
    if strands == 4:
        for k in range(-7, 8):
            power = ((1, 2, 3) if k > 0 else (-3, -2, -1)) * abs(k)
            for _ in range(10):
                w = word(12)
                pairs += [(w, power + w), (w + power, w)]
    seen = {"equal": 0, "central": 0, "images": 0}
    for a, b in pairs:
        w1, w2 = BraidWord(strands, a), BraidWord(strands, b)
        (p1, factors1), (p2, factors2) = _normal_form(w1), _normal_form(w2)
        same = (p1, factors1) == (p2, factors2)
        assert braid_equal(w1, w2) == braid_equal(w2, w1) == same, (a, b)
        if max(len(a), len(b)) <= 8:
            assert _oracle_equal(w1, w2) == same, (a, b)
            seen["images"] += 1
        seen["equal"] += same
        if strands == 3:
            continue
        mod_center = factors1 == factors2 and (p1 - p2) % 4 == 0
        assert eq_mod_center(w1, w2) == eq_mod_center(w2, w1) == mod_center, (a, b)
        if max(len(a), len(b)) <= 8:
            assert _oracle_eq_mod_center(w1, w2) == mod_center, (a, b)
        for flag in (0, 1):
            e1, e2 = ExtBraid(w1, flag), ExtBraid(w2, flag)
            assert e1.equal(e2) == e2.equal(e1) == same, (a, b, flag)
            assert e1.equal_mod_center(e2) == e2.equal_mod_center(e1) == mod_center, (a, b, flag)
        seen["central"] += mod_center and not same
    assert seen["equal"] >= 100 and seen["images"] >= 100, seen
    assert strands == 3 or seen["central"] >= 50, seen


def test_only_the_differing_middles_reach_the_normal_form(monkeypatch):
    met = []

    def recording(w: BraidWord) -> tuple[int, tuple[int, ...]]:
        met.append(w.letters)
        return _normal_form(w)

    monkeypatch.setattr("ranktwo.braids._normal_form", recording)
    for a, b, middles in (
        ((1, 1, 1), (1, 1), [(1,), ()]),
        ((1, 2, 1), (1, 1), [(2,), ()]),
        ((1, 1), (1, 2, 1), [(), (2,)]),
        ((1, 2), (1, 2, 2, 1, 2), [(), (2, 1, 2)]),
        ((4, 1, 2, -3), (4, -1, 2, -3), [(1,), (-1,)]),
        ((4, -2, 3), (4, -2, 3), [(), ()]),
        ((1, 2, 3), (3, 2, 1), [(1, 2, 3), (3, 2, 1)]),
    ):
        for compare in (braid_equal, eq_mod_center):
            met.clear()
            compare(BraidWord(4, a), BraidWord(4, b))
            assert met == middles, (a, b, compare)


def test_a_word_past_the_normal_form_limit_fails_fast():
    too_long = BraidWord(4, (1, -2) * (NORMAL_FORM_LETTER_LIMIT // 2) + (1,))
    short = BraidWord(4, (1, 2))
    # the limit counts the words as given: against short, itself and
    # longer, too_long leaves a middle of exactly 8,192 letters, none, or one
    longer = too_long * BraidWord(4, (3,))
    pairs = ((too_long, short), (short, too_long), (too_long, too_long), (too_long, longer), (longer, too_long))
    start = time.perf_counter()
    for compare in (braid_equal, eq_mod_center):
        for pair in pairs:
            with pytest.raises(ValueError, match="more than %d letters" % NORMAL_FORM_LETTER_LIMIT):
                compare(*pair)
    for compare in (ExtBraid.equal, ExtBraid.equal_mod_center):
        for other in (short, too_long, longer):
            with pytest.raises(ValueError, match="more than %d letters" % NORMAL_FORM_LETTER_LIMIT):
                compare(ExtBraid(too_long), ExtBraid(other))
    assert time.perf_counter() - start < 0.01


def test_the_worst_case_at_the_normal_form_limit_still_compares():
    n = NORMAL_FORM_LETTER_LIMIT // 2
    assert NORMAL_FORM_LETTER_LIMIT == 8192
    # read right to left, each factor of these stops at the identity or at
    # the first factor it meets, so they take linear time; sigma_4 is
    # delta sigma_3 delta^-1, and it commutes with sigma_2
    linear = {
        "1^n (-1)^n": ((1,) * n + (-1,) * n, (), True),
        "(-1)^n 1^n": ((-1,) * n + (1,) * n, (), True),
        "4^2n": ((4,) * 2 * n, (4,) * (2 * n - 1) + (3,), False),
        "4^(2n-6)": ((4,) * (2 * n - 6), (1, 2, 3) + (3,) * (2 * n - 6) + (-3, -2, -1), True),
        "(-2)^n 4^n": ((-2,) * n + (4,) * n, (-2,) * (n - 1) + (4,) * n + (-2,), True),
    }
    for name, (x, y, same) in linear.items():
        start = time.perf_counter()
        assert braid_equal(BraidWord(4, x), BraidWord(4, y)) == same, name
        assert time.perf_counter() - start < 0.1, name
        # a comparison cancels common ends, so time each whole word's form too
        for side in (x, y):
            start = time.perf_counter()
            _normal_form(BraidWord(4, side))
            assert time.perf_counter() - start < 0.1, name
    # the slowest family as the common ends of two words that differ in a
    # letter or two: only those letters reach the normal form
    slow = (4,) * (n - 1) + (-2,) * (n - 1)
    ends = {
        "4^n (-2)^n, its middle letter flipped": ((4,) * n + (-2,) * n, (4,) * n + (2,) + (-2,) * (n - 1), False),
        "1 S against 2 S": ((1,) + slow, (2,) + slow, False),
        "S 1 3 against S 3 1": (slow + (1, 3), slow + (3, 1), True),
    }
    for name, (x, y, same) in ends.items():
        start = time.perf_counter()
        assert braid_equal(BraidWord(4, x), BraidWord(4, y)) == same, name
        assert eq_mod_center(BraidWord(4, x), BraidWord(4, y)) == same, name
        assert time.perf_counter() - start < 0.1, name
    # one of the slowest families known: each 4 is carried past all of
    # (-2)^n, which takes about a second, not minutes
    assert braid_equal(BraidWord(4, (4,) * n + (-2,) * n), BraidWord(4, (-2,) * n + (4,) * n))


def test_long_words_compare_without_building_images():
    rng = random.Random(300)
    letters = tuple(rng.choice(_LETTERS_4) for _ in range(300))
    w = BraidWord(4, letters)
    rewritten = _scramble(rng, letters, 20)
    flipped = BraidWord(4, letters[:150] + (-letters[150],) + letters[151:])
    start = time.perf_counter()
    assert braid_equal(w, rewritten)
    assert eq_mod_center(w, rewritten * delta(4) ** 4)
    assert not braid_equal(w, flipped)
    assert time.perf_counter() - start < 1.0


def test_image_letter_limit():
    # 60 letters: its rank-two image would have hundreds of millions of letters
    runaway = BraidWord(4, (1, -2, 3) * 20)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds %d letters" % IMAGE_LETTER_LIMIT):
        f2_action(runaway)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="exceeds"):
        artin_action(BraidWord(4, (1, -2) * 40))
    # below the limit the action is exact
    assert sum(len(x) for x in f2_action(BraidWord(4, (1, -2, 3) * 5)).images) < IMAGE_LETTER_LIMIT
    # a power fails before it builds its letters
    start = time.perf_counter()
    for k in (1 << 40, -(1 << 40)):
        with pytest.raises(ValueError, match="power exceeds %d letters" % IMAGE_LETTER_LIMIT):
            BraidWord(4, (1,)) ** k
    assert time.perf_counter() - start < 0.01
    assert len(BraidWord(4, (1, -2)) ** (IMAGE_LETTER_LIMIT // 2)) == IMAGE_LETTER_LIMIT
    with pytest.raises(ValueError, match="power exceeds"):
        BraidWord(4, (1, -2)) ** (IMAGE_LETTER_LIMIT // 2 + 1)
    assert BraidWord(4) ** (1 << 40) == BraidWord(4)


def test_eq_mod_center():
    d4 = delta(4) ** 4
    assert eq_mod_center(BraidWord(4), d4)
    assert eq_mod_center(BraidWord(4), d4 ** -2)
    assert eq_mod_center(BraidWord.parse("1"), d4 * BraidWord.parse("1"))
    assert not eq_mod_center(BraidWord.parse("1"), BraidWord.parse("2"))
    # exponent sums differing by a non-multiple of 12 fail fast
    assert not eq_mod_center(BraidWord(4), BraidWord.parse("1"))
    rng = random.Random(137)
    for _ in range(20):
        base = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3)) for _ in range(rng.randint(0, 4)))
        w = BraidWord(4, base)
        k = rng.choice((-2, -1, 1, 2))
        assert eq_mod_center(w, w * d4 ** k)


def test_eq_mod_center_tells_every_power_of_delta_from_the_center():
    # delta^k is central exactly when 4 divides k, so a slip to the parity
    # of the delta powers (delta^2 taken for central) shows here
    rng = random.Random(1998)
    seen = {(k, end): 0 for k in range(-7, 8) for end in ("front", "back", "inside")}
    for _ in range(1500):
        letters = [rng.choice(_LETTERS_4) for _ in range(rng.randint(0, 8))]
        k = rng.randint(-7, 7)
        end = rng.choice(("front", "back", "inside"))
        pos = {"front": 0, "back": len(letters), "inside": rng.randint(0, len(letters))}[end]
        w1 = BraidWord(4, letters)
        w2 = BraidWord(4, letters[:pos]) * delta(4) ** k * BraidWord(4, letters[pos:])
        central = _oracle_eq_mod_center(w1, w2)
        assert central == (k % 4 == 0), (w1, k)
        assert eq_mod_center(w1, w2) == eq_mod_center(w2, w1) == central, (w1, w2)
        for flag in (0, 1):
            e1, e2 = ExtBraid(w1, flag), ExtBraid(w2, flag)
            assert e1.equal_mod_center(e2) == e2.equal_mod_center(e1) == central, (w1, w2, flag)
        seen[k, end] += 1
    assert min(seen.values()) >= 20, seen


def test_omega():
    assert omega(BraidWord(4, (1,))).letters == (-2,)
    # the image of s3 is s4^-1, returned in expanded form
    assert omega(BraidWord(4, (3,))).letters == (-3, -2, -1, 2, 3)
    assert braid_equal(omega(BraidWord(4, (3,))), BraidWord(4, (-4,)).expand())
    assert omega(BraidWord(4, (4, -2))).letters == (-3, 1)
    rng = random.Random(808)
    for _ in range(50):
        letters = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(rng.randint(0, 6)))
        w = BraidWord(4, letters)
        assert braid_equal(omega(omega(w)), w)
        assert omega(w).exponent_sum() == -w.exponent_sum()
        w2 = BraidWord(4, tuple(rng.choice((1, 2, 3, 4, -1, -2)) for _ in range(3)))
        assert braid_equal(omega(w * w2), omega(w) * omega(w2))


def test_ext_braid():
    m = ExtBraid.mirror()
    assert m * m == ExtBraid.identity()
    assert (m * m).equal(ExtBraid.identity())
    s1 = ExtBraid(BraidWord(4, (1,)))
    # conjugation by the mirror element applies omega to the braid part
    assert (m * s1 * m).equal(ExtBraid(BraidWord(4, (-2,))))
    assert (s1 * s1.inverse()).equal(ExtBraid.identity())
    assert s1.inverse().equal(ExtBraid(BraidWord(4, (-1,))))
    assert (m * s1).inverse().equal(s1.inverse() * m)


def test_ext_braid_compares_letter_for_letter():
    assert len({ExtBraid.identity(), ExtBraid.identity()}) == 1
    s1 = ExtBraid(BraidWord(4, (1,)))
    assert s1 == ExtBraid(BraidWord(4, (1,))) and hash(s1) == hash(ExtBraid(BraidWord(4, (1,))))
    assert s1 != ExtBraid(BraidWord(4, (1,)), 1) and s1 != BraidWord(4, (1,))
    # equal in the group but not as words
    s1_again = s1 * ExtBraid(BraidWord(4, (2, -2)))
    assert s1_again != s1 and s1_again.equal(s1)


def test_ext_braid_fields_are_read_only():
    e = ExtBraid.identity()
    members = {e}
    for field, value in (("flag", 1), ("braid", BraidWord(4, (1,)))):
        with pytest.raises(AttributeError):
            setattr(e, field, value)
    assert e in members and ExtBraid.identity() in members and ExtBraid.mirror() not in members
    assert (e.braid, e.flag) == (BraidWord(4), 0)


def test_ext_braid_flag_is_the_integer_0_or_1():
    for flag in (1.0, 0.0, 2, -1, "1", None):
        with pytest.raises(ValueError, match="flag must be 0 or 1"):
            ExtBraid(BraidWord(4), flag)
    # a bool is an integer flag
    assert (ExtBraid(BraidWord(4, (1,)), True) * ExtBraid.mirror()).equal(ExtBraid(BraidWord(4, (1,))))
    assert ExtBraid(flag=False).equal(ExtBraid.identity())


def test_ext_braid_equal_mod_center():
    d4 = ExtBraid(delta(4) ** 4)
    s1 = ExtBraid(BraidWord(4, (1,)))
    assert (s1 * d4).equal_mod_center(s1)
    assert not (s1 * d4).equal(s1)
    m = ExtBraid.mirror()
    assert not (m * s1).equal_mod_center(s1)


def test_f2_action_on_generators():
    assert f2_action(BraidWord(4, (1,))) == generator("G")
    assert f2_action(BraidWord(4, (-1,))) == generator_inverse("G")
    assert f2_action(BraidWord(4, (2,))) == generator_inverse("D")
    assert f2_action(BraidWord(4, (-2,))) == generator("D")
    assert f2_action(BraidWord(4, (3,))) == generator("Gt")
    assert f2_action(BraidWord(4, (-3,))) == generator_inverse("Gt")
    assert f2_action(BraidWord(4, (4,))) == generator_inverse("Dt")
    assert f2_action(BraidWord(4, (-4,))) == generator("Dt")
    assert f2_action(BraidWord(4)) == F2Morphism.identity()


def test_f2_action_matches_the_composition_on_seeded_long_words():
    # the exhaustive comparison stops at 4 or 5 letters, short of the long
    # images whose seams cancel far; w w^-1 cancels at every seam of its
    # second half
    rng = random.Random(1936)
    compared = 0
    for _ in range(300):
        w = BraidWord(4, [rng.choice(_LETTERS_4) for _ in range(rng.randint(5, 36))])
        try:
            expected = _reference_composed(2, _F2_ACTION, w.expand().letters)
        except ValueError:
            continue  # past the letter limit, which the bisecting test covers
        assert f2_action(w) == expected, w
        assert f2_action(w * w.inverse()) == F2Morphism.identity(), w
        compared += 1
    assert compared >= 250, compared


def test_f2_action_keeps_the_inverse_images_it_applies_with():
    # the morphism f2_action returns carries the inverse images, which the fold reads
    # at cancelling seams; the same images given to the public constructor carry none
    rng = random.Random(1895)
    folded = 0
    for _ in range(200):
        b = BraidWord(4, [rng.choice(_LETTERS_4) for _ in range(rng.randint(0, 36))])
        phi = f2_action(b)
        folded += sum(map(len, phi.images)) >= 2 * _FOLD_MEAN_LETTERS
        plain = F2Morphism(*phi.images)
        assert phi._inverses == [w.inverse().letters for w in phi.images], b
        assert plain._inverses is None
        assert phi == plain and hash(phi) == hash(plain) and repr(phi) == repr(plain), b
        psi = f2_action(BraidWord(4, [rng.choice(_LETTERS_4) for _ in range(rng.randint(0, 8))]))
        words = [FreeWord("".join(rng.choices("abAB", k=rng.choice([1, 4, 30])))) for _ in range(3)]
        words += [w * rng.choice(phi.images).inverse() for w in words]
        for w in words:
            try:
                expected = plain(w)
            except ValueError:  # past the letter limit, which then both refuse
                with pytest.raises(ValueError, match="exceeds"):
                    phi(w)
                continue
            assert phi(w) == expected, (b, w)
        assert phi * psi == plain * psi, b
        assert f2_action_ext(ExtBraid(b, 1)) == plain * generator("E"), b
    assert folded >= 100, folded


def test_products_keep_the_inverse_images_of_their_left_factor():
    # a product whose left factor stores its inverse images stores those of its own
    # images; one whose left factor stores none stores none
    rng = random.Random(1925)
    for _ in range(100):
        b = BraidWord(4, [rng.choice(_LETTERS_4) for _ in range(rng.randint(0, 24))])
        phi = f2_action(b)
        plain = F2Morphism(*phi.images)
        for psi in (generator("E"), f2_action(BraidWord(4, [rng.choice(_LETTERS_4) for _ in range(6)]))):
            out = phi * psi
            assert out._inverses == [w.inverse().letters for w in out.images], (b, psi)
            assert out == plain * psi and (plain * psi)._inverses is None, (b, psi)
            assert (psi * phi)._inverses == (psi._inverses and [w.inverse().letters for w in (psi * phi).images])
            w = FreeWord("".join(rng.choices("abAB", k=30)))
            try:
                expected = (plain * psi)(w)
            except ValueError:  # past the letter limit, which then both refuse
                with pytest.raises(ValueError, match="exceeds"):
                    out(w)
                continue
            assert out(w) == expected, (b, psi, w)


def test_reprs_of_braids():
    assert repr(BraidWord(4, (1, -2))) == "BraidWord(4, [1, -2])"
    assert repr(ExtBraid.mirror()) == "ExtBraid(BraidWord(4, []), flag=1)"


@pytest.mark.parametrize(
    "x", [FreeWord("ab"), generator("G"), Mat2(1, 1, 0, 1), BraidWord(4, (1,)), ExtBraid.mirror()]
)
def test_products_with_other_types_raise_type_error(x):
    with pytest.raises(TypeError):
        x * object()


def test_f2_action_is_homomorphism():
    rng = random.Random(90210)
    for _ in range(100):
        l1 = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(rng.randint(0, 5)))
        l2 = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(rng.randint(0, 5)))
        w1, w2 = BraidWord(4, l1), BraidWord(4, l2)
        assert f2_action(w1 * w2) == f2_action(w1) * f2_action(w2)


def test_f2_action_ext():
    e = ExtBraid(BraidWord(4, (1,)), 1)
    assert f2_action_ext(e) == f2_action(BraidWord(4, (1,))) * generator("E")
    assert f2_action_ext(ExtBraid.mirror()) == generator("E")
    assert f2_action_ext(ExtBraid.identity()) == F2Morphism.identity()
    rng = random.Random(4321)
    for _ in range(60):
        e1 = ExtBraid(
            BraidWord(4, tuple(rng.choice((1, 2, 3, 4, -1, -2)) for _ in range(3))),
            rng.choice((0, 1)),
        )
        e2 = ExtBraid(
            BraidWord(4, tuple(rng.choice((1, 2, 3, 4, -1, -2)) for _ in range(3))),
            rng.choice((0, 1)),
        )
        assert f2_action_ext(e1 * e2) == f2_action_ext(e1) * f2_action_ext(e2)


def test_gl2_image_matches_abelianized_action():
    rng = random.Random(602)
    for _ in range(100):
        letters = tuple(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)) for _ in range(rng.randint(0, 6)))
        w = BraidWord(4, letters)
        assert gl2_image(w) == f2_action(w).matrix()


def test_gl2_image_on_three_strands():
    # the projection is defined on 3-strand words too
    assert gl2_image(BraidWord(3, (1,))) == Mat2(1, 1, 0, 1)
    assert gl2_image(BraidWord(3, (2,))) == Mat2(1, 0, -1, 1)
    assert gl2_image(delta(3) ** 6).det == 1


def test_matrix_image_separates_short_positive_words():
    # words over {s1, s2^-1} map one-to-one onto the monoid they generate
    seen: dict[Mat2, tuple[int, ...]] = {}
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(9):
        next_frontier = []
        for letters in frontier:
            m = gl2_image(BraidWord(4, letters))
            assert m not in seen or seen[m] == letters
            if m not in seen:
                seen[m] = letters
                next_frontier.append(letters)
        frontier = [l + (g,) for l in next_frontier for g in (1, -2)]
    assert len(seen) == 511


def test_to_b3():
    q = to_b3(BraidWord(4, (1, 2, 3, -4)))
    assert q.strands == 3
    assert q.letters == (1, 2, 1, -1, -2, -1, 2, 1)
    assert to_b3(BraidWord(4, (1,))).letters == (1,)
    assert to_b3(BraidWord(4, (3,))).letters == (1,)
    assert to_b3(BraidWord(4, (2,))).letters == (2,)
    assert to_b3(BraidWord(4, (4,))).letters == (-1, -2, 1, 2, 1)
    # kernel elements: s1 s3^-1 and the full twist land in the kernel targets
    assert braid_equal(to_b3(BraidWord(4, (1, -3))), BraidWord(3))
    assert braid_equal(to_b3(delta(4) ** 4), delta(3) ** 6)


_THREE = BraidWord(3, (1,))


@pytest.mark.parametrize("function, args, message", [
    (braid_equal, (BraidWord(4), _THREE), "cannot compare braids on different strand counts"),
    (braid_equal, (_THREE, BraidWord(4)), "cannot compare braids on different strand counts"),
    (eq_mod_center, (_THREE, _THREE), "equality modulo the center applies to four-strand braids"),
    (eq_mod_center, (BraidWord(4), _THREE), "equality modulo the center applies to four-strand braids"),
    (omega, (_THREE,), "the mirror involution lives on four strands"),
    (ExtBraid, (_THREE,), "extended elements carry four-strand braids"),
    (f2_action, (_THREE,), "the rank-two action is defined on four strands"),
    (to_b3, (_THREE,), "only four-strand words collapse to three strands"),
    (satisfies_path_conditions, (((0, 0), (-1, 0)), -1, 0), "path conditions apply to the first quadrant"),
    (satisfies_path_conditions, (((0, 0), (0, -1)), 0, -1), "path conditions apply to the first quadrant"),
], ids=[
    "braid_equal-4-3", "braid_equal-3-4", "eq_mod_center-3-3", "eq_mod_center-4-3", "omega", "ExtBraid",
    "f2_action", "to_b3", "path-to-the-west", "path-to-the-south",
])
def test_guards_name_what_they_refuse(function, args, message):
    with pytest.raises(ValueError) as info:
        function(*args)
    assert str(info.value) == message


def test_acts_by_inner():
    assert acts_by_inner(BraidWord(4, (1, -3)))
    assert acts_by_inner(BraidWord(4, (2, 1, -3, -2)))
    assert acts_by_inner(delta(4) ** 4)
    assert not acts_by_inner(BraidWord(4, (1,)))
    assert not acts_by_inner(BraidWord(4, (1, 3)))


def test_embed_sturmian():
    w = embed_sturmian(parse_sturmian("G D Gt Dt"))
    assert w.letters == (1, -2, 3, -4)
    assert embed_sturmian(()) == BraidWord(4)
    with pytest.raises(ValueError):
        embed_sturmian(parse_sturmian("E"))
    with pytest.raises(ValueError):
        embed_sturmian(parse_sturmian("G'"))


def test_embed_sturmian_section():
    rng = random.Random(55)
    for _ in range(100):
        word = tuple((rng.choice(("G", "Gt", "D", "Dt")), 1) for _ in range(rng.randint(0, 6)))
        assert f2_action(embed_sturmian(word)) == eval_sturmian(word)


def test_from_aut_generator():
    e = from_aut_generator("E")
    assert e.flag == 1 and e.braid == BraidWord(4)
    dt = from_aut_generator("Dt")
    assert dt.flag == 0 and dt.braid.letters == (-4,)
    o = from_aut_generator("O")
    assert o.flag == 1
    assert o.equal(ExtBraid.mirror() * ExtBraid(delta(4)))
    with pytest.raises(ValueError):
        from_aut_generator("G2")
    for name in ("E", "Dt", "O"):
        assert f2_action_ext(from_aut_generator(name)) == generator(name), name


def test_suite_registry():
    assert SUITE_NAMES == (
        "eq1.11-in-ext",
        "eq1.7",
        "eq1.9-1.10",
        "eq2.1",
        "eq2.2",
        "eq2.3-2.4",
        "fg-identity",
        "lemma1.1",
        "lemma1.2",
        "lemma1.3",
        "remark1.4",
    )
    with pytest.raises(ValueError):
        relation_suite("nope")
    with pytest.raises(ValueError):
        relation_suite("eq2.1", kmax=-1)
    # each doubling of kmax costs the power suites 3-4x: eq2.2 takes 0.16 s at 256, 1.9 s at 1024
    assert KMAX_LIMIT == 256
    for name in ("eq2.3-2.4", "lemma1.1"):
        with pytest.raises(ValueError, match="kmax must be at most 256"):
            relation_suite(name, kmax=KMAX_LIMIT + 1)
        for kmax in (2.5, "3", None, True):
            with pytest.raises(ValueError, match="kmax must be an integer"):
                relation_suite(name, kmax=kmax)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_relation_suites_pass(name):
    results = relation_suite(name, kmax=8)
    assert results, name
    for label, ok in results:
        assert ok, f"{name}: {label}"


# The suites written out, each relation once as a label and once as an
# expression built without the label evaluator: the oracle for relation_suite.

def _b(*letters: int) -> BraidWord:
    return BraidWord(4, letters)


def _suite_aut_triples() -> list[tuple[str, bool]]:
    G, Gt, D, Dt, E = map(generator, ("G", "Gt", "D", "Dt", "E"))
    Di, Dti = map(generator_inverse, ("D", "Dt"))
    return [
        ("G D' G = D' G D'", G * Di * G == Di * G * Di),
        ("D' Gt D' = Gt D' Gt", Di * Gt * Di == Gt * Di * Gt),
        ("G Gt = Gt G", G * Gt == Gt * G),
        ("Gt Dt' Gt = Dt' Gt Dt'", Gt * Dti * Gt == Dti * Gt * Dti),
        ("Dt' G Dt' = G Dt' G", Dti * G * Dti == G * Dti * G),
        ("D Dt = Dt D", D * Dt == Dt * D),
        ("G D Gt = Gt Dt G", G * D * Gt == Gt * Dt * G),
        ("D G Dt = Dt Gt D", D * G * Dt == Dt * Gt * D),
        ("E E = id", E * E == F2Morphism.identity()),
        ("D = E G E", D == E * G * E),
        ("Dt = E Gt E", Dt == E * Gt * E),
    ]


def _suite_cyclic_generators() -> list[tuple[str, bool]]:
    d = delta()
    return [
        ("d s4 d' = s1", braid_equal(d * _b(4) * d.inverse(), _b(1))),
        ("s1 s2 s3 = d", braid_equal(_b(1, 2, 3), d)),
        ("s2 s3 s4 = d", braid_equal(_b(2, 3, 4), d)),
        ("s3 s4 s1 = d", braid_equal(_b(3, 4, 1), d)),
        ("s4 s1 s2 = d", braid_equal(_b(4, 1, 2), d)),
        ("s2 s4 = s4 s2", braid_equal(_b(2, 4), _b(4, 2))),
        ("s3 s4 s3 = s4 s3 s4", braid_equal(_b(3, 4, 3), _b(4, 3, 4))),
        ("s4 s1 s4 = s1 s4 s1", braid_equal(_b(4, 1, 4), _b(1, 4, 1))),
    ]


def _suite_mirror() -> list[tuple[str, bool]]:
    checks = [
        ("w(w(s%d)) = s%d" % (i, i), braid_equal(omega(omega(_b(i))), _b(i)))
        for i in (1, 2, 3, 4)
    ]
    checks.append(("w(s4) = s3'", braid_equal(omega(_b(4)), _b(-3))))
    checks.append(("w(d) = d'", braid_equal(omega(delta()), delta().inverse())))
    return checks


def _suite_presentation_b4() -> list[tuple[str, bool]]:
    d = delta()
    return [
        ("s1 s2 s1 = s2 s1 s2", braid_equal(_b(1, 2, 1), _b(2, 1, 2))),
        ("s2 s3 s2 = s3 s2 s3", braid_equal(_b(2, 3, 2), _b(3, 2, 3))),
        ("s1 s3 = s3 s1", braid_equal(_b(1, 3), _b(3, 1))),
        ("s4 = d s3 d'", braid_equal(_b(4), d * _b(3) * d.inverse())),
        ("s4 = s3' s1 s2 s3 s1'", braid_equal(_b(4), _b(-3, 1, 2, 3, -1))),
        ("s4 = s1 s2 s3 s2' s1'", braid_equal(_b(4), _b(1, 2, 3, -2, -1))),
        ("s2 s4 = s4 s2", braid_equal(_b(2, 4), _b(4, 2))),
        ("s3 s4 s3 = s4 s3 s4", braid_equal(_b(3, 4, 3), _b(4, 3, 4))),
        ("s4 s1 s4 = s1 s4 s1", braid_equal(_b(4, 1, 4), _b(1, 4, 1))),
    ]


def _suite_mirror_conjugation() -> list[tuple[str, bool]]:
    w = ExtBraid.mirror()

    def lift(bw: BraidWord) -> ExtBraid:
        return ExtBraid(bw, 0)

    d = delta()
    return [
        ("w w = 1", (w * w).equal(ExtBraid.identity())),
        ("w s1 = s2' w", (w * lift(_b(1))).equal(lift(_b(-2)) * w)),
        ("w s2 = s1' w", (w * lift(_b(2))).equal(lift(_b(-1)) * w)),
        ("w s3 = s4' w", (w * lift(_b(3))).equal(lift(_b(-4).expand()) * w)),
        ("w d = d' w", (w * lift(d)).equal(lift(d.inverse()) * w)),
    ]


def _suite_involution_lifts() -> list[tuple[str, bool]]:
    gE = from_aut_generator("E")
    gO = from_aut_generator("O")
    gDt = from_aut_generator("Dt")
    one = ExtBraid.identity()

    def prod(*els: ExtBraid) -> ExtBraid:
        out = ExtBraid.identity()
        for e in els:
            out = out * e
        return out

    return [
        ("gE gE = 1", prod(gE, gE).equal_mod_center(one)),
        ("gO gO = 1", prod(gO, gO).equal_mod_center(one)),
        (
            "(gE gO gE gDt)^2 = 1",
            prod(gE, gO, gE, gDt, gE, gO, gE, gDt).equal_mod_center(one),
        ),
        (
            "(gO gDt)^2 = (gDt gO)^2",
            prod(gO, gDt, gO, gDt).equal_mod_center(prod(gDt, gO, gDt, gO)),
        ),
        ("(gE gO)^4 = 1", prod(*([gE, gO] * 4)).equal_mod_center(one)),
        ("(gDt gO gE)^3 = 1", prod(*([gDt, gO, gE] * 3)).equal_mod_center(one)),
    ]


def _suite_exchange_powers(kmax: int) -> list[tuple[str, bool]]:
    G, Gt, E = map(generator, ("G", "Gt", "E"))
    checks = [("E E = id", E * E == F2Morphism.identity())]
    for k in range(kmax + 1):
        checks.append(
            (
                "G E G^%d E Gt = Gt E Gt^%d E G" % (k, k),
                G * E * G ** k * E * Gt == Gt * E * Gt ** k * E * G,
            )
        )
    return checks


def _suite_shear_powers(kmax: int) -> list[tuple[str, bool]]:
    G, Gt, D, Dt = map(generator, ("G", "Gt", "D", "Dt"))
    checks = []
    for k in range(kmax + 1):
        checks.append(
            ("G D^%d Gt = Gt Dt^%d G" % (k, k), G * D ** k * Gt == Gt * Dt ** k * G)
        )
        checks.append(
            ("D G^%d Dt = Dt Gt^%d D" % (k, k), D * G ** k * Dt == Dt * Gt ** k * D)
        )
    return checks


def _suite_braid_powers(kmax: int) -> list[tuple[str, bool]]:
    checks = []
    for k in range(kmax + 1):
        checks.append(
            (
                "s1 s2^-%d s3 = s3 s4^-%d s1" % (k, k),
                braid_equal(_b(1) * _b(-2) ** k * _b(3), _b(3) * _b(-4) ** k * _b(1)),
            )
        )
        checks.append(
            (
                "s2' s1^%d s4' = s4' s3^%d s2'" % (k, k),
                braid_equal(
                    _b(-2) * _b(1) ** k * _b(-4), _b(-4) * _b(3) ** k * _b(-2)
                ),
            )
        )
    return checks


def _theta(w: BraidWord) -> BraidWord:
    # the homomorphism inverting every Artin generator; letterwise
    # negation after expansion, NOT word inversion
    return BraidWord(w.strands, tuple(-l for l in w.expand().letters))


def _suite_mirror_as_conjugation() -> list[tuple[str, bool]]:
    c = _b(1, 2, 1)
    checks = []
    for i in (1, 2, 3, 4):
        checks.append(
            (
                "w(s%d) = (s1 s2 s1) th(s%d) (s1 s2 s1)'" % (i, i),
                braid_equal(omega(_b(i)), c * _theta(_b(i)) * c.inverse()),
            )
        )
    checks.append(
        (
            "w(delta) = (s1 s2 s1) th(delta) (s1 s2 s1)'",
            braid_equal(omega(delta(4)), c * _theta(delta(4)) * c.inverse()),
        )
    )
    return checks


def _suite_lift_sections() -> list[tuple[str, bool]]:
    return [
        (
            "f(g(%s)) = %s" % (name, name),
            f2_action_ext(from_aut_generator(name)) == generator(name),
        )
        for name in ("E", "Dt", "O")
    ]


# suites of fixed relations, then suites of relations for every exponent up to kmax
_SUITES = {
    "lemma1.1": _suite_aut_triples,
    "lemma1.2": _suite_cyclic_generators,
    "lemma1.3": _suite_mirror,
    "eq1.7": _suite_presentation_b4,
    "eq1.9-1.10": _suite_mirror_conjugation,
    "eq1.11-in-ext": _suite_involution_lifts,
    "remark1.4": _suite_mirror_as_conjugation,
    "fg-identity": _suite_lift_sections,
}
_POWER_SUITES = {
    "eq2.1": _suite_exchange_powers,
    "eq2.2": _suite_shear_powers,
    "eq2.3-2.4": _suite_braid_powers,
}


def _reference_suite(name: str, kmax: int) -> list[tuple[str, bool]]:
    if name in _POWER_SUITES:
        return _POWER_SUITES[name](kmax)
    return _SUITES[name]()


@pytest.mark.parametrize("kmax", [0, 3, 12])
def test_relation_suites_match_the_written_out_suites(kmax):
    assert sorted([*_SUITES, *_POWER_SUITES]) == list(SUITE_NAMES)
    for name in SUITE_NAMES:
        assert relation_suite(name, kmax) == _reference_suite(name, kmax), name


def test_relation_labels_are_evaluated(monkeypatch):
    def verdicts(domain, compare, *labels):
        monkeypatch.setitem(_RELATIONS, "lemma1.1", (domain, compare, labels, ()))
        return [ok for _, ok in relation_suite("lemma1.1")]

    false_braids = ("s1 s2 = s2 s1", "w s1 = s1 w", "w(d) = d", "s1 s2^-1 s3 = s3 s4^-2 s1")
    assert verdicts(_braid_domain, ExtBraid.equal, *false_braids) == [False] * 4
    assert verdicts(_braid_domain, ExtBraid.equal_mod_center, "(gE gO)^2 = 1") == [False]
    false_auts = ("G D = D G", "G D^2 Gt = Gt Dt^3 G", "f(g(E)) = O")
    assert verdicts(_aut_domain, operator.eq, *false_auts) == [False] * 3
    true_braids = ("d = delta", "s1 s3 = s1 s3 s4 s4'", "s2^-2 = s2' s2'", "(w s1)^-1 = s1' w")
    assert verdicts(_braid_domain, ExtBraid.equal, *true_braids) == [True] * 4
