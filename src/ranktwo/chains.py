"""Conjugation chains of positive word pairs and basis decision procedures.

A pair (u, v) of nonempty positive words advances by one step when u
and v start with the same letter c: both are conjugated by c^-1, which
rotates each word one place to the left.  The finite or infinite chain
through a pair decides whether it is a basis of the free group,
enumerates the cyclically reduced conjugate bases, and locates the
palindromic conjugate when both component lengths are odd.

Facts used throughout: a positive pair is a basis exactly when its
maximal chain is finite of length |u| + |v| - 2; cyclically reduced
conjugates of a positive pair are precisely the members of its chain.
No chain is walked step by step.  It is read off two numbers: how far
u^inf and v^inf agree forward and how far their left-infinite powers
agree backward.  By the Fine-Wilf theorem both are below |u| + |v| - 1
unless u and v commute, which is exactly when the chain is infinite.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .morphisms import SturmianWord, generator
from .words import FreeWord, _common_prefix, _inverted, _shown, commutator

_T = generator("T")

WordPair = tuple[FreeWord, FreeWord]

TraceStep = tuple[str | int, ...]


class NotABasisError(ValueError):
    pass


class NotCyclicallyReducedError(ValueError):
    pass


class EvenLengthError(ValueError):
    pass


class NotStandardPairError(ValueError):
    pass


def _check_rank_two(u: FreeWord, v: FreeWord) -> None:
    if u.rank != 2 or v.rank != 2:
        raise ValueError("expected words of rank 2")


def _check_positive_pair(u: FreeWord, v: FreeWord) -> None:
    _check_rank_two(u, v)
    if not (u and v and u.is_positive and v.is_positive):
        raise ValueError("expected a pair of nonempty positive words")


def _check_cyclically_reduced(u: FreeWord, v: FreeWord) -> None:
    if not (u.is_cyclically_reduced and v.is_cyclically_reduced):
        raise NotCyclicallyReducedError("expected cyclically reduced words")


def _rotation(su: str, sv: str, k: int) -> WordPair:
    """Both words rotated k places to the left, or -k to the right."""
    return FreeWord._make(_rotated(su, k)), FreeWord._make(_rotated(sv, k))


def _rotated(s: str, k: int) -> str:
    """s rotated k places to the left, or -k to the right."""
    k %= len(s) or 1
    return s[k:] + s[:k]


def step_forward(u: FreeWord, v: FreeWord) -> WordPair | None:
    """Rotate both words left when they share a first letter, else None."""
    _check_positive_pair(u, v)
    su, sv = u.letters, v.letters
    return _rotation(su, sv, 1) if su[0] == sv[0] else None


def step_backward(u: FreeWord, v: FreeWord) -> WordPair | None:
    """Rotate both words right when they share a last letter, else None."""
    _check_positive_pair(u, v)
    su, sv = u.letters, v.letters
    return _rotation(su, sv, -1) if su[-1] == sv[-1] else None


class MaximalChain:
    """A maximal run of chain steps; ``pairs`` is None for an infinite chain."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: tuple[WordPair, ...] | None) -> None:
        self._pairs = pairs

    @property
    def pairs(self) -> tuple[WordPair, ...] | None:
        return self._pairs

    def __repr__(self) -> str:
        return "MaximalChain(pairs=%r)" % (self._pairs,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaximalChain) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    @property
    def is_infinite(self) -> bool:
        return self.pairs is None

    @property
    def length(self) -> int:
        """The number of arrows in a finite chain."""
        if self.pairs is None:
            raise ValueError("an infinite chain has no length")
        return len(self.pairs) - 1


def _chain_span(su: str, sv: str) -> tuple[int, int] | None:
    """Steps (back, forward) from (su, sv) to the two ends of its chain.

    The members are the simultaneous rotations by -back..forward, so
    the chain has back + forward arrows; None when the words commute
    and the chain is infinite.  Otherwise, by Fine and Wilf, neither
    run of agreeing letters reaches len(su) + len(sv) - 1.
    """
    uv, vu = su + sv, sv + su
    if uv == vu:
        return None
    # u^inf and v^inf agree on exactly the common prefix of uv and vu,
    # and their left-infinite powers on the common suffix
    return _common_prefix(uv[::-1], vu[::-1]), _common_prefix(uv, vu)


def maximal_chain(u: FreeWord, v: FreeWord) -> MaximalChain:
    """The full chain through a positive pair, or the infinite marker.

    It holds up to (|u| + |v|)^2 letters: about 2 GB at 46,368 letters.
    """
    _check_positive_pair(u, v)
    su, sv = u.letters, v.letters
    span = _chain_span(su, sv)
    if span is None:
        return MaximalChain(None)
    back, forward = span
    return MaximalChain(tuple(_rotation(su, sv, k) for k in range(-back, forward + 1)))


def _basis_offset(span: tuple[int, int] | None, length: int) -> int | None:
    """Steps back to the left end of a basis's chain, from its span and
    |u| + |v|; None for a non-basis."""
    if span is None or sum(span) != length - 2:
        return None
    return span[0]


def is_basis_positive(u: FreeWord, v: FreeWord) -> bool:
    """The chain criterion for a positive pair."""
    _check_positive_pair(u, v)
    su, sv = u.letters, v.letters
    return _basis_offset(_chain_span(su, sv), len(su) + len(sv)) is not None


# the cyclic rotations of the commutator of the generators and of its inverse
_BASE_COMMUTATORS = frozenset(
    s[i:] + s[:i] for s in ("abAB", "baBA") for i in range(4)
)


def nielsen_dehn_oracle(u: FreeWord, v: FreeWord) -> bool:
    """Independent basis test: the commutator is conjugate to that of the generators."""
    _check_rank_two(u, v)
    core, _ = commutator(u, v).cyclic_reduce()
    return core.letters in _BASE_COMMUTATORS


class BasisVerdict(NamedTuple):
    """Outcome of the general basis decision, with a replayable trace."""

    is_basis: bool
    reason: str
    trace: tuple[TraceStep, ...]


# the involution of F2 that moves each closed quadrant of Z^2, given by
# its sign pattern, onto the first, with its name in the trace; tried
# in this order
_QUADRANT_MAPS = (
    ((1, 1), "id", lambda w: w),
    ((-1, 1), "T-inv", lambda w: _T(w.inverse())),
    ((-1, -1), "inv", FreeWord.inverse),
    ((1, -1), "T", _T),
)


def _quadrant_map(
    a: tuple[int, int], b: tuple[int, int]
) -> tuple[str, Callable[[FreeWord], FreeWord]] | None:
    """The map taking both points into the closed first quadrant, or None."""
    for (sp, sq), name, involution in _QUADRANT_MAPS:
        if a[0] * sp >= 0 and a[1] * sq >= 0 and b[0] * sp >= 0 and b[1] * sq >= 0:
            return name, involution
    return None


# (u', v', back, unmap) for a pair that passes the chain criterion
_Normalized = tuple[str, str, int, Callable[[WordPair], WordPair]]


def _normalized(
    u: FreeWord, v: FreeWord, trace: list[TraceStep]
) -> _Normalized | str:
    """Steps two to four of the decision on a cyclically reduced pair.

    Moves the pair into the first quadrant, requires it to be positive
    and applies the chain criterion, appending each step to trace.
    Returns (u', v', back, unmap), back being the steps to the left end
    of the chain and unmap the way from a normalized pair back to the
    input's quadrant, or the reason the pair is no basis.
    """
    pu, pv = u.abelianization(), v.abelianization()
    if pu == (0, 0) or pv == (0, 0):
        return "a word abelianizes to zero"
    inverted = False
    found = _quadrant_map(pu, pv)
    if found is None:
        found = _quadrant_map(pu, (-pv[0], -pv[1]))
        if found is None:
            return "images share no closed quadrant, even after inverting the second"
        inverted = True
        v = v.inverse()
        trace.append(("invert-second",))
    name, involution = found
    trace.append(("quadrant-map", name))
    u, v = involution(u), involution(v)
    if not (u.is_positive and v.is_positive):
        return "pair is not positive after normalization"
    su, sv = u.letters, v.letters
    trace.append(("positive-pair", su, sv))
    span = _chain_span(su, sv)
    trace.append(("chain-length", "infinite" if span is None else sum(span)))
    back = _basis_offset(span, len(su) + len(sv))
    if back is None:
        return "chain length differs from |u| + |v| - 2"

    def unmap(pair: WordPair) -> WordPair:
        # all four maps are involutions, so applying the map again undoes it
        x, y = involution(pair[0]), involution(pair[1])
        return (x, y.inverse()) if inverted else (x, y)

    return su, sv, back, unmap


_STEPS = {d: ("conjugate", d) for d in "abAB"}


def _conjugated_along(x: str, w: str) -> tuple[int, str]:
    """Conjugate w by the inverse of each letter of x while that does not lengthen w.

    Returns how many letters of x are used and w after them.  w loses
    a letter at each end while it starts with x and ends with x^-1,
    then rotates one way while x runs along the periodic extension of
    w or of w^-1; an empty w stays empty.
    """
    c = min(_common_prefix(x, w), _common_prefix(x, _inverted(w)))
    w = w[c : len(w) - c]
    if not w:
        return len(x), w
    rest = x[c:]
    reps = len(rest) // len(w) + 1
    left = _common_prefix(rest, w * reps)
    right = _common_prefix(rest, _inverted(w) * reps)
    return (c + left, _rotated(w, left)) if left >= right else (c + right, _rotated(w, -right))


def _conjugated_down(u: FreeWord, v: FreeWord, trace: list[TraceStep]) -> WordPair | None:
    """Conjugate the pair by forced letters until both words are cyclically reduced.

    Appends a ("conjugate", d) step to trace per letter d and returns
    the reduced pair, or None once the forced letter does not shorten
    the pair.  With u = x core x^-1 the letters are those of x
    inverted, while v follows; then those of v's new conjugator
    inverted, while the core of u rotates.
    """
    core, x = u.cyclic_reduce()
    run, sv = _conjugated_along(x.letters, v.letters)
    trace.extend(map(_STEPS.__getitem__, x.letters[:run].swapcase()))
    if run < len(x):
        return None
    core_v, y = FreeWord._make(sv).cyclic_reduce()
    run, su = _conjugated_along(y.letters, core.letters)
    trace.extend(map(_STEPS.__getitem__, y.letters[:run].swapcase()))
    if run < len(y):
        return None
    return FreeWord._make(su), core_v


def is_basis(u: FreeWord, v: FreeWord) -> BasisVerdict:
    """Decide whether (u, v) generates the whole free group.

    The decision conjugates the pair until cyclically reduced, moves the
    abelianized images into the first quadrant (inverting v if needed),
    requires the outcome to be positive, and applies the chain
    criterion.  Every normalization move lands in the trace, so a
    positive verdict can be replayed back to the input.

    Each conjugation is forced: only conjugating a word that is not
    cyclically reduced by its own last letter shortens it, and any
    other letter lengthens such a word, so the one candidate is the
    last letter of u when u is not cyclically reduced, else that of v.
    The letters are read off common-prefix lengths, so the conjugation
    phase takes O(n) time for n input letters, most of it in C.
    """
    _check_rank_two(u, v)
    trace: list[TraceStep] = []
    if not (u.is_cyclically_reduced and v.is_cyclically_reduced):
        reduced = _conjugated_down(u, v, trace)
        if reduced is None:
            return BasisVerdict(False, "no conjugation shortens the pair", tuple(trace))
        u, v = reduced
    normalized = _normalized(u, v, trace)
    if isinstance(normalized, str):
        return BasisVerdict(False, normalized, tuple(trace))
    return BasisVerdict(True, "", tuple(trace))


def _normalized_basis(u: FreeWord, v: FreeWord) -> _Normalized:
    """Normalize a cyclically reduced pair, raising when it is no basis."""
    _check_cyclically_reduced(u, v)
    normalized = _normalized(u, v, [])
    if isinstance(normalized, str):
        raise NotABasisError(normalized)
    return normalized


def conjugate_bases(u: FreeWord, v: FreeWord) -> tuple[WordPair, ...]:
    """All cyclically reduced bases conjugate to (u, v); there are |u| + |v| - 1.

    They hold nearly (|u| + |v|)^2 letters: about 2 GB at 46,368 letters.
    """
    su, sv, back, unmap = _normalized_basis(u, v)
    return tuple(
        unmap(_rotation(su, sv, k)) for k in range(-back, len(su) + len(sv) - 1 - back)
    )


def palindromize(u: FreeWord, v: FreeWord) -> WordPair:
    """The unique palindromic basis conjugate to (u, v).

    Both lengths must be odd: one even length already rules out a
    palindromic conjugate, because the even-length component of a basis
    has even exponent sum on exactly one generator while a palindrome of
    even length has both exponent sums even.
    """
    if len(u) % 2 == 0 or len(v) % 2 == 0:
        raise EvenLengthError("palindromic conjugates need odd length components")
    su, sv, back, unmap = _normalized_basis(u, v)
    return unmap(_rotation(su, sv, (len(u) + len(v)) // 2 - 1 - back))


def _rotation_residue(s: str, t: str) -> tuple[int, int] | None:
    """(r, p) such that s rotated k places left is t exactly when k = r mod p; None when never.

    p is the primitive period of s, the least rotation that fixes it.
    """
    ss = s + s
    r = ss.find(t)
    return None if r < 0 else (r, ss.find(s, 1))


def in_same_chain(
    u: FreeWord, v: FreeWord, u_pos: FreeWord, v_pos: FreeWord
) -> bool:
    """Whether the cyclically reduced pair (u, v) occurs in the chain of (u_pos, v_pos).

    For a finite chain this is exactly simultaneous conjugacy of the
    pairs, tested at every rotation offset the chain spans.  An
    infinite chain pairs powers of one root, so it cycles through all
    of its members within the first |u_pos| rotations.  Each word
    matches only at the offsets of one residue class, so only the
    offsets of the coarser class are tested against the other.
    """
    _check_rank_two(u, v)
    _check_cyclically_reduced(u, v)
    _check_positive_pair(u_pos, v_pos)
    tu, tv = u.letters, v.letters
    su, sv = u_pos.letters, v_pos.letters
    if len(tu) != len(su) or len(tv) != len(sv):
        return False
    residues = (_rotation_residue(su, tu), _rotation_residue(sv, tv))
    if None in residues:
        return False
    (r, p), (r2, p2) = sorted(residues, key=lambda residue: residue[1], reverse=True)
    span = _chain_span(su, sv)
    lo, hi = (0, len(su) - 1) if span is None else (-span[0], span[1])
    return any((k - r2) % p2 == 0 for k in range(lo + (r - lo) % p, hi + 1, p))


def _strip_tree(su: str, sv: str, grow_v: str, grow_u: str) -> list[str] | None:
    """Peel one component off the front of the other until (a, b); None when stuck.

    Each pass peels every whole copy of the shorter word that leaves the
    longer one nonempty, one partial quotient of the slope's continued
    fraction, and records grow_v (v peeled) or grow_u (u peeled) once per
    copy.  Tokens come out in composition order, outermost first.
    """
    out: list[str] = []
    while (su, sv) != ("a", "b"):
        if len(sv) > len(su):
            q = (len(sv) - 1) // len(su)
            if not sv.startswith(su * q):
                return None
            sv = sv[q * len(su):]
            out += [grow_v] * q
        elif len(su) > len(sv):
            q = (len(su) - 1) // len(sv)
            if not su.startswith(sv * q):
                return None
            su = su[q * len(sv):]
            out += [grow_u] * q
        else:
            return None
    out.reverse()
    return out


def standard_pair_decompose(u: FreeWord, v: FreeWord) -> SturmianWord:
    """Write the pair as the generator images of a composition of tree morphisms.

    The result s satisfies eval_sturmian(s) == (a -> u, b -> v).  Both
    component orders and both peeling orientations are attempted; when
    only the swapped order works, a single trailing E records the swap.
    Prefix peeling inverts the tree built from G and D; suffix peeling,
    which is prefix peeling of the reversed words, the one built from Gt
    and Dt.
    """
    _check_positive_pair(u, v)
    su, sv = u.letters, v.letters
    for swapped in (False, True):
        first, second = (sv, su) if swapped else (su, sv)
        for step, grow_v, grow_u in ((1, "G", "D"), (-1, "Gt", "Dt")):
            tokens = _strip_tree(first[::step], second[::step], grow_v, grow_u)
            if tokens is not None:
                word = [(t, 1) for t in tokens]
                if swapped:
                    word.append(("E", 1))
                return tuple(word)
    raise NotStandardPairError(
        "(%s, %s) does not peel down to the generator pair" % (_shown(u), _shown(v))
    )


def sturmian_position(
    u: FreeWord, v: FreeWord
) -> tuple[SturmianWord, int, FreeWord]:
    """Locate a positive basis inside its chain.

    Returns (standard, offset, conjugator) where standard decomposes the
    left end (u0, v0) of the chain, offset is the index of (u, v) in it,
    and the conjugator w is the length-offset prefix of the infinite
    power of u0, so that u == w^-1 u0 w and v == w^-1 v0 w.
    """
    _check_positive_pair(u, v)
    su, sv = u.letters, v.letters
    offset = _basis_offset(_chain_span(su, sv), len(su) + len(sv))
    if offset is None:
        raise NotABasisError("(%s, %s) is not a basis" % (_shown(u), _shown(v)))
    u0, v0 = _rotation(su, sv, -offset)
    s0 = u0.letters
    conjugator = FreeWord._make((s0 * (offset // len(s0) + 1))[:offset])
    return standard_pair_decompose(u0, v0), offset, conjugator
