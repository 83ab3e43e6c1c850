"""Independent reference computations for the benchmark's output checks.

Everything here works on plain strings, integer tuples and 2x2 integer
matrices, and imports nothing from ``ranktwo``: an expected answer must
never come from the function under test.  Words are strings over
``a, b, A, B`` (capital = inverse); braid words are tuples of nonzero
integers in -4..4.
"""

from __future__ import annotations

import math

Mat = tuple[int, int, int, int]  # row-major [[a, b], [c, d]]


def reduce(s: str) -> str:
    """Free reduction by a stack of letters."""
    out: list[str] = []
    for ch in s:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def join(u: str, v: str) -> str:
    """Product of two reduced words: cancellation happens only at the seam."""
    k, m = 0, min(len(u), len(v))
    while k < m and u[len(u) - 1 - k] == v[k].swapcase():
        k += 1
    return u[:len(u) - k] + v[k:]


def inverse(s: str) -> str:
    return s[::-1].swapcase()


def cyclic_core(s: str) -> str:
    """The cyclically reduced core of a reduced word."""
    i, j = 0, len(s)
    while j - i >= 2 and s[i] == s[j - 1].swapcase():
        i += 1
        j -= 1
    return s[i:j]


def abelianization(s: str) -> tuple[int, int]:
    return s.count("a") - s.count("A"), s.count("b") - s.count("B")


def is_basis(u: str, v: str) -> bool:
    """Nielsen's criterion: [u, v] is conjugate to [a, b] or its inverse.

    The conjugates of abAB and baBA of length four are exactly their
    cyclic rotations, so one substring test on the doubled word decides.
    """
    core = cyclic_core(reduce(u + v + inverse(u) + inverse(v)))
    return len(core) == 4 and (core in "abABabAB" or core in "baBAbaBA")


def christoffel(p: int, q: int) -> str:
    """The lower Christoffel word of a primitive vector, any quadrant.

    First quadrant: the k-th step of the path from (0, 0) to (p, q) is
    up (``b``) exactly when it crosses a horizontal lattice line.  The
    other quadrants by definition: invert the word of (|p|, |q|) when
    p < 0, then flip the sign of b (``b <-> B``) where its exponent sum
    still has the wrong sign.
    """
    n = abs(p) + abs(q)
    letters = []
    for k in range(1, n + 1):
        letters.append("b" if (k * abs(q)) // n != ((k - 1) * abs(q)) // n else "a")
    word = "".join(letters)
    if p < 0:
        word = inverse(word)
    if (p < 0) != (q < 0):
        word = word.translate(_FLIP_B)
    return word


_FLIP_B = str.maketrans("bB", "Bb")

# The seven named automorphisms and their inverses, by the images of a and b.
IMAGES = {
    ("D", 1): ("ba", "b"),
    ("D", -1): ("Ba", "b"),
    ("Dt", 1): ("ab", "b"),
    ("Dt", -1): ("aB", "b"),
    ("G", 1): ("a", "ab"),
    ("G", -1): ("a", "Ab"),
    ("Gt", 1): ("a", "ba"),
    ("Gt", -1): ("a", "bA"),
    ("E", 1): ("b", "a"),
    ("E", -1): ("b", "a"),
    ("O", 1): ("A", "b"),
    ("O", -1): ("A", "b"),
    ("T", 1): ("a", "B"),
    ("T", -1): ("a", "B"),
}


def apply_images(images: tuple[str, str], s: str) -> str:
    """Apply the endomorphism a -> images[0], b -> images[1] to a word."""
    ia, ib = images
    table = {"a": ia, "A": inverse(ia), "b": ib, "B": inverse(ib)}
    return reduce("".join(table[ch] for ch in s))


def images_matrix(images: tuple[str, str]) -> Mat:
    """Columns are the abelianized images of a and b."""
    (p, q), (r, s) = abelianization(images[0]), abelianization(images[1])
    return (p, r, q, s)


def mat_mul(x: Mat, y: Mat) -> Mat:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def mat_inverse(m: Mat) -> Mat:
    det = m[0] * m[3] - m[1] * m[2]
    if det not in (1, -1):
        raise ValueError("not invertible over the integers")
    return (m[3] * det, -m[1] * det, -m[2] * det, m[0] * det)


def mat_apply(m: Mat, vec: tuple[int, int]) -> tuple[int, int]:
    return m[0] * vec[0] + m[1] * vec[1], m[2] * vec[0] + m[3] * vec[1]


def unimodular_split(x: int, y: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The first-quadrant pair U, V with U + V = (x, y) and det(U, V) = 1.

    (x, y) must be coprime with x, y >= 1; U = (p, q) solves
    p*y - q*x = 1 with 0 <= p <= x.
    """
    if math.gcd(x, y) != 1 or min(x, y) < 1:
        raise ValueError("expected a coprime pair of positive integers")
    p = 1 if x == 1 else pow(y, -1, x)
    q = (p * y - 1) // x
    return (p, q), (x - p, y - q)


# ---------------------------------------------------------------- braids

SIGMA4 = {4: (-3, -2, 1, 2, 3), -4: (-3, -2, -1, 2, 3)}

# rank-two action of the letters 1..3: 1 -> G, 2 -> D^-1, 3 -> Gt
F2_LETTER = {
    1: ("G", 1),
    -1: ("G", -1),
    2: ("D", -1),
    -2: ("D", 1),
    3: ("Gt", 1),
    -3: ("Gt", -1),
}

_R = (1, 1, 0, 1)
_R_INV = (1, -1, 0, 1)
_L = (1, 0, 1, 1)
_L_INV = (1, 0, -1, 1)
SHEAR = {1: _R, -1: _R_INV, 2: _L_INV, -2: _L, 3: _R, -3: _R_INV}


def expand(letters: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for l in letters:
        out.extend(SIGMA4.get(l, (l,)))
    return tuple(out)


def exponent_sum(letters: tuple[int, ...]) -> int:
    return sum(1 if l > 0 else -1 for l in letters)


def braid_f2_apply(letters: tuple[int, ...], s: str) -> str:
    """The rank-two action of a braid on a word.

    The braid acts as g1 g2 ... gn composed like maps, so the last
    letter's morphism is applied to the word first.
    """
    for l in reversed(expand(letters)):
        s = apply_images(IMAGES[F2_LETTER[l]], s)
    return s


def shear_product(letters: tuple[int, ...]) -> Mat:
    out: Mat = (1, 0, 0, 1)
    for l in expand(letters):
        out = mat_mul(out, SHEAR[l])
    return out


# Relations of B4 in the band generators 1..4 (4 = delta s3 delta^-1).
BRAID_PAIRS = ((1, 2), (2, 3), (3, 4), (4, 1))  # s_i s_j s_i = s_j s_i s_j
COMMUTING = ((1, 3), (2, 4))
DELTA_WORDS = ((1, 2, 3), (2, 3, 4), (3, 4, 1), (4, 1, 2))  # each spells delta


def artin_step(images: list[str], letter: int) -> None:
    """Compose the action in `images` (of x1..x4) with one letter, in place.

    Generator i > 0 sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i;
    a braid word acts by composing its letters like maps, so appending a
    letter substitutes the current images into that generator's images.
    """
    for l in SIGMA4.get(letter, (letter,)):
        i = abs(l) - 1
        lo, hi = images[i], images[i + 1]
        if l > 0:
            images[i], images[i + 1] = join(join(lo, hi), inverse(lo)), lo
        else:
            images[i], images[i + 1] = hi, join(join(inverse(hi), lo), hi)
