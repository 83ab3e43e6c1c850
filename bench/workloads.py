"""The three benchmark workloads: seeded inputs, the timed task, its checks.

A task is one user query: a fixed sequence of public ranktwo calls on
one generated input.  Every call goes through ``calls.call(name, fn,
*args)`` so that a traced run can put a span around it.  Expected
answers come from how the input was built or from ``reference``, never
from the function under test; ``check`` returns one ``(span name,
message)`` per wrong output.

Input sizes are stratified: task i of a pool of N draws its size from
the i-th of N equal slices of the log of the size range, and the pool is ordered
so that every prefix spreads evenly over the slices.  Every seed, and
every run however many tasks it gets through, therefore sees the same
size distribution down to its largest inputs; only the words change.
This is what keeps latency percentiles and peak memory steady from seed
to seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from typing import Any, Callable, Iterator, NamedTuple

import reference as ref

Failure = tuple[str, str]


class Library:
    """The ranktwo entry points a task may call, bound after import."""

    def __init__(self, with_cli: bool) -> None:
        import ranktwo

        self.rt = ranktwo
        self.FreeWord = ranktwo.FreeWord
        self.BraidWord = ranktwo.BraidWord
        self._cli_main = None
        if with_cli:
            from ranktwo import cli

            self._cli_main = cli.main

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run the command line in process; returns (exit code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self._cli_main(argv)
        return code, buf.getvalue()


def _stratified_pool(rng: random.Random, count: int, lo: float, hi: float,
                     make: Callable[[random.Random, int, float], Any]) -> list:
    """`count` tasks, one per equal slice of the log of [lo, hi], evenly ordered.

    ``make(rng, rank, size)`` builds the task of the rank-th largest
    size, drawn from its slice.  The pool comes back in spread order.
    """
    step = (math.log(hi) - math.log(lo)) / count
    pool = [make(rng, count - 1 - i, math.exp(math.log(lo) + (i + rng.random()) * step))
            for i in range(count)]
    return [pool[i] for i in _spread_order(count)]


def _spread_order(count: int) -> list[int]:
    """0..count-1 in bit-reversed (van der Corput) order: every prefix is evenly spread."""
    bits = max(1, (count - 1).bit_length())
    order = (int(format(i, "0%db" % bits)[::-1], 2) for i in range(1 << bits))
    return [i for i in order if i < count]


def _reduced_word(rng: random.Random, length: int) -> str:
    out: list[str] = []
    for _ in range(length):
        choices = "abAB" if not out else [c for c in "abAB" if c != out[-1].swapcase()]
        out.append(rng.choice(choices))
    return "".join(out)


def _position_failures(pu: str, pv: str, result: Any) -> list[Failure]:
    """Check sturmian_position(pu, pv) = (standard, offset, w) from its definition."""
    standard, offset, w = result
    name = "chains.sturmian_position"
    if any(exp != 1 or tok not in ("G", "Gt", "D", "Dt", "E") for tok, exp in standard):
        return [(name, "standard word has a bad token")]
    u0, v0 = "a", "b"
    for tok in reversed(standard):
        images = ref.IMAGES[tok]
        u0, v0 = ref.apply_images(images, u0), ref.apply_images(images, v0)
    w = w.letters
    if len(w) != offset:
        return [(name, "conjugator length differs from offset")]
    if u0[-1] == v0[-1]:
        return [(name, "standard pair is not the left end of its chain")]
    wi = ref.inverse(w)
    if ref.reduce(wi + u0 + w) != pu or ref.reduce(wi + v0 + w) != pv:
        return [(name, "conjugated standard pair differs from the input")]
    return []


def _palindrome_failures(pu: str, pv: str, result: Any) -> list[Failure]:
    """A palindromic pair that is a simultaneous rotation of (pu, pv)."""
    x, y = result[0].letters, result[1].letters
    ok = (
        x == x[::-1] and y == y[::-1]
        and len(x) == len(pu) and len(y) == len(pv)
        and x in pu + pu and y in pv + pv
        and ((pu + pu).find(x) - (pv + pv).find(y)) % math.gcd(len(pu), len(pv)) == 0
    )
    return [] if ok else [("chains.palindromize", "not a palindromic conjugate of the pair")]


def _normal_form_failures(vec_u: tuple[int, int], vec_v: tuple[int, int], result: Any) -> list[Failure]:
    expected = (ref.christoffel(*vec_u), ref.christoffel(*vec_v))
    if (result[0].letters, result[1].letters) != expected:
        return [("christoffel.christoffel_normal_form", "not the Christoffel basis of the abelianization")]
    return []


def _tweak(word: Any) -> Any:
    """The same word type with its first letter moved to the end."""
    s = word.letters
    return type(word)(s[1:] + s[:1] if len(s) > 1 else s.swapcase())


# ------------------------------------------------------------ basis-large

class BasisTask(NamedTuple):
    kind: str  # "basis", "det" (|det| = 2) or "unimodular" (non-basis, det 1)
    n: int  # |u| + |v| of the cyclically reduced, normalized pair
    start_u: tuple[int, int]
    start_v: tuple[int, int]
    override: tuple[int, str] | None  # (component, word) replacing a Christoffel word
    autos: tuple[tuple[str, int], ...]
    conjugator: str
    final_u: tuple[int, int]  # abelianization of the built pair
    final_v: tuple[int, int]


_ALL_AUTOS = tuple((name, e) for name in ("D", "Dt", "G", "Gt", "E", "O", "T") for e in (1, -1))
_POSITIVE_AUTOS = tuple((name, 1) for name in ("D", "Dt", "G", "Gt", "E"))
# by rank from the largest input down, so the largest inputs are always bases
_BASIS_KINDS = ("basis", "basis", "det", "basis", "unimodular")
_GOLDEN = (5 ** 0.5 - 1) / 2


def _autos_matrix(autos: tuple[tuple[str, int], ...]) -> ref.Mat:
    m: ref.Mat = (1, 0, 0, 1)
    for tok in autos:
        m = ref.mat_mul(ref.images_matrix(ref.IMAGES[tok]), m)
    return m


def _unimodular_pair(rng: random.Random, n: int, weight: int
                     ) -> tuple[tuple[int, int], tuple[int, int]]:
    """A first-quadrant pair U, V with det 1 and |U| + weight * |V| close to n.

    With weight 1 the total is exactly n.  With weight 2 (V is squared
    later) the best of a few draws within 1% is taken, so that the
    pair's chain walk has the same length as a basis of size n.
    """
    best = None
    for _ in range(200):
        m = n if weight == 1 else rng.randint(n // 2 + 1, n - 1)
        x = rng.randint(1, m - 1)
        if math.gcd(x, m) != 1:
            continue
        u, v = ref.unimodular_split(x, m - x)
        error = abs(m + (weight - 1) * sum(v) - n)
        if best is None or error < best[0]:
            best = (error, u, v)
        if error <= n // 100:
            break
    return best[1], best[2]


def _basis_task(rng: random.Random, rank: int, n: int) -> BasisTask:
    """The task of the rank-th largest size n.

    Kind, number of automorphisms and conjugation depth (as a share of
    n) follow from the rank, so that they too are spread evenly over
    the sizes, the same way for every seed.
    """
    kind = _BASIS_KINDS[rank % len(_BASIS_KINDS)]
    n_autos = rank % 7
    depth = int(n * ((rank * _GOLDEN) % 1.0))
    fu, fv = _unimodular_pair(rng, n, 2 if kind == "det" else 1)
    override = None
    if kind == "unimodular":
        # positive automorphisms keep the pair positive, so the decision
        # reaches the chain walk; the start pair must stay in the first quadrant
        for _ in range(50):
            autos = tuple(rng.choice(_POSITIVE_AUTOS) for _ in range(n_autos))
            inv = ref.mat_inverse(_autos_matrix(autos))
            su, sv = ref.mat_apply(inv, fu), ref.mat_apply(inv, fv)
            if min(su + sv) >= 0:
                break
        else:
            autos, su, sv = (), fu, fv
        words = [ref.christoffel(*su), ref.christoffel(*sv)]
        for comp in rng.sample((0, 1), 2):
            spots = [i for i in range(len(words[comp]) - 1) if words[comp][i] != words[comp][i + 1]]
            rng.shuffle(spots)
            for i in spots[:20]:
                s = words[comp]
                swapped = s[:i] + s[i + 1] + s[i] + s[i + 2:]
                pair = (swapped, words[1]) if comp == 0 else (words[0], swapped)
                if not ref.is_basis(*pair):
                    override = (comp, swapped)
                    break
            if override:
                break
        if override is None:
            return _basis_task(rng, rank, n)
    else:
        # random signs and order: bases from every quadrant (v stays the
        # component a "det" task squares)
        e1, e2 = rng.choice((1, -1)), rng.choice((1, -1))
        fu, fv = (e1 * fu[0], e2 * fu[1]), (e1 * fv[0], e2 * fv[1])
        if kind == "basis" and rng.random() < 0.5:
            fu, fv = fv, fu
        if rng.random() < 0.5:
            fv = (-fv[0], -fv[1])
        while True:
            autos = tuple(rng.choice(_ALL_AUTOS) for _ in range(n_autos))
            inv = ref.mat_inverse(_autos_matrix(autos))
            su, sv = ref.mat_apply(inv, fu), ref.mat_apply(inv, fv)
            if sum(map(abs, su + sv)) <= 3 * n:
                break
        if kind == "det":
            fv = (2 * fv[0], 2 * fv[1])
    conjugator = _reduced_word(rng, depth)
    return BasisTask(kind, n, su, sv, override, autos, conjugator, fu, fv)


class BasisLarge:
    """Large pairs: automorphic images of Christoffel bases, and non-bases, conjugated."""

    name = "basis-large"
    uses_cli = False
    tampers = ("flipped verdict", "wrong chain member", "wrong palindromic member", "wrong normal form")
    pool_size = 1000

    def inputs(self, seed: int) -> list[BasisTask]:
        return _stratified_pool(random.Random(seed), self.pool_size, 30, 6000, self._task)

    def warmup_inputs(self) -> list[BasisTask]:
        return _stratified_pool(random.Random("warm-up"), 10, 30, 60, self._task)

    @staticmethod
    def _task(rng: random.Random, rank: int, size: float) -> BasisTask:
        return _basis_task(rng, rank, round(size))

    def run(self, lib: Library, calls: Any, t: BasisTask) -> dict[str, Any]:
        rt, FreeWord = lib.rt, lib.FreeWord
        u, v = calls.call("christoffel.christoffel_basis", rt.christoffel_basis, t.start_u, t.start_v)
        if t.override is not None:
            w = calls.call("words.FreeWord", FreeWord, t.override[1])
            u, v = (w, v) if t.override[0] == 0 else (u, w)
        if t.kind == "det":
            v = calls.call("words.mul", FreeWord.__mul__, v, v)
        for name, exp in t.autos:
            if exp == 1:
                m = calls.call("morphisms.generator", rt.generator, name)
            else:
                m = calls.call("morphisms.generator_inverse", rt.generator_inverse, name)
            u = calls.call("morphisms.apply", m, u)
            v = calls.call("morphisms.apply", m, v)
        x = calls.call("words.FreeWord", FreeWord, t.conjugator)
        u = calls.call("words.conjugated_by", FreeWord.conjugated_by, u, x)
        v = calls.call("words.conjugated_by", FreeWord.conjugated_by, v, x)
        verdict = calls.call("chains.is_basis", rt.is_basis, u, v)
        out: dict[str, Any] = {
            "verdict": verdict.is_basis,
            "oracle": calls.call("chains.nielsen_dehn_oracle", rt.nielsen_dehn_oracle, u, v),
        }
        if verdict.is_basis:
            out["normal_form"] = calls.call(
                "christoffel.christoffel_normal_form", rt.christoffel_normal_form, u, v)
            _, su, sv = next(step for step in verdict.trace if step[0] == "positive-pair")
            pu = calls.call("words.FreeWord", FreeWord, su)
            pv = calls.call("words.FreeWord", FreeWord, sv)
            out["positive"] = (su, sv)
            out["position"] = calls.call("chains.sturmian_position", rt.sturmian_position, pu, pv)
            if len(su) % 2 and len(sv) % 2:
                out["palindrome"] = calls.call("chains.palindromize", rt.palindromize, pu, pv)
        return out

    def check(self, t: BasisTask, out: dict[str, Any]) -> list[Failure]:
        expected = t.kind == "basis"
        fails: list[Failure] = []
        if out["verdict"] != expected:
            fails.append(("chains.is_basis", "verdict %s, expected %s" % (out["verdict"], expected)))
        if out["oracle"] != expected:
            fails.append(("chains.nielsen_dehn_oracle", "oracle %s, expected %s" % (out["oracle"], expected)))
        if not (expected and out["verdict"]):
            return fails
        fails += _normal_form_failures(t.final_u, t.final_v, out["normal_form"])
        su, sv = out["positive"]
        if not (su.islower() and sv.islower() and len(su) + len(sv) == t.n and ref.is_basis(su, sv)):
            fails.append(("chains.is_basis", "trace holds no positive basis of length %d" % t.n))
            return fails
        fails += _position_failures(su, sv, out["position"])
        if len(su) % 2 and len(sv) % 2:
            fails += _palindrome_failures(su, sv, out["palindrome"])
        return fails

    def tampered(self, out: dict[str, Any]) -> Iterator[tuple[str, dict[str, Any]]]:
        yield "flipped verdict", {**out, "verdict": not out["verdict"]}
        if "position" in out:
            standard, offset, w = out["position"]
            yield "wrong chain member", {**out, "position": (standard, offset + 1, _tweak(w))}
        if "palindrome" in out:
            x, y = out["palindrome"]
            yield "wrong palindromic member", {**out, "palindrome": (_tweak(x), y)}
        if "normal_form" in out:
            x, y = out["normal_form"]
            yield "wrong normal form", {**out, "normal_form": (x, _tweak(y))}


# ---------------------------------------------------------------- braid-eq

class BraidTask(NamedTuple):
    kind: str  # "equal", "flip", "center" or "action"
    letters: tuple[int, ...]
    other: tuple[int, ...]  # second braid ("equal", "flip", "center")
    word: str  # free-group word the action is applied to ("action")


_BRAID_LETTERS = (1, 2, 3, 4, -1, -2, -3, -4)
_BRAID_MIN_LETTERS = 4
_BRAID_MAX_LETTERS = 36
_BRAID_KINDS = ("equal", "flip", "center", "action")
_DELTA4 = (1, 2, 3) * 4
_DELTA4_INV = (-3, -2, -1) * 4


def _rewrite(rng: random.Random, letters: tuple[int, ...], moves: int) -> tuple[int, ...]:
    """Apply seeded braid relations; the result is the same braid."""
    w = list(letters)
    for _ in range(moves):
        spots = []
        for i in range(len(w) - 1):
            if tuple(sorted((abs(w[i]), abs(w[i + 1])))) in ref.COMMUTING:
                spots.append(("commute", i))
        for i in range(len(w) - 2):
            x, y = w[i], w[i + 1]
            if w[i + 2] == x and (x > 0) == (y > 0) and (
                    (abs(x), abs(y)) in ref.BRAID_PAIRS or (abs(y), abs(x)) in ref.BRAID_PAIRS):
                spots.append(("braid", i))
            if tuple(w[i:i + 3]) in ref.DELTA_WORDS:
                spots.append(("delta", i))
        spots.append(("insert", rng.randint(0, len(w))))
        move, i = rng.choice(spots)
        if move == "commute":
            w[i], w[i + 1] = w[i + 1], w[i]
        elif move == "braid":
            w[i:i + 3] = [w[i + 1], w[i], w[i + 1]]
        elif move == "delta":
            w[i:i + 3] = rng.choice(ref.DELTA_WORDS)
        else:
            g = rng.choice(_BRAID_LETTERS)
            w[i:i] = [g, -g]
    return tuple(w)


def _grow_braid(rng: random.Random, target: int) -> tuple[int, ...]:
    """A random word of 4..36 letters whose F4 image has about `target` letters.

    The word grows by random letters until the next one would take the
    image to `target` or beyond; that last letter is the one that lands
    closest to `target`.  No letter follows its own inverse, so no growth
    is spent on trivial cancellation.
    """

    def grown(images: list[str], letter: int) -> list[str]:
        out = list(images)
        ref.artin_step(out, letter)
        return out

    def miss(images: list[str]) -> float:
        return abs(math.log(sum(map(len, images)) / target))

    while True:
        images = ["a", "b", "c", "d"]
        letters: list[int] = []
        while len(letters) < _BRAID_MAX_LETTERS:
            options = [l for l in _BRAID_LETTERS if not letters or l != -letters[-1]]
            letter = rng.choice(options)
            step = grown(images, letter)
            if len(letters) + 1 >= _BRAID_MIN_LETTERS and sum(map(len, step)) >= target:
                return tuple(letters) + (min(options, key=lambda l: miss(grown(images, l))),)
            letters.append(letter)
            images = step


def _braid_task(rng: random.Random, kind: str, target: int) -> BraidTask:
    # eq_mod_center runs the copy's 24 letters of delta^(+-4) over images
    # as long as the word's, about three times the work of a plain
    # comparison; a smaller image keeps every kind's cost in line with
    # its size rank, so that no single kind makes up the slowest tasks
    letters = _grow_braid(rng, max(16, target // 3) if kind == "center" else target)
    other: tuple[int, ...] = ()
    word = ""
    if kind == "equal":
        other = _rewrite(rng, letters, rng.randint(1, 4))
    elif kind == "flip":
        # near the end, so the copy's image is about as long as the word's
        j = len(letters) - rng.randint(1, 3)
        other = letters[:j] + (-letters[j],) + letters[j + 1:]
    elif kind == "center":
        other = _rewrite(rng, letters, rng.randint(1, 4)) + rng.choice((_DELTA4, _DELTA4_INV))
    else:
        word = _reduced_word(rng, rng.randint(4, 12))
    return BraidTask(kind, letters, other, word)


class BraidEq:
    """Four-strand braid equality, equality modulo the center, and the rank-two action.

    The cost of every braid operation grows with the length of the
    braid's image in the free group, which varies by orders of
    magnitude between words of equal length.  So the stratified size is
    that image length, log-uniform from 16 to 10000 letters: each word
    grows letter by letter until its image reaches its target.
    """

    name = "braid-eq"
    uses_cli = False
    tampers = ("flipped equality", "wrong matrix", "wrong image")
    pool_size = 2000

    def inputs(self, seed: int) -> list[BraidTask]:
        return _stratified_pool(random.Random(seed), self.pool_size, 16, 10000, self._task)

    def warmup_inputs(self) -> list[BraidTask]:
        return _stratified_pool(random.Random("warm-up"), 8, 16, 64, self._task)

    @staticmethod
    def _task(rng: random.Random, rank: int, size: float) -> BraidTask:
        return _braid_task(rng, _BRAID_KINDS[rank % len(_BRAID_KINDS)], round(size))

    def run(self, lib: Library, calls: Any, t: BraidTask) -> dict[str, Any]:
        rt = lib.rt
        b1 = calls.call("braids.BraidWord", lib.BraidWord, 4, t.letters)
        if t.kind == "action":
            phi = calls.call("braids.f2_action", rt.f2_action, b1)
            x = calls.call("words.FreeWord", lib.FreeWord, t.word)
            y = calls.call("morphisms.apply", phi, x)
            m = calls.call("braids.gl2_image", rt.gl2_image, b1)
            return {
                "images": (phi.image_a.letters, phi.image_b.letters),
                "applied": y.letters,
                "matrix": (m.a, m.b, m.c, m.d),
            }
        b2 = calls.call("braids.BraidWord", lib.BraidWord, 4, t.other)
        if t.kind == "center":
            return {"equal": calls.call("braids.eq_mod_center", rt.eq_mod_center, b1, b2)}
        return {"equal": calls.call("braids.braid_equal", rt.braid_equal, b1, b2)}

    def check(self, t: BraidTask, out: dict[str, Any]) -> list[Failure]:
        if t.kind == "action":
            fails: list[Failure] = []
            images = (ref.braid_f2_apply(t.letters, "a"), ref.braid_f2_apply(t.letters, "b"))
            if out["images"] != images:
                fails.append(("braids.f2_action", "images differ from the composed generator images"))
            if out["applied"] != ref.braid_f2_apply(t.letters, t.word):
                fails.append(("morphisms.apply", "image of the word differs"))
            if out["matrix"] != ref.shear_product(t.letters):
                fails.append(("braids.gl2_image", "matrix differs from the shear product"))
            return fails
        if t.kind == "flip":
            # a flipped sign moves the exponent sum by 2, and every braid
            # relation preserves it
            expected = ref.exponent_sum(t.letters) == ref.exponent_sum(t.other)
        else:
            # rewritten by braid relations, and for "center" times delta^(4k)
            expected = True
        name = "braids.eq_mod_center" if t.kind == "center" else "braids.braid_equal"
        if out["equal"] != expected:
            return [(name, "answer %s, expected %s" % (out["equal"], expected))]
        return []

    def tampered(self, out: dict[str, Any]) -> Iterator[tuple[str, dict[str, Any]]]:
        if "equal" in out:
            yield "flipped equality", {**out, "equal": not out["equal"]}
        else:
            a, b, c, d = out["matrix"]
            yield "wrong matrix", {**out, "matrix": (a, b, c, d + 1)}
            yield "wrong image", {**out, "applied": out["applied"] + "a"}

    def hardness(self, lib: Library, t: BraidTask) -> int:
        """Letters in the faithful rank-four image of the task's braid."""
        phi = lib.rt.artin_action(lib.BraidWord(4, t.letters))
        return sum(len(w) for w in phi.images)


# ------------------------------------------------------------- small-sweep

class SweepTask(NamedTuple):
    u: str
    v: str
    cli: bool  # also run the query through the command line


def _all_pairs(max_total: int) -> list[tuple[str, str]]:
    by_length: list[list[str]] = [[""]]
    for _ in range(max_total - 1):
        by_length.append([w + c for w in by_length[-1] for c in "ab"])
    return [
        (u, v)
        for total in range(2, max_total + 1)
        for lu in range(1, total)
        for u in by_length[lu]
        for v in by_length[total - lu]
    ]


def _chain(u: str, v: str) -> list[tuple[str, str]]:
    """The maximal chain of a positive pair by its definition (finite chains only)."""
    limit = len(u) + len(v)
    for _ in range(limit):
        if u[-1] != v[-1]:
            break
        u, v = u[-1] + u[:-1], v[-1] + v[:-1]
    members = [(u, v)]
    while u[0] == v[0] and len(members) <= limit:
        u, v = u[1:] + u[0], v[1:] + v[0]
        members.append((u, v))
    return members


def _cli_text(verdict: Any) -> str:
    lines = ["BASIS" if verdict.is_basis else "NOT-BASIS"]
    lines += [" ".join(["step"] + [str(part) for part in record]) for record in verdict.trace]
    return "\n".join(lines) + "\n"


class SmallSweep:
    """Every positive pair with |u| + |v| <= 11, one task each, in seeded order."""

    name = "small-sweep"
    uses_cli = True
    tampers = ("flipped verdict", "wrong chain member", "changed CLI byte")
    max_total = 11
    cli_every = 40

    def inputs(self, seed: int) -> list[SweepTask]:
        rng = random.Random(seed)
        pairs = _all_pairs(self.max_total)
        rng.shuffle(pairs)
        on_cli = set(rng.sample(range(len(pairs)), len(pairs) // self.cli_every))
        return [SweepTask(u, v, i in on_cli) for i, (u, v) in enumerate(pairs)]

    def warmup_inputs(self) -> list[SweepTask]:
        pairs = _all_pairs(5)
        return [SweepTask(u, v, i % 10 == 0) for i, (u, v) in enumerate(pairs)]

    def run(self, lib: Library, calls: Any, t: SweepTask) -> dict[str, Any]:
        rt, FreeWord = lib.rt, lib.FreeWord
        u = calls.call("words.FreeWord", FreeWord, t.u)
        v = calls.call("words.FreeWord", FreeWord, t.v)
        verdict = calls.call("chains.is_basis", rt.is_basis, u, v)
        out: dict[str, Any] = {"verdict": verdict}
        if verdict.is_basis:
            out["chain"] = calls.call("chains.maximal_chain", rt.maximal_chain, u, v).pairs
            out["conjugates"] = calls.call("chains.conjugate_bases", rt.conjugate_bases, u, v)
            if len(t.u) % 2 and len(t.v) % 2:
                out["palindrome"] = calls.call("chains.palindromize", rt.palindromize, u, v)
            out["position"] = calls.call("chains.sturmian_position", rt.sturmian_position, u, v)
            out["normal_form"] = calls.call(
                "christoffel.christoffel_normal_form", rt.christoffel_normal_form, u, v)
        if t.cli:
            out["cli"] = calls.call("cli.main", lib.cli, ["basis-test", t.u, t.v, "--trace"])
        return out

    def check(self, t: SweepTask, out: dict[str, Any]) -> list[Failure]:
        expected = ref.is_basis(t.u, t.v)
        verdict = out["verdict"]
        fails: list[Failure] = []
        if verdict.is_basis != expected:
            fails.append(("chains.is_basis", "verdict %s, expected %s" % (verdict.is_basis, expected)))
        if "cli" in out and out["cli"] != (0 if verdict.is_basis else 1, _cli_text(verdict)):
            fails.append(("cli.main", "command line output differs from the library result"))
        if not (expected and verdict.is_basis):
            return fails
        chain = _chain(t.u, t.v)
        for key, name in (("chain", "chains.maximal_chain"), ("conjugates", "chains.conjugate_bases")):
            if [(x.letters, y.letters) for x, y in out[key]] != chain:
                fails.append((name, "members differ from the chain"))
        if len(t.u) % 2 and len(t.v) % 2:
            x, y = out["palindrome"]
            if (x.letters, y.letters) not in [(p, q) for p, q in chain if p == p[::-1] and q == q[::-1]]:
                fails.append(("chains.palindromize", "not the palindromic chain member"))
        fails += _position_failures(t.u, t.v, out["position"])
        fails += _normal_form_failures(ref.abelianization(t.u), ref.abelianization(t.v), out["normal_form"])
        return fails

    def tampered(self, out: dict[str, Any]) -> Iterator[tuple[str, dict[str, Any]]]:
        verdict = out["verdict"]
        yield "flipped verdict", {**out, "verdict": type(verdict)(not verdict.is_basis, verdict.reason, verdict.trace)}
        if "chain" in out:
            chain = list(out["chain"])
            chain[-1] = (_tweak(chain[-1][0]), chain[-1][1])
            yield "wrong chain member", {**out, "chain": tuple(chain)}
        if "cli" in out:
            code, text = out["cli"]
            yield "changed CLI byte", {**out, "cli": (code, text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1])}


WORKLOADS = {w.name: w for w in (BasisLarge(), BraidEq(), SmallSweep())}
