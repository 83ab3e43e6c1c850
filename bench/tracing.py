"""Spans around the benchmark's calls into ranktwo, and the per-layer metrics.

A workload task calls the library only through ``calls.call(name, fn,
*args)``, where ``name`` is ``<layer>.<function>`` and the layer is the
ranktwo module the function lives in.  The untraced :class:`Direct`
calls straight through; :class:`Tracer` records one span per call,
with start, end, task id and the id of the task's own span, plus a few
counts read off the arguments and the result after the span has
closed.  Spans stay in memory until the run ends, when
:func:`layer_metrics` derives every per-layer metric from them and
:func:`write_spans` writes them out.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, NamedTuple

LAYERS = ("words", "morphisms", "braids", "christoffel", "chains", "cli")

# functions whose summed span time is reported on its own
TIMED_FUNCTIONS = (
    "chains.is_basis",
    "chains.nielsen_dehn_oracle",
    "chains.maximal_chain",
    "chains.conjugate_bases",
    "chains.palindromize",
    "chains.sturmian_position",
    "words.conjugated_by",
    "words.mul",
    "morphisms.apply",
    "braids.braid_equal",
    "braids.eq_mod_center",
    "braids.f2_action",
    "braids.gl2_image",
    "christoffel.christoffel_basis",
    "christoffel.christoffel_normal_form",
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (
        ("calls", "count"), ("busy_s", "s"), ("errors", "count"), ("import_s", "s"))]
    + [(f"{name}.busy_s", "s") for name in TIMED_FUNCTIONS]
    + [
        ("chains.input_letters", "letters"),
        ("chains.chain_members", "count"),
        ("chains.conjugate_steps", "count"),
        ("chains.walk_share", "share"),
        ("words.letters_out", "letters"),
        ("morphisms.letters_out", "letters"),
        ("christoffel.letters_out", "letters"),
        ("braids.letters_in", "letters"),
        ("braids.artin_image_letters", "letters"),
        ("cli.bytes_out", "bytes"),
        ("trace.overhead_s", "s"),
    ]
)


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    task_id: int
    name: str
    start_ns: int
    end_ns: int
    ok: bool
    counts: dict[str, int] | None


class Direct:
    """No tracing: every call goes straight to the library."""

    def begin(self, task_id: int) -> None:
        pass

    def end(self) -> None:
        pass

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)

    def check_failed(self, name: str) -> None:
        pass


class Tracer:
    """Records one span per library call and one per task."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.check_failures: list[tuple[int, str]] = []
        self._next_id = 0
        self._task_id = -1
        self._task_span: int | None = None
        self._task_start = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin(self, task_id: int) -> None:
        self._task_id = task_id
        self._task_span = self._new_id()
        self._task_start = perf_counter_ns()

    def end(self) -> None:
        self.spans.append(Span(self._task_span, None, self._task_id, "task",
                               self._task_start, perf_counter_ns(), True, None))

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        span_id = self._new_id()
        start = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception:
            self.spans.append(Span(span_id, self._task_span, self._task_id, name,
                                   start, perf_counter_ns(), False, None))
            raise
        end = perf_counter_ns()
        self.spans.append(Span(span_id, self._task_span, self._task_id, name,
                               start, end, True, _counts(name, args, out)))
        return out

    def check_failed(self, name: str) -> None:
        self.check_failures.append((self._task_id, name))


def _counts(name: str, args: tuple, out: Any) -> dict[str, int] | None:
    layer = name.partition(".")[0]
    if layer == "words" or name == "morphisms.apply":
        return {"letters_out": len(out)}
    if layer == "christoffel":
        return {"letters_out": len(out[0]) + len(out[1])}
    if layer == "braids":
        return {"letters_in": sum(len(a) for a in args if hasattr(a, "strands"))}
    if layer == "cli":
        return {"bytes_out": len(out[1].encode())}
    if layer == "chains":
        counts = {"input_letters": len(args[0]) + len(args[1])}
        if name == "chains.is_basis":
            lengths = [step[1] for step in out.trace if step[0] == "chain-length"]
            counts["walked"] = len(lengths)
            counts["chain_members"] = sum(n + 1 for n in lengths if n != "infinite")
            counts["conjugate_steps"] = sum(1 for step in out.trace if step[0] == "conjugate")
        return counts
    return None


def layer_metrics(
    tracer: Tracer,
    import_s: dict[str, float],
    artin_image_letters: int,
    overhead_s: float,
) -> dict[str, float]:
    """Every per-layer metric, from the recorded spans."""
    m: dict[str, float] = {}
    calls = [s for s in tracer.spans if s.name != "task"]
    failed_checks = [name for _, name in tracer.check_failures]
    for layer in LAYERS:
        mine = [s for s in calls if s.name.partition(".")[0] == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.busy_s"] = sum(s.end_ns - s.start_ns for s in mine) / 1e9
        m[f"{layer}.errors"] = (sum(1 for s in mine if not s.ok)
                                + sum(1 for n in failed_checks if n.partition(".")[0] == layer))
        m[f"{layer}.import_s"] = import_s[layer]
    for name in TIMED_FUNCTIONS:
        m[f"{name}.busy_s"] = sum(s.end_ns - s.start_ns for s in calls if s.name == name) / 1e9

    def total(prefix: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in calls
                   if s.counts and s.name.startswith(prefix))

    decisions = [s for s in calls if s.name == "chains.is_basis" and s.ok]
    m["chains.input_letters"] = total("chains.", "input_letters")
    m["chains.chain_members"] = total("chains.is_basis", "chain_members")
    m["chains.conjugate_steps"] = total("chains.is_basis", "conjugate_steps")
    m["chains.walk_share"] = (sum(1 for s in decisions if s.counts["walked"]) / len(decisions)
                              if decisions else 0.0)
    m["words.letters_out"] = total("words.", "letters_out")
    m["morphisms.letters_out"] = total("morphisms.apply", "letters_out")
    m["christoffel.letters_out"] = total("christoffel.", "letters_out")
    m["braids.letters_in"] = total("braids.", "letters_in")
    m["braids.artin_image_letters"] = artin_image_letters
    m["cli.bytes_out"] = total("cli.", "bytes_out")
    m["trace.overhead_s"] = overhead_s
    return m


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="ascii") as handle:
        for s in tracer.spans:
            handle.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")
