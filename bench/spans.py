"""Span recording for traced benchmark runs, and the per-layer metrics
computed from the recorded spans.

The recorder wraps akchar's public functions at the module attributes their
callers look up (``from .x import y`` binds ``y`` in the importer, so the
wrapper goes on the importer's name).  Each call becomes one span, kept in
memory as a tuple ``(name, duration, self, work, outer)`` until the run ends,
when all of them are pickled to one file.  ``work`` is a count taken from the
call's arguments or result; ``outer`` says the parent span has another name,
so the span counts toward its name's inclusive time.

Layers are the akchar modules; a span's layer is its name up to the first
dot.  Self time is a span's duration minus the durations of its children.
Each thread keeps its own stack.  Spans of the main thread are timed by the
wall clock.  Spans of a worker thread are timed by that thread's CPU clock
(``time.thread_time``), so the time a worker waits for the GIL is in none of
them.  A worker span opened with nothing on its own stack is a child of the
innermost open span of the main thread, the call that waits on the pool, and
its CPU time is subtracted from that span's self time.  The self times of all
spans therefore add up to the root span, and what the pool loses to the GIL
stays in one place: the self time of the waiting span.
"""
from __future__ import annotations

import pickle
import threading
from time import perf_counter, thread_time

LAYERS = ("cli", "verify", "formulas", "combinat", "operators", "rings")
SUITES = (
    "oracle", "ak-relations", "shoji-relations", "specialization",
    "theta-closed-forms", "coef", "hook-sum", "wreath", "dimension-identity",
)


class Recorder:
    """In-memory span store with one stack and one span list per thread."""

    def __init__(self):
        self._threads: dict[int, tuple] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def _thread_state(self, ident: int) -> tuple:
        """``(stack, spans, clock, main_stack)`` of a thread; ``main_stack``
        is None on the main thread."""
        with self._lock:
            if ident == self._main:
                state = ([], [], perf_counter, None)
            else:
                state = ([], [], thread_time, self._threads[self._main][0])
            self._threads[ident] = state
        return state

    def wrap(self, fn, name, count=None):
        """Return ``fn`` recording a span per call.  ``name`` is a string or
        a function of the call's arguments; ``count(args, result)`` gives the
        work the call did."""
        named = callable(name)
        threads = self._threads
        lock = self._lock
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            ident = get_ident()
            stack, spans, clock, main_stack = (
                threads.get(ident) or self._thread_state(ident))
            label = name(args) if named else name
            # a frame is [name, time taken by its children]
            if stack:
                parent = stack[-1]
                outer = parent[0] != label
            else:
                parent = main_stack[-1] if main_stack else None
                outer = True
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
            if stack:
                parent[1] += duration
            elif parent is not None:
                with lock:  # both workers credit the same main-thread frame
                    parent[1] += duration
            work = count(args, result) if count is not None else 0
            spans.append((label, duration, duration - frame[1], work, outer))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name, count=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def dump(self, path: str) -> None:
        """Pickle the spans of every thread, as one list, to ``path``."""
        with open(path, "wb") as handle:
            pickle.dump([span for _, spans, _, _ in self._threads.values()
                         for span in spans], handle)


def _suite_name(args) -> str:
    return "verify.suite." + args[0]


def _cases(args, result) -> int:
    return result.cases


def _pairs(args, result) -> int:
    return len(result)


def _basis_words(args, result) -> int:
    _, n, alphabet = args
    return alphabet.size ** n


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries of an imported akchar."""
    from akchar import cli, formulas, operators, verify
    from akchar.rings import MultiPoly

    recorder.patch(cli, "run_suite", _suite_name, _cases)
    for module in (cli, verify):
        for attr, name in (
            ("character_value", "formulas.character_value"),
            ("group_character_value", "formulas.group_value"),
            ("char_value_oracle", "operators.oracle"),
            ("specialize_to_group", "rings.specialize"),
            ("expand_at_q1", "rings.specialize"),
            ("list_multipartitions", "combinat.other"),
            ("list_hook_multipartitions", "combinat.other"),
            ("count_semistandard", "combinat.other"),
            ("count_standard_multitableaux", "combinat.other"),
            ("format_multipartition", "combinat.other"),
        ):
            recorder.patch(module, attr, name)
    recorder.patch(cli, "pair_regev_rhs", "formulas.other")
    for attr in ("theta", "theta_j", "theta1_closed", "theta2_closed", "coef",
                 "coef_first_order", "hook_sum_rhs", "wreath_hook_value",
                 "bracket"):
        recorder.patch(verify, attr, "formulas.other")
    for attr in ("check_ak_presentation", "check_shoji_presentation"):
        recorder.patch(verify, attr, "operators.presentation")
    recorder.patch(formulas, "list_graded_pairs", "combinat.pairs", _pairs)
    recorder.patch(formulas, "expand_at_q1", "rings.specialize")
    recorder.patch(operators, "trace_of_word", "operators.trace", _basis_words)
    recorder.patch(operators, "word_hecke", "combinat.other")
    for attr in ("__mul__", "__rmul__"):
        recorder.patch(MultiPoly, attr, "rings.mul")
    recorder.patch(MultiPoly, "to_text", "rings.text")


def summarize(path: str) -> dict:
    """Totals per span name and self time per layer from a dumped trace."""
    with open(path, "rb") as handle:
        spans = pickle.load(handle)
    by_name: dict[str, dict] = {}
    root = None
    for label, duration, own, work, outer in spans:
        entry = by_name.get(label)
        if entry is None:
            entry = by_name[label] = {"calls": 0, "work": 0, "s": 0.0, "self_s": 0.0}
        entry["calls"] += 1
        entry["work"] += work
        entry["self_s"] += own
        if outer:
            entry["s"] += duration
        if label == "cli.main":
            root = duration
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for label, entry in by_name.items():
        layer_self[label.split(".", 1)[0]] += entry["self_s"]
    return {"root_s": root, "layer_self_s": layer_self, "names": by_name}


def layer_metrics(summary: dict, output_bytes: int, untraced_run_s: float) -> dict:
    """The per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    names = summary["names"]
    layer_self = summary["layer_self_s"]
    empty = {"calls": 0, "work": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return names.get(name, empty)

    def prefixed(prefix, field):
        return sum(v[field] for k, v in names.items() if k.startswith(prefix))

    trace = get("operators.trace")
    oracle = get("operators.oracle")
    metrics = {
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "verify.self_s": (layer_self["verify"], "s"),
        "verify.cases": (prefixed("verify.suite.", "work"), "count"),
    }
    for suite in SUITES:
        metrics[f"verify.suite.{suite}_s"] = (get("verify.suite." + suite)["s"], "s")
    metrics.update({
        "formulas.character_value_s": (get("formulas.character_value")["s"], "s"),
        "formulas.self_s": (layer_self["formulas"], "s"),
        "formulas.calls": (prefixed("formulas.", "calls"), "count"),
        "formulas.group_value_s": (get("formulas.group_value")["s"], "s"),
        "combinat.pairs_s": (get("combinat.pairs")["s"], "s"),
        "combinat.pairs": (get("combinat.pairs")["work"], "count"),
        "combinat.self_s": (layer_self["combinat"], "s"),
        "operators.trace_s": (trace["s"], "s"),
        "operators.traces": (trace["calls"], "count"),
        "operators.basis_words": (trace["work"], "count"),
        "operators.us_per_basis_word": (
            1e6 * trace["s"] / trace["work"] if trace["work"] else 0.0, "us"),
        "operators.oracle_calls": (oracle["calls"], "count"),
        "operators.oracle_hit_frac": (
            1 - trace["calls"] / oracle["calls"] if oracle["calls"] else 0.0,
            "ratio"),
        "operators.presentation_s": (get("operators.presentation")["s"], "s"),
        "operators.self_s": (layer_self["operators"], "s"),
        "rings.mul_s": (get("rings.mul")["s"], "s"),
        "rings.muls": (get("rings.mul")["calls"], "count"),
        "rings.specialize_s": (get("rings.specialize")["s"], "s"),
        "rings.text_s": (get("rings.text")["s"], "s"),
        "rings.self_s": (layer_self["rings"], "s"),
        "trace_overhead_frac": (summary["root_s"] / untraced_run_s - 1, "ratio"),
    })
    return metrics
