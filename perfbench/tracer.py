"""Span tracer for the benchmark's traced run.

``Tracer`` wraps the public functions of each semcell module from the
outside: it replaces every module attribute bound to such a function
(including the copies other modules made with ``from .x import f``) by a
wrapper that records one span per call, and puts the originals back on
exit.  Nothing under ``src/`` changes.

A span is (id, parent id, name, start, end, thread id, error flag,
attribute).  Spans nest through a per-thread stack; a span opened by a
Monte Carlo pool thread with an empty stack takes the innermost span open
on the thread that installed the tracer as its parent, which is the
``estimate_many`` call that submitted the work.  Spans stay in memory and
are written out as JSON lines at the end.

A span's self time is its duration minus the union of its children's
intervals (children on pool threads included).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("specfun", "ratemodel", "linkmodel", "outage", "design", "montecarlo", "presets", "cli")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _hyp_branch(args, kwargs, result, error):
    # hyp1f1_ratio(s, x) takes the continued-fraction branch for x >= s + 1
    return int(_arg(args, kwargs, 1, "x") >= _arg(args, kwargs, 0, "s") + 1.0)


def _block_index(args, kwargs, result, error):
    return _arg(args, kwargs, 1, "block_index")


def _draw_size(args, kwargs, result, error):
    """(rows, SNR values) drawn by one sample_user call."""
    size = _arg(args, kwargs, 2, "size")
    if size is None:
        return (1, 1)
    if isinstance(size, int):
        return (size, size)
    rows, draws = size[0], 1
    for dim in size:
        draws *= dim
    return (rows, draws)


def _estimate_many(args, kwargs, result, error):
    """(rows used, estimates): n rows per kind of stream the events need."""
    from semcell import montecarlo

    events, n = _arg(args, kwargs, 0, "events"), _arg(args, kwargs, 1, "n")
    counts = [isinstance(e, (montecarlo.ExactCount, montecarlo.RangeCount)) for e in events]
    return (n * (any(counts) + (not all(counts))), result)


def _csv_bytes(args, kwargs, result, error):
    return 0 if error else os.path.getsize(_arg(args, kwargs, 0, "path"))


_HOOKS = {
    "specfun.hyp1f1_ratio": _hyp_branch,
    "montecarlo.user_stream": _block_index,
    "montecarlo.sample_user": _draw_size,
    "montecarlo.estimate_many": _estimate_many,
    "cli.write_csv": _csv_bytes,
}


def public_functions() -> dict[str, object]:
    """``layer.name`` -> function, for every public function of every layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"semcell.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Context manager recording spans of semcell's public functions.

    ``only`` limits the wrapped functions to the given span names.
    """

    def __init__(self, only: set[str] | None = None):
        functions = public_functions()
        self.names = sorted(n for n in functions if only is None or n in only)
        self._functions = {n: functions[n] for n in self.names}
        self.spans: list[tuple] = []
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self._root = threading.get_ident()
        self._stacks[self._root] = []
        self.origin = perf_counter()
        wrappers = {id(fn): self._wrap(i, fn, _HOOKS.get(name))
                    for i, (name, fn) in enumerate(self._functions.items())}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "semcell" and not mod_name.startswith("semcell."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name_ix: int, fn, hook):
        spans, stacks, root, ids = self.spans, self._stacks, self._root, self._ids
        clock, get_ident = perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                root_stack = stacks[root]
                parent = root_stack[-1] if root_stack else -1
            sid = next(ids)
            stack.append(sid)
            result, error = None, False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                attr = hook(args, kwargs, result, error) if hook is not None else None
                spans.append((sid, parent, name_ix, t0, t1, tid, error, attr))

        return traced

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_s", "end_s",
                                            "thread", "error"]}) + "\n")
            for sid, parent, ix, t0, t1, tid, error, _ in sorted(self.spans):
                fh.write(json.dumps([sid, parent, self.names[ix], round(t0 - self.origin, 9),
                                     round(t1 - self.origin, 9), tid, int(error)]) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for _, parent, _, t0, t1, *_ in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, _, t0, t1, *_ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def mc_results(self) -> list:
        """Estimates returned by every estimate_many call, in call order."""
        if "montecarlo.estimate_many" not in self.names:
            return []
        ix = self.names.index("montecarlo.estimate_many")
        return [span[7][1] for span in sorted(self.spans) if span[2] == ix]

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark, from this tracer's spans."""
        self_s = self.self_times()
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[self.names[span[2]]].append(span)
        parent_of = {span[0]: span[1] for span in self.spans}
        name_of = {span[0]: self.names[span[2]] for span in self.spans}

        def calls(name):
            return len(by_name[name])

        def total_self(name):
            return sum(self_s[span[0]] for span in by_name[name])

        def under(name, ancestor):
            """Spans of ``name`` with an ``ancestor`` span above them."""
            count = 0
            for span in by_name[name]:
                node = span[1]
                while node >= 0 and name_of[node] != ancestor:
                    node = parent_of[node]
                count += node >= 0
            return count

        m: dict[str, float] = {}
        for name in ("specfun.hyp1f1_ratio", "specfun.inv_reg_inc_beta_int", "ratemodel.thresholds",
                     "linkmodel.snr_cdf", "outage.outage_report", "outage.binom_range_prob",
                     "outage.sem_util_prob", "outage.sem_util_prob_deriv",
                     "design.radius_for_outage_threshold", "design.optimal_sem_util_radius",
                     "montecarlo.sample_user"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = total_self(name)
        hyp = by_name["specfun.hyp1f1_ratio"]
        m["specfun.hyp1f1_ratio.cf_share"] = sum(s[7] for s in hyp) / len(hyp) if hyp else 0.0
        for name in ("design.radius_for_outage_threshold", "design.optimal_sem_util_radius"):
            m[f"{name}.fail"] = sum(span[6] for span in by_name[name])
        queries = calls("design.optimal_sem_util_radius")
        for metric, child in (("deriv_evals_per_query", "outage.sem_util_prob_deriv"),
                              ("util_evals_per_query", "outage.sem_util_prob")):
            m[f"design.optimal_sem_util_radius.{metric}"] = (
                under(child, "design.optimal_sem_util_radius") / queries if queries else 0.0)

        estimates = by_name["montecarlo.estimate_many"]
        draws = by_name["montecarlo.sample_user"]
        blocks, threads = defaultdict(set), defaultdict(set)
        for span in by_name["montecarlo.user_stream"]:
            blocks[span[1]].add(span[7])
        for span in draws:
            threads[span[1]].add(span[5])
        rows_used = sum(span[7][0] for span in estimates)
        m["montecarlo.sample_user.draws"] = sum(span[7][1] for span in draws)
        m["montecarlo.estimate_many.self_s"] = total_self("montecarlo.estimate_many")
        m["montecarlo.blocks"] = sum(len(b) for b in blocks.values())
        m["montecarlo.workers_used"] = max((len(t) for t in threads.values()), default=0)
        m["montecarlo.rows_drawn_over_used"] = (
            sum(span[7][0] for span in draws) / rows_used if rows_used else 0.0)
        m["montecarlo.draws_per_point"] = (
            m["montecarlo.sample_user.draws"] / len(estimates) if estimates else 0.0)

        for name in ("cli.parse_scenario_config", "presets.expand_preset", "cli.evaluate_sweep",
                     "cli.write_csv", "cli.write_manifest"):
            m[f"{name}.self_s"] = total_self(name)
        m["cli.write_csv.bytes"] = sum(span[7] for span in by_name["cli.write_csv"])
        return m
