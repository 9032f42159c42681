"""Spans around splitrel's public functions, installed from outside.

`Tracer.install` replaces each listed function with a timing wrapper on
its home module and on every `splitrel` module that imported it by name,
so calls through any of those names are seen.  Recursive functions call
themselves through their module global, so their wrapper sees every
level: for `type_of` the call count is the number of nodes walked.

Each wrapper records a span (name, start, end, parent) in memory and
adds its self time, its duration minus the part its child spans cover,
to a per-name total.  `uninstall` puts the original functions back.
"""
from __future__ import annotations

import json
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from splitrel.relations import SplitRelation
from splitrel.terms import Comp, Pad

# (module, attribute, span name).  The span name's first component is the
# layer the function belongs to.
TARGETS = [
    ("splitrel.relations", "compose_split", "relations.compose_split"),
    ("splitrel.relations", "compose_rel", "relations.compose_rel"),
    ("splitrel.semantics", "eval_term", "semantics.eval_term"),
    ("splitrel.semantics", "equal", "semantics.equal"),
    ("splitrel.semantics", "resolve_category", "semantics.resolve_category"),
    ("splitrel.terms", "type_of", "terms.type_of"),
    ("splitrel.terms", "forced_category", "terms.forced_category"),
    ("splitrel.terms", "pad", "terms.build"),
    ("splitrel.terms", "plus", "terms.build"),
    ("splitrel.terms", "compose_chain", "terms.build"),
    ("splitrel.terms", "eta_term", "terms.build"),
    ("splitrel.terms", "etabar_term", "terms.build"),
    ("splitrel.dsl", "parse", "dsl.parse"),
    ("splitrel.dsl", "print_term", "dsl.print_term"),
    ("splitrel.normalform", "eta_nf", "normalform.nf"),
    ("splitrel.normalform", "etabar_nf", "normalform.nf"),
    ("splitrel.normalform", "iota_nf", "normalform.nf"),
    ("splitrel.normalform", "eta_nf_term", "normalform.nf_term"),
    ("splitrel.normalform", "etabar_nf_term", "normalform.nf_term"),
    ("splitrel.normalform", "iota_nf_term", "normalform.nf_term"),
    ("splitrel.maximality", "separate", "maximality.separate"),
    ("splitrel.catalog", "instantiate", "catalog.instantiate"),
    ("splitrel.render", "ascii_picture", "render"),
    ("splitrel.render", "dot_graph", "render"),
    ("splitrel.render", "text_listing", "render"),
    ("splitrel.cli", "main", "cli.main"),
    ("splitrel.cli", "cmd_eq", "cli.eq"),
    ("splitrel.cli", "cmd_eval", "cli.eval"),
    ("splitrel.cli", "cmd_normalize", "cli.normalize"),
]

LAYERS = ["relations", "semantics", "terms", "dsl", "normalform",
          "maximality", "catalog", "render", "cli"]

CLI_COMMANDS = ["eq", "eval", "normalize"]

# Spans kept for the trace file; the totals count every span.
SPAN_CAP = 100_000


def term_children(t) -> tuple:
    """Subterms of a term node, read from its fields."""
    if isinstance(t, Comp):
        return (t.after, t.before)
    if isinstance(t, Pad):
        return (t.body,)
    return ()


def term_nodes(t) -> int:
    count = 0
    todo = [t]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(term_children(node))
    return count


class _SubtermTable:
    """Hash-consing table over every term evaluated: distinct subterms
    against subterm occurrences.  Iterative, so deep terms are fine."""

    def __init__(self):
        self.ids: dict = {}
        self.nodes = 0

    def add(self, t) -> None:
        ids = self.ids
        done: dict[int, int] = {}
        todo = [(t, False)]
        while todo:
            node, expanded = todo.pop()
            kids = term_children(node)
            if kids and not expanded:
                todo.append((node, True))
                todo.extend((k, False) for k in kids)
                continue
            if isinstance(node, Comp):
                key = ("comp", done[id(node.after)], done[id(node.before)])
            elif isinstance(node, Pad):
                key = ("pad", node.left, done[id(node.body)], node.right)
            else:
                key = node
            done[id(node)] = ids.setdefault(key, len(ids))
            self.nodes += 1

    def share(self) -> float:
        return len(self.ids) / self.nodes if self.nodes else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.walks_in_equal = 0
        self.equal_depth = 0
        self.width_max = 0
        self.pairs_built = 0
        self.inits = 0
        self.nf_term_nodes = 0
        self.subterms = _SubtermTable()
        # open spans: [span id, name, start, time covered by children]
        self.stack: list[list] = []
        self.next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.origin = perf_counter()
        # (dict, key, original value) for every replaced entry
        self._patched: list[tuple[dict, object, object]] = []

    # ---------------------------------------------------------------- spans

    def _enter(self, name: str) -> list:
        frame = [self.next_id, name, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, covered = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.span_id) < SPAN_CAP:
            if name not in self.name_ids:
                self.name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_id.append(span_id)
            self.span_parent.append(parent[0] if parent is not None else -1)
            self.span_name.append(self.name_ids[name])
            self.span_start.append(start - self.origin)
            self.span_end.append(end - self.origin)
        else:
            self.dropped += 1
        return duration

    def _untimed(self, work, *args) -> None:
        # Bookkeeping inside a span is charged to no layer.
        start = perf_counter()
        work(*args)
        if self.stack:
            self.stack[-1][3] += perf_counter() - start

    def wrap(self, name: str, fn):
        tracer = self
        keep_durations = name.startswith("cli.") and name != "cli.main"
        is_equal = name == "semantics.equal"

        def wrapper(*args, **kwargs):
            # A walk is a forced_category call or a type_of call that is
            # not one level of an enclosing type_of walk.
            if tracer.equal_depth and (
                name == "terms.forced_category"
                or (name == "terms.type_of" and tracer.stack[-1][1] != name)
            ):
                tracer.walks_in_equal += 1
            if name == "semantics.eval_term":
                tracer._untimed(tracer.subterms.add, args[0])
            frame = tracer._enter(name)
            tracer.equal_depth += is_equal
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.equal_depth -= is_equal
                duration = tracer._exit(frame)
            if keep_durations:
                tracer.durations[name].append(duration)
            if name == "relations.compose_split":
                p, q = args[0], args[1]
                tracer.width_max = max(tracer.width_max, p.n + p.m + q.m)
            if name in ("relations.compose_split", "relations.compose_rel"):
                tracer.pairs_built += len(result.pairs)
            if name == "normalform.nf_term":
                tracer._untimed(tracer._count_nf_term, result)
            return result

        return wrapper

    def _count_nf_term(self, term) -> None:
        self.nf_term_nodes += term_nodes(term)

    # --------------------------------------------------------- installation

    def _replace_everywhere(self, original, replacement) -> None:
        # Module globals, and the entries of module-level registries such
        # as the command line's table of normalizers.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "splitrel" and not mod_name.startswith("splitrel."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((vars(module), attr, original))
                    setattr(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if isinstance(entry, tuple) and any(e is original for e in entry):
                            new = tuple(replacement if e is original else e
                                        for e in entry)
                        elif entry is original:
                            new = replacement
                        else:
                            continue
                        self._patched.append((value, key, entry))
                        value[key] = new

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self.wrap(name, original))
        # Each SplitRelation construction re-validates its pairs.
        original_init = SplitRelation.__post_init__
        tracer = self

        def post_init(obj):
            tracer.inits += 1
            frame = tracer._enter("relations.SplitRelation")
            try:
                original_init(obj)
            finally:
                tracer._exit(frame)

        SplitRelation.__post_init__ = post_init
        self._restore_init = original_init

    def uninstall(self) -> None:
        SplitRelation.__post_init__ = self._restore_init
        while self._patched:
            table, key, original = self._patched.pop()
            table[key] = original

    # -------------------------------------------------------------- results

    def write(self, path) -> None:
        spans = [
            [self.span_id[i], self.span_parent[i], self.names[self.span_name[i]],
             round(self.span_start[i], 7), round(self.span_end[i], 7)]
            for i in range(len(self.span_id))
        ]
        with open(path, "w") as out:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": spans, "dropped": self.dropped}, out)

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split(".")[0]] += seconds
        return totals

    def metrics(self, traced_s: float) -> dict[str, tuple[float, str]]:
        c, s = self.calls, self.self_s
        equal_calls = c["semantics.equal"]
        layer_s = self.layer_self_s()
        out: dict[str, tuple[float, str]] = {
            "relations.compose_split.calls": (c["relations.compose_split"], "count"),
            "relations.compose_split.self_s": (s["relations.compose_split"], "s"),
            "relations.compose_split.width_max": (self.width_max, "count"),
            "relations.compose_rel.calls": (c["relations.compose_rel"], "count"),
            "relations.compose_rel.self_s": (s["relations.compose_rel"], "s"),
            "relations.SplitRelation.inits": (self.inits, "count"),
            "relations.SplitRelation.self_s": (s["relations.SplitRelation"], "s"),
            "relations.pairs_built": (self.pairs_built, "count"),
            "semantics.eval_term.calls": (c["semantics.eval_term"], "count"),
            "semantics.eval_term.self_s": (s["semantics.eval_term"], "s"),
            "semantics.equal.calls": (equal_calls, "count"),
            "semantics.equal.self_s": (s["semantics.equal"], "s"),
            "semantics.resolve_category.self_s": (s["semantics.resolve_category"], "s"),
            "semantics.subterm_share": (self.subterms.share(), "ratio"),
            "terms.type_of.calls": (c["terms.type_of"], "count"),
            "terms.type_of.self_s": (s["terms.type_of"], "s"),
            "terms.forced_category.calls": (c["terms.forced_category"], "count"),
            "terms.forced_category.self_s": (s["terms.forced_category"], "s"),
            "terms.walks_per_equal": (
                self.walks_in_equal / equal_calls if equal_calls else 0.0, "count"),
            "terms.build.self_s": (s["terms.build"], "s"),
            "dsl.parse.calls": (c["dsl.parse"], "count"),
            "dsl.parse.self_s": (s["dsl.parse"], "s"),
            "dsl.print_term.calls": (c["dsl.print_term"], "count"),
            "dsl.print_term.self_s": (s["dsl.print_term"], "s"),
            "normalform.nf.calls": (c["normalform.nf"], "count"),
            "normalform.nf.self_s": (s["normalform.nf"], "s"),
            "normalform.nf_term.self_s": (s["normalform.nf_term"], "s"),
            "normalform.nf_term.nodes": (self.nf_term_nodes, "count"),
            "maximality.separate.calls": (c["maximality.separate"], "count"),
            "maximality.separate.self_s": (s["maximality.separate"], "s"),
            "catalog.instantiate.calls": (c["catalog.instantiate"], "count"),
            "catalog.instantiate.self_s": (s["catalog.instantiate"], "s"),
            "render.self_s": (s["render"], "s"),
            "cli.main.calls": (c["cli.main"], "count"),
            "cli.main.self_s": (s["cli.main"], "s"),
        }
        for command in CLI_COMMANDS:
            name = f"cli.{command}"
            runs = self.durations[name]
            out[f"{name}.calls"] = (c[name], "count")
            out[f"{name}.p50_ms"] = (
                statistics.median(runs) * 1e3 if runs else 0.0, "ms")
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (
                layer_s[layer] / traced_s if traced_s else 0.0, "ratio")
        return out
