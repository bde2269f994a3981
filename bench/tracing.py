"""Spans around the calls into each postimp layer, recorded from outside.

`Tracer.install` rebinds module attributes (for example
`postimp.decide.extract_linear_nf`) to wrappers that record a span per call,
so no file of the package changes; `uninstall` puts the originals back.  A
span keeps its op id, phase, name, parent, start, end, the time its child
spans cover and the exception that ended it, if any.  The hot primitives
`evaluate` and `evaluate_block` get per-phase call counts and busy time
instead of one span per call.  Spans stay in memory until `write`.
"""

import json
from collections import defaultdict
from time import perf_counter

from postimp import classify, cli, decide, formula, reductions
from postimp.classify import Fragment
from postimp.formula import connective_count, iter_nodes

# span fields
OP, PHASE, NAME, PARENT, START, END, CHILD, EXC = range(8)

# span names; each one's `.calls` and `.self_s` metrics are totals over the
# timed loop divided by the ops attempted in it
PER_OP_SPANS = [
    "formula.parse",
    "formula.build",
    "formula.extract",
    "classify.classify",
    "classify.closure",
    "decide.dispatch",
    "decide.linear",
    "decide.or",
    "decide.and",
    "decide.unary",
    "decide.single_linear",
    "decide.oracle",
    "gf2.solve",
    "cli.read_instance",
    "cli.main",
]
AGGREGATED = ["formula.evaluate", "formula.evaluate_block"]


def layer_metric_units():
    """Name and unit of every metric a traced run reports, in order."""
    units = {}
    for name in PER_OP_SPANS + AGGREGATED:
        units[f"{name}.calls"] = "1/op"
        units[f"{name}.self_s"] = "s/op"
    units.update(
        {
            "formula.parse.nodes_per_s": "nodes/s",
            "formula.build.setup_self_s": "s",
            "formula.evaluate_block.lane_nodes": "lane-nodes/op",
            "classify.closure.tables": "tables/op",
            "classify.closure.deadline_misses": "count",
            "decide.oracle.assignments": "lanes/op",
            "gf2.solve.rows": "rows/call",
            "gf2.solve.unknowns": "unknowns/call",
            "reductions.reduce.calls": "1/setup",
            "reductions.reduce.self_s": "s",
            "traced.ops_per_s": "1/s",
            "traced.op_ms_p50": "ms",
        }
    )
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.phase = "setup"
        # phase -> name -> [calls, busy seconds, work]
        self.aggregates = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0]))
        # phase -> counter name -> value
        self.counters = defaultdict(lambda: defaultdict(float))
        self.parsed = []
        self._connectives = {}
        self._restore = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.op, self.phase, name, parent, perf_counter(), 0.0, 0.0, None])
        self.stack.append(len(self.spans) - 1)

    def close(self, exc=None):
        end = perf_counter()
        span = self.spans[self.stack.pop()]
        span[END] = end
        span[EXC] = exc
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    def begin_op(self, op_id):
        self.op = op_id
        self.open("op")

    def end_op(self, exc=None):
        self.close(exc)
        self.op = None

    def spanned(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(type(exc).__name__)
                raise
            self.close()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def aggregated(self, name, fn, work=None):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                agg = self.aggregates[self.phase][name]
                agg[0] += 1
                agg[1] += busy
                if work is not None:
                    agg[2] += work(args)
                if self.stack:
                    self.spans[self.stack[-1]][CHILD] += busy

        return wrapper

    # -- observers: work counts taken from arguments and results -----------

    def _lane_nodes(self, args):
        phi, _words, width = args[:3]
        key = id(phi)
        if key not in self._connectives:
            self._connectives[key] = (phi, connective_count(phi.root))
        return width * self._connectives[key][1]

    def _count(self, name, value):
        self.counters[self.phase][name] += value

    def _observe_parse(self, args, phi):
        if self.phase == "loop":
            self.parsed.append(phi)

    def _observe_oracle(self, args, decision):
        n = len(args[0].variables)
        wbits = min(n, decide._BLOCK_BITS)
        if decision.implies:
            lanes = 1 << n
        else:
            sigma = decision.counterexample
            index = sum(sigma[v] << i for i, v in enumerate(args[0].variables))
            lanes = ((index >> wbits) + 1) << wbits
        self._count("decide.oracle.assignments", lanes)

    def _observe_solve(self, args, _solution):
        system = args[0]
        self._count("gf2.solve.rows", len(system.rows))
        self._count("gf2.solve.unknowns", system.n)

    def _observe_closure(self, args, closure):
        self._count("classify.closure.tables", len(closure))

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _rebind_classmethod(self, owner, attr, name):
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, classmethod(self.spanned(name, original.__func__)))

    def install(self):
        s = self.spanned
        self._rebind(formula, "parse_formula", s("formula.parse", formula.parse_formula, self._observe_parse))
        self._rebind_classmethod(formula.Formula, "build", "formula.build")
        self._rebind_classmethod(formula.Instance, "build", "formula.build")
        self._rebind(formula, "evaluate", self.aggregated("formula.evaluate", formula.evaluate))
        block = self.aggregated("formula.evaluate_block", formula.evaluate_block, self._lane_nodes)
        self._rebind(formula, "evaluate_block", block)
        self._rebind(decide, "evaluate_block", block)
        for kind in ("linear", "or", "and", "unary"):
            attr = f"extract_{kind}_nf"
            self._rebind(decide, attr, s("formula.extract", getattr(decide, attr)))
        for attr in ("classify_base", "classify_base_single_premise"):
            self._rebind(decide, attr, s("classify.classify", getattr(decide, attr)))
        dispatch = s("decide.dispatch", decide.dispatch)
        self._rebind(decide, "dispatch", dispatch)
        self._rebind(cli, "dispatch", dispatch)
        self._rebind(decide, "decide_oracle", s("decide.oracle", decide.decide_oracle, self._observe_oracle))
        self._rebind(decide, "decide_single_linear", s("decide.single_linear", decide.decide_single_linear))
        deciders = dict(decide._SET_DECIDERS)
        self._restore.append((decide, "_SET_DECIDERS", decide._SET_DECIDERS))
        decide._SET_DECIDERS = {
            fragment: s(f"decide.{'unary' if fragment is Fragment.TRIVIAL else fragment.value}", fn)
            for fragment, fn in deciders.items()
        }
        self._rebind(decide, "solve", s("gf2.solve", decide.solve, self._observe_solve))
        self._rebind(cli, "read_instance", s("cli.read_instance", cli.read_instance))
        self._rebind(cli, "main", s("cli.main", cli.main))
        closure = s("classify.closure", classify.closure_fixed_arity, self._observe_closure)
        self._rebind(classify, "closure_fixed_arity", closure)
        for attr in ("reduce_tautdnf_monotone", "reduce_tautdnf_d2"):
            self._rebind(reductions, attr, s("reductions.reduce", getattr(reductions, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, ops, setups, ops_per_s, op_ms_p50):
        """Per-layer metrics of the timed loop (per op attempted) and of
        set-up (per repetition), from the recorded spans and aggregates."""
        calls = defaultdict(lambda: defaultdict(int))
        self_s = defaultdict(lambda: defaultdict(float))
        misses = 0
        for span in self.spans:
            name, phase = span[NAME], span[PHASE]
            calls[phase][name] += 1
            self_s[phase][name] += span[END] - span[START] - span[CHILD]
            if name == "classify.closure" and span[EXC] == "DeadlineMiss":
                misses += 1
        loop = self.counters["loop"]
        values = {}
        for name in PER_OP_SPANS:
            values[f"{name}.calls"] = calls["loop"][name] / ops
            values[f"{name}.self_s"] = self_s["loop"][name] / ops
        for name in AGGREGATED:
            count, busy, _ = self.aggregates["loop"][name]
            values[f"{name}.calls"] = count / ops
            values[f"{name}.self_s"] = busy / ops
        parse_s = self_s["loop"]["formula.parse"]
        nodes = sum(sum(1 for _ in iter_nodes(phi.root)) for phi in self.parsed)
        solves = calls["loop"]["gf2.solve"]
        values.update(
            {
                "formula.parse.nodes_per_s": nodes / parse_s if parse_s else 0.0,
                "formula.build.setup_self_s": self_s["setup"]["formula.build"] / setups,
                "formula.evaluate_block.lane_nodes": self.aggregates["loop"]["formula.evaluate_block"][2] / ops,
                "classify.closure.tables": loop["classify.closure.tables"] / ops,
                "classify.closure.deadline_misses": misses,
                "decide.oracle.assignments": loop["decide.oracle.assignments"] / ops,
                "gf2.solve.rows": loop["gf2.solve.rows"] / solves if solves else 0.0,
                "gf2.solve.unknowns": loop["gf2.solve.unknowns"] / solves if solves else 0.0,
                "reductions.reduce.calls": calls["setup"]["reductions.reduce"] / setups,
                "reductions.reduce.self_s": self_s["setup"]["reductions.reduce"] / setups,
                "traced.ops_per_s": ops_per_s,
                "traced.op_ms_p50": op_ms_p50,
            }
        )
        return values

    def op_shares(self):
        """Share of the loop's op time that each layer's self time takes."""
        total = 0.0
        self_s = defaultdict(float)
        for span in self.spans:
            if span[PHASE] != "loop":
                continue
            duration = span[END] - span[START]
            if span[NAME] == "op":
                total += duration
            self_s[span[NAME]] += duration - span[CHILD]
        for name in AGGREGATED:
            self_s[name] += self.aggregates["loop"][name][1]
        self_s["bench"] = self_s.pop("op", 0.0)
        return {name: s / total for name, s in sorted(self_s.items()) if s > 0} if total else {}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["op", "phase", "name", "parent", "start", "end", "child", "exc"],
                    "spans": self.spans,
                    "aggregates": {p: dict(a) for p, a in self.aggregates.items()},
                },
                fh,
                separators=(",", ":"),
            )
