"""Spans and counters for the traced benchmark run, installed from outside.

``Tracer.install`` wraps every public function of the engine modules at every
place its name is bound: ``classify`` imports ``condition_tensor`` by name,
``cli`` and ``audit`` import ``parse``, ``print_text``, ``scan`` and more, and
a call through such a binding never touches the defining module's attribute.
The package ``__init__`` re-exports are not wrapped: no engine or CLI code
calls through the package namespace.  A few methods carry the hot loops and
are wrapped on their class: ``Form.wedge``, ``Form.power`` and
``Form.substitute`` get spans, while ``Scalar`` arithmetic and
``Relation.apply`` get counters only, because a span per call would cost more
than the call.

A span records name, start, end, parent span and command id; spans stay in
memory until the run writes them out.  A span's self time is its duration
minus its direct children's durations, so the self times of all spans of a
command add up to the command's root span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from time import perf_counter_ns

MODULES = ("scalars", "algebra", "calculus", "classify", "exprio", "fixtures", "audit", "cli")

# class-bound methods: (module, class, method, span name or None for a counter)
METHODS = (
    ("algebra", "Form", "wedge", "algebra.wedge"),
    ("algebra", "Form", "power", "algebra.power"),
    # substitution of a computed tensor is the classification step
    ("algebra", "Form", "substitute", "classify.substitute"),
    ("scalars", "Scalar", "__mul__", None),
    ("scalars", "Scalar", "__rmul__", None),
    ("scalars", "Scalar", "__add__", None),
    ("scalars", "Scalar", "__radd__", None),
    ("classify", "Relation", "apply", None),
)

COUNTER_METRICS = {
    "scalars.mul_calls": ("scalars.Scalar.__mul__", "scalars.Scalar.__rmul__"),
    "scalars.add_calls": ("scalars.Scalar.__add__", "scalars.Scalar.__radd__"),
    "classify.relations_tried": ("classify.Relation.apply",),
}


def _coeff_bits(form) -> int:
    bits = 0
    for scalar in form.terms.values():
        for c in scalar.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.active = False
        self.cmd = -1
        self.names: list = []  # span name ids, index = span id
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.cmds: list = []
        self.child_ns: list = []
        self.stack = [-1]
        self.name_list: list = []
        self._name_ids: dict = {}
        self.fired: dict = {}  # span binding -> [calls made inside commands]
        self.raw: dict = {}  # counter binding -> calls ever made
        self.window: dict = {}  # counter binding -> calls made inside commands
        self._snapshot: dict = {}
        self.stats = {
            "wedge_pairs": 0, "wedge_kept": 0, "power_steps": 0,
            "coeff_bits_max": 0, "tensor_terms_out": 0, "tensor_repeats": 0,
            "relation_hits": 0, "parse_bytes": 0, "checks_failed": 0,
        }
        self._seen_tensors: set = set()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.name_list)
            self.name_list.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name: str, hook=None):
        nid = self._name_id(name)
        fired = [0]
        tracer = self
        names, starts, ends = self.names, self.starts, self.ends
        parents, cmds, child_ns, stack = self.parents, self.cmds, self.child_ns, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            fired[0] += 1
            idx = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            cmds.append(tracer.cmd)
            child_ns.append(0)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if parent >= 0:
                    child_ns[parent] += t1 - t0
            if hook is not None and tracer.cmd >= 0:
                hook(args, kwargs, result)
            return result

        return wrapper, fired

    def _counter_wrapper(self, fn, binding: str):
        raw = self.raw
        raw[binding] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            raw[binding] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, fn, *args):
        """Call fn inside a span opened by the benchmark itself."""
        wrapper, _ = self._span_wrapper(fn, name)
        return wrapper(*args)

    def setup(self, name: str, fn) -> None:
        """Trace set-up work as command -1: spans only, no counters or hooks."""
        self.cmd = -1
        self.active = True
        try:
            self.span(name, fn)
        finally:
            self.active = False

    def begin(self, cmd: int) -> None:
        """Open a command window: spans and counters inside it are kept."""
        self.cmd = cmd
        self._snapshot = dict(self.raw)
        self.active = True

    def end(self) -> None:
        self.active = False
        for key, value in self.raw.items():
            self.window[key] = self.window.get(key, 0) + value - self._snapshot[key]

    # -- hooks: counts measured where the work happens -----------------------

    def _hook_wedge(self, args, kwargs, result) -> None:
        self.stats["wedge_pairs"] += len(args[0].terms) * len(args[1].terms)
        self.stats["wedge_kept"] += len(result.terms)

    def _hook_power(self, args, kwargs, result) -> None:
        exponent = args[1] if len(args) > 1 else kwargs["exponent"]
        self.stats["power_steps"] += exponent
        self.stats["coeff_bits_max"] = max(self.stats["coeff_bits_max"], _coeff_bits(result))

    def _hook_tensor(self, signature):
        from astheno.calculus import Condition, Convention

        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (a["geom"], Condition(a["kind"]), Convention(a["convention"]))
            if key in self._seen_tensors:
                self.stats["tensor_repeats"] += 1
            self._seen_tensors.add(key)
            self.stats["tensor_terms_out"] += len(result.terms)
            self.stats["coeff_bits_max"] = max(self.stats["coeff_bits_max"], _coeff_bits(result))

        return hook

    def _hook_analyze(self, args, kwargs, result) -> None:
        self.stats["relation_hits"] += sum(ok for _, ok in result.singles) + len(result.pairs)

    def _hook_parse(self, args, kwargs, result) -> None:
        text = args[0] if args else kwargs["text"]
        self.stats["parse_bytes"] += len(text.encode("utf-8"))

    def _hook_audit(self, args, kwargs, result) -> None:
        self.stats["checks_failed"] += sum(not c.passed for c in result.checks)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"astheno.{name}") for name in MODULES}
        hooks = {
            "algebra.wedge": self._hook_wedge,
            "algebra.power": self._hook_power,
            "classify.analyze_residual": self._hook_analyze,
            "exprio.parse": self._hook_parse,
            "audit.run_audit": self._hook_audit,
        }
        targets = {}
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[obj] = f"{modname}.{attr}"
        tensor_fn = modules["calculus"].condition_tensor
        hooks["calculus.condition_tensor"] = self._hook_tensor(inspect.signature(tensor_fn))
        for modname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = targets.get(obj) if inspect.isfunction(obj) else None
                if name is None:
                    continue
                wrapper, self.fired[f"{modname}.{attr}"] = self._span_wrapper(
                    obj, name, hooks.get(name))
                setattr(mod, attr, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(modules[modname], clsname)
            fn = cls.__dict__[attr]
            binding = f"{modname}.{clsname}.{attr}"
            if name is None:
                wrapper = self._counter_wrapper(fn, binding)
            else:
                wrapper, self.fired[binding] = self._span_wrapper(fn, name, hooks.get(name))
            setattr(cls, attr, wrapper)

    def bindings(self) -> dict:
        """Calls made inside commands (and set-up) through every wrapped binding."""
        out = {k: count[0] for k, count in self.fired.items()}
        out.update({k: self.window.get(k, 0) for k in self.raw})
        return out

    # -- results --------------------------------------------------------------

    def summary(self, scale: float = 1.0) -> dict:
        """Calls, inclusive and self seconds per span name, over command spans;
        self seconds per layer; set-up spans (command id -1) apart.  Seconds
        are multiplied by scale."""
        calls: dict = {}
        incl: dict = {}
        self_ns: dict = {}
        setup: dict = {}
        for i, nid in enumerate(self.names):
            name = self.name_list[nid]
            dur = self.ends[i] - self.starts[i]
            if self.cmds[i] < 0:
                setup[name] = setup.get(name, 0) + dur
                continue
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - self.child_ns[i]
        layers: dict = {}
        for name, ns in self_ns.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + ns
        unit = scale / 1e9
        return {
            "calls": calls,
            "incl_s": {k: v * unit for k, v in incl.items()},
            "self_s": {k: v * unit for k, v in self_ns.items()},
            "layer_self_s": {k: v * unit for k, v in layers.items()},
            "setup_s": {k: v * unit for k, v in setup.items()},
            "counters": {
                metric: sum(self.window.get(b, 0) for b in bindings)
                for metric, bindings in COUNTER_METRICS.items()
            },
            "stats": dict(self.stats),
        }

    def write_spans(self, path) -> None:
        """One line per span: command, parent span, name, start ns, end ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tcmd\tparent\tname\tstart_ns\tend_ns\n")
            for i, nid in enumerate(self.names):
                fh.write(f"{i}\t{self.cmds[i]}\t{self.parents[i]}\t{self.name_list[nid]}"
                         f"\t{self.starts[i]}\t{self.ends[i]}\n")


def per_layer_metrics(summary: dict) -> dict:
    """The per-layer metrics, named after the engine modules, from a summary."""
    calls, incl, self_s = summary["calls"], summary["incl_s"], summary["self_s"]
    stats, counters = summary["stats"], summary["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    wedge_calls = calls.get("algebra.wedge", 0)
    tensor_calls = calls.get("calculus.condition_tensor", 0)
    return {
        "scalars.mul_calls": counters["scalars.mul_calls"],
        "scalars.add_calls": counters["scalars.add_calls"],
        "scalars.coeff_bits_max": stats["coeff_bits_max"],
        "algebra.wedge_calls": wedge_calls,
        "algebra.wedge_pairs": stats["wedge_pairs"],
        "algebra.wedge_kept_ratio": ratio(stats["wedge_kept"], stats["wedge_pairs"]),
        "algebra.wedge_self_s": self_s.get("algebra.wedge", 0.0),
        "algebra.power_calls": calls.get("algebra.power", 0),
        "algebra.power_steps": stats["power_steps"],
        "algebra.power_s": incl.get("algebra.power", 0.0),
        "calculus.tensor_calls": tensor_calls,
        "calculus.tensor_s": incl.get("calculus.condition_tensor", 0.0),
        "calculus.tensor_self_s": summary["layer_self_s"].get("calculus", 0.0),
        "calculus.expansion_s": incl.get("calculus.astheno_expansion", 0.0),
        "calculus.d_calls": calls.get("calculus.exterior_d", 0),
        "calculus.tensor_terms_out": stats["tensor_terms_out"],
        "calculus.tensor_repeat_share": ratio(stats["tensor_repeats"], tensor_calls),
        "classify.substitute_calls": calls.get("classify.substitute", 0),
        "classify.substitute_s": incl.get("classify.substitute", 0.0),
        "classify.analyze_calls": calls.get("classify.analyze_residual", 0),
        "classify.relations_tried": counters["classify.relations_tried"],
        "classify.relation_hit_ratio": ratio(stats["relation_hits"],
                                             counters["classify.relations_tried"]),
        "classify.analyze_s": incl.get("classify.analyze_residual", 0.0),
        "classify.table_s": incl.get("classify.reproduce_table", 0.0),
        "exprio.parse_calls": calls.get("exprio.parse", 0),
        "exprio.parse_bytes": stats["parse_bytes"],
        "exprio.parse_s": incl.get("exprio.parse", 0.0),
        "exprio.print_s": incl.get("exprio.print_text", 0.0) + incl.get("exprio.print_latex", 0.0),
        "exprio.record_s": incl.get("exprio.to_record", 0.0) + incl.get("exprio.from_record", 0.0),
        "fixtures.load_s": summary["setup_s"].get("fixtures.load", 0.0),
        "audit.run_s": incl.get("audit.run_audit", 0.0),
        "audit.checks_failed": stats["checks_failed"],
        "cli.self_s": summary["layer_self_s"].get("cli", 0.0),
    }
