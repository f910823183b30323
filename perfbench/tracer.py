"""Per-layer tracing of the simplestfields library from outside.

Every traced function is replaced by a timing wrapper in each loaded
``simplestfields`` module that binds it, because modules import kernels and
helpers by name (``from ._kernels import zx_mulmod``): rebinding only the
defining module would miss most calls.  No library file is edited.

Spans are aggregated into one call tree per request, keyed by the path of
span names from the request's root.  A kernel called 800k times therefore
costs one tree node per distinct parent path, not one record per call.
"""

import importlib
import sys
import time

# Layer -> traced public functions.  Aliases that are due to be deleted
# (hnf_lattice, valid_parameter, periodicity.trace_powers,
# check_index_coprime) are not traced; the functions underneath them are.
LAYERS = {
    "_kernels": [
        "zx_mulmod",
        "zx_divexact",
        "vec_reduce_mod_rows",
        "solve_lower_coords",
        "hnf_rows",
        "zx_resultant",
    ],
    "numutil": ["factorize"],
    "poly": ["discriminant"],
    "family": ["specialize"],
    "linalg": ["left_kernel_mod_p", "rat_matrix_inverse", "bareiss_det"],
    "numberfield": ["number_field", "char_poly", "is_algebraic_integer"],
    "orders": ["p_maximal_order", "make_order", "integral_basis", "parameter_gate"],
    "periodicity": ["symbolic_dual_denominator", "dual_basis", "period_scan", "minimality_witness"],
    "cli": ["main"],
}


class Node:
    """Aggregate of every span with the same path from the request root."""

    __slots__ = ("name", "calls", "busy_s", "self_s", "extra", "children")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.extra = {}
        self.children = {}

    def to_json(self):
        return {
            "name": self.name,
            "calls": self.calls,
            "busy_s": self.busy_s,
            "self_s": self.self_s,
            "extra": self.extra,
            "children": [c.to_json() for c in self.children.values()],
        }


def _valuation(x, p):
    v = 0
    while x and x % p == 0:
        x //= p
        v += 1
    return v


def _p_maximal_key(field, p, strategy="radical"):
    return f"orders.p_maximal_order.{strategy}.p{p}"


def _note_index(node, order, field, p, strategy="radical"):
    node.extra["index_exp"] = node.extra.get("index_exp", 0) + _valuation(order.index, p)


def _note_accept(node, accepted, element):
    node.extra["accepted"] = node.extra.get("accepted", 0) + bool(accepted)


KEYS = {"orders.p_maximal_order": _p_maximal_key}
NOTES = {"orders.p_maximal_order": _note_index, "numberfield.is_algebraic_integer": _note_accept}


class Tracer:
    """Call trees of traced spans, one per request."""

    def __init__(self):
        self.requests = []
        self._stack = []
        self.originals = {}

    def begin_request(self):
        root = Node("request")
        self.requests.append(root)
        self._stack[:] = [[root, 0.0]]

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        key = KEYS.get(name)
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = name if key is None else key(*args, **kwargs)
            parent = stack[-1]
            node = parent[0].children.get(span)
            if node is None:
                node = parent[0].children[span] = Node(span)
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node.calls += 1
                node.busy_s += elapsed
                node.self_s += elapsed - frame[1]
                parent[1] += elapsed
            if note is not None:
                note(node, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced function in every loaded simplestfields module."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"simplestfields.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                name = f"{layer.lstrip('_')}.{fname}"  # metric names start with a letter
                self.originals[name] = fn
                wrappers[id(fn)] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "simplestfields" and not modname.startswith("simplestfields."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:  # the originals stay alive in self.originals
                    setattr(module, attr, wrappers[id(value)])

    def to_json(self):
        return [r.to_json() for r in self.requests]


# Stats reported per traced span; every other span reports calls and busy_s.
STATS = {
    "numberfield.number_field": ("calls", "busy_s", "cache_hits"),
    "numberfield.is_algebraic_integer": ("calls", "accept_ratio"),
    "periodicity.period_scan": ("calls", "self_s", "class_repeat_share"),
    "cli.main": ("calls", "busy_s", "self_s"),
}
# Candidate primes are {2, 3} at the traced degrees 6 and 8.
SATURATION_SPANS = [f"orders.p_maximal_order.{s}.p{p}" for s in ("radical", "enumerate") for p in (2, 3)]
UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "index_exp": "count",
    "cache_hits": "count",
    "accept_ratio": "ratio",
    "class_repeat_share": "ratio",
}


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, names in LAYERS.items():
        for fname in names:
            span = f"{layer.lstrip('_')}.{fname}"
            if span == "orders.p_maximal_order":
                out += [(f"{s}.{stat}", UNITS[stat]) for s in SATURATION_SPANS for stat in ("calls", "busy_s", "index_exp")]
                continue
            out += [(f"{span}.{stat}", UNITS[stat]) for stat in STATS.get(span, ("calls", "busy_s"))]
    return out


def layer_metrics(trees, cache_hits, class_repeat_share):
    """Per-layer metric values of one traced repetition."""
    totals = layer_totals(trees)
    values = {}
    for name, _unit in metric_names():
        span, stat = name.rsplit(".", 1)
        t = totals.get(span, {})
        if stat == "cache_hits":
            values[name] = cache_hits
        elif stat == "class_repeat_share":
            values[name] = class_repeat_share
        elif stat == "accept_ratio":
            values[name] = t.get("accepted", 0) / t["calls"] if t.get("calls") else 0.0
        else:
            values[name] = t.get(stat, 0)
    return values


def layer_totals(trees):
    """Per span name: calls, busy_s (outermost spans only), self_s and extras."""
    totals = {}

    def walk(node, ancestors):
        t = totals.setdefault(node["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += node["calls"]
        t["self_s"] += node["self_s"]
        if node["name"] not in ancestors:
            t["busy_s"] += node["busy_s"]
        for k, v in node["extra"].items():
            t[k] = t.get(k, 0) + v
        inner = ancestors | {node["name"]}
        for child in node["children"]:
            walk(child, inner)

    for tree in trees:
        for child in tree["children"]:
            walk(child, frozenset())
    return totals
