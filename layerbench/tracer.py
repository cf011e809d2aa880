"""Per-layer tracing by wrapping bsfour's public functions from outside.

Tracer.install() replaces, on each layer module, the public module
functions and the public methods (plus the arithmetic dunders and
__init__) of the classes the module defines, with wrappers that time
the call and count work at the call boundary.  Each layer's self time
is its spans minus their child spans.  The wrapper's own bookkeeping
is charged to the "trace" bucket, not to the caller's layer.

Spans (name, start, end, parent) are kept in memory for the layers
above the element level and written out by dump().  The kernel and
bsgroup layers are called hundreds of thousands of times a round, so
their calls are aggregated into time and counts instead.
"""

import collections
import enum
import importlib
import inspect
import json
import time

LAYERS = ("_kernel", "bsgroup", "groupring", "foxchain", "intlinalg",
          "hermform", "invariants", "cli")
_LAYER_NAME = {"_kernel": "kernel"}
AGGREGATED = ("kernel", "bsgroup")
WRAPPED_DUNDERS = ("__init__", "__mul__", "__rmul__", "__add__", "__radd__",
                   "__sub__", "__rsub__", "__neg__", "__eq__")
MAX_SPANS = 200000

# per-layer metrics whose value is a count, by the wrapped callable
CALL_COUNTS = {
    "kernel.ring_addmul.calls": "kernel.ring_addmul",
    "kernel.ring_mul.calls": "kernel.ring_mul",
    "groupring.mul.calls": "groupring.GroupRingElt.__mul__",
    "foxchain.build_complex.calls": "foxchain.build_complex",
    "intlinalg.homology.calls": "intlinalg.homology_of_complex",
    "intlinalg.signature.calls": "intlinalg.signature",
    "intlinalg.invariant_factors.calls":
        "intlinalg.AbelianGroup.from_invariant_factors",
    "intlinalg.smith_normal_form.calls": "intlinalg.smith_normal_form",
    "hermform.mat_mul.calls": "hermform.mat_mul",
    "hermform.form_checks": "hermform.HermitianForm.__init__",
    "hermform.invert_matrix.calls": "hermform.invert_matrix",
    "invariants.descriptors": "invariants.ManifoldDescriptor.__init__",
}
WORK_COUNTS = ("kernel.ring_addmul.empty_calls", "kernel.term_products",
               "kernel.eval_word.letters", "groupring.project.terms",
               "groupring.json_elements", "hermform.cert_max_terms",
               "cli.json_bytes_in", "cli.json_bytes_out")
COUNT_METRICS = tuple(CALL_COUNTS) + WORK_COUNTS
SELF_METRICS = tuple("%s.self_refs" % _LAYER_NAME.get(m, m) for m in LAYERS)


def _ring_products(counts, args):
    p, q = args[1], args[2]
    counts["kernel.term_products"] += len(p) * len(q)
    if not p or not q:
        counts["kernel.ring_addmul.empty_calls"] += 1


def _ring_mul_products(counts, args):
    counts["kernel.term_products"] += len(args[0]) * len(args[1])


def _eval_letters(counts, args):
    counts["kernel.eval_word.letters"] += len(args[0])


def _project_terms(counts, args):
    counts["groupring.project.terms"] += len(args[0].terms)


def _json_element(counts, args):
    counts["groupring.json_elements"] += 1


def _form_cert_terms(counts, args):
    inverse = args[0].inverse
    if inverse is not None:
        biggest = max((len(p.terms) for row in inverse for p in row),
                      default=0)
        if biggest > counts["hermform.cert_max_terms"]:
            counts["hermform.cert_max_terms"] = biggest


# work counted at the call boundary, after the call, keyed like CALL_COUNTS
WORK_HOOKS = {
    "kernel.ring_addmul": _ring_products,
    "kernel.ring_mul": _ring_mul_products,
    "kernel.eval_word": _eval_letters,
    "groupring.FreeRingElt.project": _project_terms,
    "groupring.GroupRingElt.to_json": _json_element,
    "groupring.GroupRingElt.from_json": _json_element,
    "hermform.HermitianForm.__init__": _form_cert_terms,
}


class Tracer:
    """Wraps the layers once; counts and self times accumulate until
    take_counts() or take_self_seconds() hands them over and resets."""

    def __init__(self):
        self.stack = []
        self.self_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.spans = []
        self.next_span = 0
        self.keep_spans = False
        self.dropped_spans = 0

    # -- installation ----------------------------------------------------

    def install(self):
        for modname in LAYERS:
            module = importlib.import_module("bsfour." + modname)
            layer = _LAYER_NAME.get(modname, modname)
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and (
                        modname == "_kernel"
                        or obj.__module__ == module.__name__):
                    setattr(module, name,
                            self._wrap(layer, "%s.%s" % (layer, name), obj))
                elif (inspect.isclass(obj)
                      and obj.__module__ == module.__name__
                      and not issubclass(obj, enum.Enum)):
                    self._wrap_class(layer, obj)
        return self

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(layer, qual, attr.__func__))
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(layer, qual, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, qual, attr)
            else:
                continue
            setattr(cls, name, wrapped)

    def _wrap(self, layer, qual, fn):
        clock = time.perf_counter
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        counts = self.counts
        hook = WORK_HOOKS.get(qual)
        keep = layer not in AGGREGATED

        def wrapper(*args, **kwargs):
            # frame: [child seconds, span id]; an aggregated call is
            # transparent, so its children hang off its caller's span
            parent = stack[-1][1] if stack else -1
            if keep:
                self.next_span += 1
                frame = [0.0, self.next_span]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                self_s[layer] += (t1 - t0) - frame[0]
                calls[qual] += 1
                if done and hook is not None:
                    hook(counts, args)
                if keep and self.keep_spans:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((frame[1], qual, t0, t1, parent))
                    else:
                        self.dropped_spans += 1
                t2 = clock()
                self_s["trace"] += t2 - t1
                if stack:
                    stack[-1][0] += t2 - t0

        return wrapper

    # -- reading ----------------------------------------------------------

    def add(self, extra):
        for name, value in extra.items():
            self.counts[name] += value

    def take_self_seconds(self):
        """Self seconds per layer since the last call, then reset."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out

    def take_counts(self):
        """Count metrics since the last call, then reset."""
        out = {name: self.calls[qual] for name, qual in CALL_COUNTS.items()}
        for name in WORK_COUNTS:
            out[name] = self.counts[name]
        self.calls.clear()
        self.counts.clear()
        return out

    def dump(self, path, summary):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary,
                       "dropped_spans": self.dropped_spans,
                       "spans": [{"id": i, "name": n, "start": s,
                                  "end": e, "parent": p}
                                 for i, n, s, e, p in self.spans]}, fh)
