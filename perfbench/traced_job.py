"""Run one kummer-codes CLI job in this process with its layers traced.

Usage: python3 perfbench/traced_job.py TRACE.json JOB_ID CLI_ARG [CLI_ARG ...]

The layers are traced from outside the package: each entry point in
LAYERS is replaced by a timing wrapper, by identity in every
``kummercodes.*`` namespace (so calls inside a module are traced too),
or on its class for a method.  Hot inner functions such as field
arithmetic and ``evaluate_monomial`` are deliberately not wrapped; their
time shows as the self time of the layer that calls them.

Spans ``[name, start_ns, end_ns, parent]`` and counters are kept in
memory and written to TRACE.json when the job ends, together with the
per-layer totals: ``calls``, ``s`` (time in outermost spans of that
name) and ``self_s`` (span time minus the time of its child spans).
Stdout is the CLI's own, unchanged, so run.py can compare it with the
untraced job.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, function or Class.method)
LAYERS = {
    "gf.field_init": ("kummercodes.gf", "FiniteField.__init__"),
    "gf.rref": ("kummercodes.gf", "Matrix.rref"),
    "gf.nullspace": ("kummercodes.gf", "Matrix.nullspace"),
    "curve.find_roots": ("kummercodes.curve", "find_roots"),
    "curve.places": ("kummercodes.curve", "KummerCurve.places"),
    "rrlattice.omega_enumerate": ("kummercodes.rrlattice", "omega_enumerate"),
    "agcode.build_cl": ("kummercodes.agcode", "build_cl"),
    "agcode.build_comega": ("kummercodes.agcode", "build_comega"),
    "agcode.export_text": ("kummercodes.agcode", "LinearCode.export_text"),
    "agcode.brute_force_distance": ("kummercodes.agcode", "brute_force_distance"),
    "weierstrass.pure_gap": ("kummercodes.weierstrass", "pure_gap"),
    "weierstrass.box_search": ("kummercodes.weierstrass", "box_search"),
    "verify.verify_example": ("kummercodes.verify", "verify_example"),
}


class Tracer:
    """Spans and counters of one job, held in memory."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index or -1]
        self.stack = []      # indices of the open spans
        self.counters = Counter()
        self.missing = []    # LAYERS entries this version of the package lacks
        self._seen_places = {}

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def totals(self):
        """Per-layer calls, inclusive seconds and self seconds."""
        child_ns = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            layer = out[name]
            layer["calls"] += 1
            layer["self_s"] += (end - start - child_ns[index]) / 1e9
            outermost = True
            while parent >= 0:
                if self.spans[parent][0] == name:
                    outermost = False
                    break
                parent = self.spans[parent][3]
            if outermost:
                layer["s"] += (end - start) / 1e9
        return dict(out)


# Counters computed from a call's arguments and result once its span has
# closed, so their cost is not part of any span.

def _count_rref(tracer, args, result):
    matrix = args[0]
    tracer.counters["gf.rref.cells"] += matrix.nrows * matrix.ncols


def _count_places(tracer, args, result):
    # places() is cached per curve: count each curve's list once.
    if id(result) not in tracer._seen_places:
        tracer._seen_places[id(result)] = result
        tracer.counters["curve.places.count"] += len(result)


def _count_points(tracer, args, result):
    tracer.counters["rrlattice.omega_enumerate.points"] += len(result)


def _count_evaluations(tracer, args, result):
    from kummercodes import rrlattice
    curve, G, places = args[:3]
    enumerate_points = getattr(rrlattice.omega_enumerate, "__wrapped__",
                               rrlattice.omega_enumerate)
    tracer.counters["agcode.build_cl.evaluations"] += (
        len(enumerate_points(curve, G)) * len(places))


def _count_bytes(tracer, args, result):
    tracer.counters["agcode.export_text.bytes"] += len(result.encode("utf-8"))


def _count_codewords(tracer, args, result):
    code = args[0]
    if code.k:
        tracer.counters["agcode.brute_force_distance.codewords"] += code.field.q ** code.k - 1


def _count_hits(tracer, args, result):
    if result:
        tracer.counters["weierstrass.pure_gap.hits"] += 1


COUNTERS = {
    "gf.rref": _count_rref,
    "curve.places": _count_places,
    "rrlattice.omega_enumerate": _count_points,
    "agcode.build_cl": _count_evaluations,
    "agcode.export_text": _count_bytes,
    "agcode.brute_force_distance": _count_codewords,
    "weierstrass.pure_gap": _count_hits,
}


def install(tracer):
    """Wrap every LAYERS entry point; record the ones this package lacks."""
    import kummercodes.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [module for name, module in sorted(sys.modules.items())
               if name == "kummercodes" or name.startswith("kummercodes.")]
    for name, (module_name, qualname) in LAYERS.items():
        module = sys.modules.get(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            tracer.missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, COUNTERS.get(name))
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv):
    trace_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    if tracer.missing:
        print(f"traced_job: layers not found: {', '.join(tracer.missing)}", file=sys.stderr)
    from kummercodes import cli

    job = tracer.wrap("job", cli.main)
    try:
        return job(cli_args)
    finally:
        sys.stdout.flush()
        record = {
            "job": job_id,
            "argv": cli_args,
            "missing_layers": tracer.missing,
            "layers": tracer.totals(),
            "counters": dict(tracer.counters),
            "spans": tracer.spans,
        }
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
