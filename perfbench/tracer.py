"""In-memory tracer for one benchmark child process.

``install`` wraps the public qcrys functions named in ``LAYERS`` from the
outside; the package itself is not edited.  Three kinds of wrapper exist:

* span: records (name, start, end, parent span, time covered by children)
  for every call.  Used at layer boundaries, where calls are few enough
  to keep one record each.
* timed: aggregates calls, inclusive time and self time per name without
  a record per call.  Used for the per-entry scalar kernel, which is
  called millions of times; its time still counts as child time of the
  enclosing span, so span self times exclude it.
* counted: only counts calls.  Used for ``apply_move``, whose time is
  meant to stay inside the enclosing span (the word walks of the relation
  engine belong to the verify layer's self time).

Each wrapped function object is replaced wherever a qcrys module or class
binds it, so names rebound by ``from .scalar import sqrt_rat`` are caught
too.  ``Tracer.dump`` returns everything as plain JSON data; the parent
process derives per-layer numbers from it (see ``run.layer_metrics``).
"""

from __future__ import annotations

import functools
import json
import time
import types

SPAN, TIMED, COUNTED = "span", "timed", "counted"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child_s]
        self.timed: dict[str, list] = {}  # name -> [calls, incl_s, self_s, depth]
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.cache_infos: dict[str, object] = {}  # name -> lru_cache.cache_info
        # One frame per active wrapped call: [child_s, index of the
        # innermost enclosing span record, or -1].
        self._stack: list[list] = []

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` encloses the current call."""
        return any(f[1] >= 0 and self.spans[f[1]][0] == name for f in self._stack[:-1])

    def span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1][1] if stack else -1, 0.0]
            frame = [0.0, len(spans)]
            spans.append(record)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                record[1], record[2], record[4] = start, end, frame[0]

        return wrapper

    def timed_call(self, name, fn, before=None):
        agg = self.timed.setdefault(name, [0, 0.0, 0.0, 0])
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            agg[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                agg[3] -= 1
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[2] += dur - frame[0]
                if not agg[3]:
                    agg[1] += dur

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "timed": {k: v[:3] for k, v in self.timed.items()},
            "counts": self.counts,
            "extra": self.extra,
            "cache_misses": {k: f().misses for k, f in self.cache_infos.items()},
        }


# (module, attribute or Class.method, trace name, kind).  Every function
# object listed is wrapped once and rebound wherever qcrys binds it.
LAYERS = (
    ("scalar", "sqrt_rat", "scalar.sqrt_rat", TIMED),
    ("scalar", "qint_at", "scalar.qint_at", TIMED),
    ("scalar", "Radical.__mul__", "scalar.radical_mul", TIMED),
    ("scalar", "Radical.__add__", "scalar.radical_add", TIMED),
    ("crystal", "build_model", "crystal.build_model", SPAN),
    ("crystal", "apply_move", "crystal.apply_move", COUNTED),
    ("rep", "op_e_classical", "rep.generators", SPAN),
    ("rep", "op_e_deformed", "rep.generators", SPAN),
    ("rep", "op_h", "rep.generators", SPAN),
    ("rep", "deform_factor", "rep.generators", SPAN),
    ("rep", "deform_factor_inv", "rep.generators", SPAN),
    ("rep", "cz_factor", "rep.generators", SPAN),
    ("rep", "LinOp.__matmul__", "rep.matmul", SPAN),
    ("rep", "LinOp.__add__", "rep.linop_add", SPAN),
    ("rep", "LinOp.column", "rep.column", SPAN),
    ("rep", "LinOp.apply_vec", "rep.apply_vec", SPAN),
    ("boson", "vdj_so3", "boson.build", SPAN),
    ("boson", "standard_so3", "boson.build", SPAN),
    ("boson", "check_so3", "boson.check_so3", SPAN),
    ("boson", "check_so3_towers", "boson.check_so3_towers", SPAN),
    ("verify", "check_cartan", "verify.cartan", SPAN),
    ("verify", "check_ladder", "verify.ladder", SPAN),
    ("verify", "check_serre", "verify.serre", SPAN),
    ("verify", "check_map", "verify.map", SPAN),
    ("verify", "SuiteResult.to_json", "cli.render", SPAN),
    ("report", "RelationReport.to_json_dict", "cli.render", SPAN),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry of ``LAYERS`` plus the CLI's ``json.dumps``."""
    import qcrys.boson
    import qcrys.cli
    import qcrys.crystal
    import qcrys.rep
    import qcrys.report
    import qcrys.scalar
    import qcrys.verify

    modules = {
        m.__name__.rsplit(".", 1)[1]: m
        for m in (
            qcrys.scalar,
            qcrys.crystal,
            qcrys.rep,
            qcrys.report,
            qcrys.boson,
            qcrys.verify,
            qcrys.cli,
        )
    }
    namespaces = []
    for m in modules.values():
        namespaces.append(m)
        namespaces.extend(
            v for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__
        )

    def rebind(original, wrapper):
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)

    extra = tracer.extra
    tracer.cache_infos["scalar.sqrt_rat.distinct"] = qcrys.scalar._sqrt_frac.cache_info

    def sqrt_bits(args):
        r = args[0]
        bits = abs(r.numerator * r.denominator).bit_length()
        if bits > extra.get("scalar.sqrt_rat.max_bits", 0):
            extra["scalar.sqrt_rat.max_bits"] = bits

    def model_dim(args, model):
        extra["crystal.dim"] = model.dim

    def generator_nnz(args, op):
        if not tracer.inside("rep.generators"):
            extra["rep.generators.nnz"] = extra.get("rep.generators.nnz", 0) + len(op.entries)

    hooks = {
        "scalar.sqrt_rat": sqrt_bits,
        "crystal.build_model": model_dim,
        "rep.generators": generator_nnz,
    }
    for module, attr, name, kind in LAYERS:
        owner = modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        if kind == SPAN:
            wrapper = tracer.span(name, original, hooks.get(name))
        elif kind == TIMED:
            wrapper = tracer.timed_call(name, original, hooks.get(name))
        else:
            wrapper = tracer.counted(name, original)
        rebind(original, wrapper)

    cli_json = types.ModuleType("json")
    cli_json.__dict__.update(vars(json))
    cli_json.dumps = tracer.span("cli.render", json.dumps)
    qcrys.cli.json = cli_json
