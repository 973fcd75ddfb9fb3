"""Layer tracing from outside the package.

`Tracer.install()` wraps the public entry points of every magicmodels module:
module-level functions, public methods of public classes, and the arithmetic
dunders of Cyc, CMatrix and AlgebraElement.  A wrapped function is replaced in
every module (and the package) that binds it, so calls made through imported
names are seen too.  The per-scalar helpers `scalar_is_zero`,
`scalars_equal`, `scalar_conj`, `scalar_to_complex` and `CMatrix.entry` are
left unwrapped because they run tens of millions of times; their time is
charged to the caller.

Every wrapped call adds its self time (duration minus the time of wrapped
calls inside it) to a bucket of its layer.  Calls with a named metric get
their own bucket; other calls inherit the bucket of a caller in the same
layer, or go to the layer's rest bucket.  Module-level functions and the
`from_*` constructors additionally record spans (name, start, end, parent,
job), kept in memory and written out by the runner at the end.  Calls the
benchmark makes for its own measurements run with the tracer paused, and
their time is charged to no bucket: it counts as child time of the caller,
and is subtracted from the inclusive criterion times.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ["cyclotomic", "matrices", "magic", "groups", "group_algebra",
          "quasiflat", "induced", "cyclic", "serialize", "cli", "acceptance"]

SKIP = {
    ("matrices", "scalar_is_zero"), ("matrices", "scalars_equal"),
    ("matrices", "scalar_conj"), ("matrices", "scalar_to_complex"),
    ("CMatrix", "entry"),
}
DUNDERS = {
    "Cyc": ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__pow__", "__truediv__", "__eq__", "__bool__"],
    "CMatrix": ["__add__", "__sub__", "__neg__", "__mul__", "__eq__"],
    "AlgebraElement": ["__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                       "__eq__"],
}
# Module-level functions called per scalar or per element: no span of their own.
NO_SPAN = {"zeta", "cyc", "cyclotomic_poly", "delta", "cycle_fill",
           "scalar_to_json", "scalar_from_json", "matrix_to_json",
           "matrix_from_json", "perm_to_json", "perm_from_json"}
SPAN_CLASSMETHODS = {"StateOnWords", "DualWordReference", "VirtuallyAbelianData",
                     "PermGroup", "SparseLatinSquare"}

# (layer, qualified name) -> bucket of the named per-layer metric.
BUCKETS = {
    ("magic", "StateOnWords.from_model"): "magic.state_model_s",
    ("magic", "StateOnWords.from_group"): "magic.state_reference_s",
    ("magic", "StateOnWords.from_dual"): "magic.state_reference_s",
    ("magic", "stationarity_check"): "magic.compare_s",
    ("magic", "convolution_idempotency"): "magic.idempotency_s",
    ("magic", "verify_magic"): "magic.verify_magic_s",
    ("magic", "bichon_build"): "magic.bichon_build_s",
    ("matrices", "CMatrix.rank"): "matrices.rank_s",
    ("matrices", "spectral_projection"): "matrices.spectral_s",
    ("matrices", "spectral_multiplicities"): "matrices.spectral_s",
    ("groups", "generate"): "groups.generate_s",
    ("groups", "extend_automorphism"): "groups.extend_automorphism_s",
    ("groups", "abelianization"): "groups.abelianization_s",
    ("group_algebra", "AlgebraElement.__mul__"): "group_algebra.mul_s",
    ("group_algebra", "AlgebraElement.__rmul__"): "group_algebra.mul_s",
    ("quasiflat", "latin_family_search"): "quasiflat.search_s",
    ("quasiflat", "classical_model_from_family"): "quasiflat.family_model_s",
    ("quasiflat", "trace_vector_check"): "quasiflat.trace_vector_s",
    ("quasiflat", "uniform_check"): "quasiflat.uniform_s",
    ("induced", "check_stationarity"): "induced.stationarity_s",
    ("cyclic", "build_cyclic_model"): "cyclic.build_s",
    ("cyclic", "verify_half_liberation"): "cyclic.half_liberation_s",
    ("cyclic", "verify_k_symmetry"): "cyclic.k_symmetry_s",
    ("cyclic", "semidirect_stationarity"): "cyclic.semidirect_s",
}
for _i in range(1, 12):
    BUCKETS[("acceptance", f"criterion_{_i}")] = f"acceptance.criterion_{_i:02d}_self_s"


def bucket_of(layer, qualname):
    """Named bucket of an entry point; serialize splits into reading
    (load_json, *_from_json, *_from_images) and writing (the rest)."""
    if layer == "serialize":
        reading = qualname == "load_json" or "_from_" in qualname
        return "serialize.parse_s" if reading else "serialize.render_s"
    return BUCKETS.get((layer, qualname))


# Call counts: (layer, qualified name) -> (counter, family).  Within one
# family only the outermost call is counted, so Cyc.__eq__ calling is_zero
# is one zero test.
COUNTERS = {
    ("cyclotomic", "Cyc.__mul__"): ("cyclotomic.mul_calls", "mul"),
    ("cyclotomic", "Cyc.__rmul__"): ("cyclotomic.mul_calls", "mul"),
    ("cyclotomic", "Cyc.__add__"): ("cyclotomic.add_calls", "add"),
    ("cyclotomic", "Cyc.__radd__"): ("cyclotomic.add_calls", "add"),
    ("cyclotomic", "Cyc.__sub__"): ("cyclotomic.add_calls", "add"),
    ("cyclotomic", "Cyc.__rsub__"): ("cyclotomic.add_calls", "add"),
    ("cyclotomic", "Cyc.is_zero"): ("cyclotomic.zero_tests", "zero"),
    ("cyclotomic", "Cyc.__bool__"): ("cyclotomic.zero_tests", "zero"),
    ("cyclotomic", "Cyc.__eq__"): ("cyclotomic.zero_tests", "zero"),
    ("cyclotomic", "Cyc.inv"): ("cyclotomic.inv_calls", "inv"),
    ("groups", "extend_automorphism"): ("groups.extend_automorphism_calls", None),
    ("group_algebra", "AlgebraElement.__mul__"): ("group_algebra.mul_calls", None),
    ("group_algebra", "AlgebraElement.__rmul__"): ("group_algebra.mul_calls", None),
    ("quasiflat", "trace_vector_check"): ("quasiflat.trace_vector_calls", None),
    ("induced", "induce"): ("induced.induce_calls", None),
}

# name -> unit, in report order.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "cyclotomic.mul_calls": "count", "cyclotomic.add_calls": "count",
    "cyclotomic.zero_tests": "count", "cyclotomic.inv_calls": "count",
    "matrices.matmul_calls.exact": "count", "matrices.matmul_calls.float": "count",
    "matrices.matmul_s.exact": "s", "matrices.matmul_s.float": "s",
    "matrices.madds.exact": "count", "matrices.madds.float": "count",
    "matrices.useful_madd_share.exact": "share",
    "matrices.rank_s": "s", "matrices.spectral_s": "s",
    "magic.words.model": "count", "magic.words.reference": "count",
    "magic.nonzero_word_share": "share",
    "magic.state_model_s": "s", "magic.state_reference_s": "s",
    "magic.compare_s": "s", "magic.idempotency_s": "s",
    "magic.verify_magic_s": "s", "magic.bichon_build_s": "s",
    "groups.elements_enumerated": "count", "groups.generate_s": "s",
    "groups.extend_automorphism_calls": "count",
    "groups.extend_automorphism_s": "s", "groups.abelianization_s": "s",
    "group_algebra.mul_calls": "count", "group_algebra.mul_s": "s",
    "quasiflat.search_s": "s", "quasiflat.no_family_explored": "count",
    "quasiflat.family_model_s": "s", "quasiflat.trace_vector_calls": "count",
    "quasiflat.trace_vector_s": "s", "quasiflat.uniform_s": "s",
    "induced.induce_calls": "count", "induced.stationarity_s": "s",
    "cyclic.build_s": "s", "cyclic.half_liberation_s": "s",
    "cyclic.k_symmetry_s": "s", "cyclic.semidirect_s": "s",
    "serialize.parse_s": "s", "serialize.render_s": "s",
    "serialize.bytes_read": "bytes", "serialize.bytes_written": "bytes",
})
for _i in range(1, 12):
    PER_LAYER[f"acceptance.criterion_{_i:02d}_s"] = "s"
PER_LAYER.update({"trace.spans": "count", "trace.overhead_share": "share"})


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules          # layer -> module
        self.job = None
        self.paused = False
        self.stack = []                 # frames: [bucket, layer, child_s, span, hook_s]
        self.spans = []                 # [name, start, end, parent, job]
        self.self_s = defaultdict(float)    # (job, bucket) -> seconds
        self.counts = defaultdict(int)      # (job, counter) -> count
        self.inclusive = defaultdict(float)  # (job, criterion) -> seconds
        self.depth = defaultdict(int)       # family -> active calls

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, layer, qualname, span):
        tracer = self
        stack, selfs, counts, depth = self.stack, self.self_s, self.counts, self.depth
        spans = self.spans
        perf = time.perf_counter
        bucket = bucket_of(layer, qualname)
        counter, family = COUNTERS.get((layer, qualname), (None, None))
        after = AFTER.get((layer, qualname))
        rest = f"{layer}.rest"
        criterion = qualname if qualname.startswith("criterion_") else None
        matmul = qualname == "CMatrix.__mul__"

        def wrapped(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            job = tracer.job
            if matmul:
                b = "matrices.matmul_s." + args[0].mode
            elif bucket is not None:
                b = bucket
            elif stack and stack[-1][1] == layer:
                b = stack[-1][0]
            else:
                b = rest
            outer = True
            if family is not None:
                outer = depth[family] == 0
                depth[family] += 1
            if counter is not None and outer:
                counts[(job, counter)] += 1
            sid = stack[-1][3] if stack else None
            if span:
                parent, sid = sid, len(spans)
                spans.append([f"{layer}.{qualname}", 0.0, 0.0, parent, job])
            frame = [b, layer, 0.0, sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if family is not None:
                    depth[family] -= 1
                dur = t1 - t0
                selfs[(job, b)] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    stack[-1][4] += frame[4]
                if span:
                    spans[sid][1], spans[sid][2] = t0, t1
                if criterion:
                    tracer.inclusive[(job, criterion)] += dur - frame[4]
            if after is not None:
                tracer.paused = True
                h0 = perf()
                try:
                    after(tracer, job, args, result)
                finally:
                    tracer.paused = False
                    if stack:
                        hook_s = perf() - h0
                        stack[-1][2] += hook_s
                        stack[-1][4] += hook_s
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", qualname)
        return wrapped

    def install(self, package):
        """Wrap every entry point and rebind it wherever it is bound."""
        binders = [package] + list(self.modules.values())
        for layer, mod in self.modules.items():
            for name, obj in _public_functions(mod):
                if (layer, name) in SKIP:
                    continue
                w = self.wrap(obj, layer, name, span=name not in NO_SPAN)
                _rebind(binders, obj, w)
            for cname, cls in _public_classes(mod):
                self._install_class(layer, cname, cls)
        if "cli" in self.modules:
            cli = self.modules["cli"]
            for key, fn in list(cli.HANDLERS.items()):
                cli.HANDLERS[key] = self.wrap(fn, "cli", fn.__name__, span=True)

    def _install_class(self, layer, cname, cls):
        names = [n for n in vars(cls) if not n.startswith("_")]
        names += [n for n in DUNDERS.get(cname, []) if n in vars(cls)]
        for name in names:
            if (cname, name) in SKIP:
                continue
            raw = vars(cls)[name]
            qual = f"{cname}.{name}"
            if isinstance(raw, classmethod):
                w = self.wrap(raw.__func__, layer, qual,
                              span=cname in SPAN_CLASSMETHODS and name.startswith("from_"))
                setattr(cls, name, classmethod(w))
            elif isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(raw.__func__, layer, qual, False)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self.wrap(raw, layer, qual, False))

    # -- reading out ---------------------------------------------------------

    def take(self) -> dict:
        """Per-job metric values since the last take, then reset."""
        per_job = defaultdict(lambda: defaultdict(float))
        for (job, b), v in self.self_s.items():
            layer = b.split(".", 1)[0]
            per_job[job][f"{layer}.self_s"] += v
            if b in PER_LAYER:
                per_job[job][b] += v
        for (job, c), v in self.counts.items():
            per_job[job][c] += v
        for (job, crit), v in self.inclusive.items():
            per_job[job][f"acceptance.criterion_{int(crit.split('_')[1]):02d}_s"] += v
        self.self_s.clear()
        self.counts.clear()
        self.inclusive.clear()
        return {job: dict(v) for job, v in per_job.items()}


def totals(per_job: dict) -> dict:
    """Sum per-job values into per-layer metrics; shares from their parts."""
    out = {name: 0.0 for name in PER_LAYER}
    sums = defaultdict(float)
    for values in per_job.values():
        for k, v in values.items():
            sums[k] += v
    for name in PER_LAYER:
        if name in sums:
            out[name] = sums[name]
    out["matrices.useful_madd_share.exact"] = _share(
        sums["matrices.useful_madds.exact"], sums["matrices.madds.exact"])
    out["magic.nonzero_word_share"] = _share(
        sums["magic.nonzero_words.model"], sums["magic.words.model"])
    return out


def _share(part, whole):
    return part / whole if whole else 0.0


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


def _public_classes(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if (inspect.isclass(obj) and obj.__module__ == mod.__name__
                and not issubclass(obj, BaseException)):
            yield name, obj


def _rebind(binders, original, replacement):
    for mod in binders:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


# -- measurements taken after a call, with the tracer paused -----------------

def _after_matmul(tracer, job, args, result):
    a, b = args
    mode = a.mode
    madds = a.rows * a.cols * b.cols
    tracer.counts[(job, f"matrices.matmul_calls.{mode}")] += 1
    tracer.counts[(job, f"matrices.madds.{mode}")] += madds
    if mode == "exact":
        is_zero = tracer.modules["matrices"].scalar_is_zero
        col_nnz = [0] * a.cols
        for row in a.data:
            for k, x in enumerate(row):
                if not is_zero(x):
                    col_nnz[k] += 1
        useful = 0
        for k, row in enumerate(b.data):
            if col_nnz[k]:
                useful += col_nnz[k] * sum(1 for x in row if not is_zero(x))
        tracer.counts[(job, "matrices.useful_madds.exact")] += useful


def _after_model_state(tracer, job, args, result):
    is_zero = tracer.modules["matrices"].scalar_is_zero
    table = result.table
    tracer.counts[(job, "magic.words.model")] += len(table)
    tracer.counts[(job, "magic.nonzero_words.model")] += sum(
        1 for v in table.values() if not is_zero(v))


def _after_reference_state(tracer, job, args, result):
    tracer.counts[(job, "magic.words.reference")] += len(result.table)


def _after_generate(tracer, job, args, result):
    tracer.counts[(job, "groups.elements_enumerated")] += len(result[0])


def _after_search(tracer, job, args, result):
    explored = getattr(result, "explored", None)
    if explored is not None:
        tracer.counts[(job, "quasiflat.no_family_explored")] += explored


def _after_load(tracer, job, args, result):
    tracer.counts[(job, "serialize.bytes_read")] += os.path.getsize(args[0])


def _after_dump(tracer, job, args, result):
    tracer.counts[(job, "serialize.bytes_written")] += os.path.getsize(args[1])


AFTER = {
    ("matrices", "CMatrix.__mul__"): _after_matmul,
    ("magic", "StateOnWords.from_model"): _after_model_state,
    ("magic", "StateOnWords.from_group"): _after_reference_state,
    ("magic", "StateOnWords.from_dual"): _after_reference_state,
    ("groups", "generate"): _after_generate,
    ("quasiflat", "latin_family_search"): _after_search,
    ("serialize", "load_json"): _after_load,
    ("serialize", "dump_json"): _after_dump,
}


def load_layers():
    import magicmodels
    mods = {}
    for layer in LAYERS:
        __import__(f"magicmodels.{layer}")
        mods[layer] = sys.modules[f"magicmodels.{layer}"]
    return magicmodels, mods
