"""Outside-in tracer for the discweil layers.

The benchmark measures each layer from outside the library: it replaces the
public functions and methods named in TARGETS with timing wrappers, in every
``discweil.*`` namespace that bound them.  Hot methods (``CycNumber``,
``FracQSeries``) only feed counters; every other wrapped call also records a
span (id, parent id, name, start, end) in memory, written out when the run
ends.  A name the library no longer has is skipped and its metrics read 0, so
refactors that rename internals do not break the benchmark.

Accounting per wrapped call: ``elapsed`` is its wall time and ``self`` is
``elapsed`` minus the time of the wrapped calls it made.  ``busy`` adds
``elapsed`` only for the outermost active call of a name, so recursion is not
counted twice.  A layer's ``self_s`` is the sum of ``self`` over its names.
A wrapper's own bookkeeping runs outside its [t0, t1] window, so it lands in
the caller's ``self``: a caller that makes many wrapped calls (``lift``, with
its ``CycNumber`` arithmetic) carries their tracing overhead in its self time.
"""

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

SPAN, COUNT = "span", "count"
PACKAGE = "discweil"


def _terms_out(out, args):
    return {"terms_out": len(out.terms)}


def _lift_terms(out, args):
    return {"terms_out": len(out.psi1.terms) + len(out.psi2.terms)}


def _rref_shape(out, args):
    rows = args[0] if args else []
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    return {"rows": nrows, "cells": nrows * ncols, "rank": len(out[0])}


def _groups(out, args):
    return {"groups": len(out)}


# (module, attribute path, trace name, kind, extra counters): the calls the
# workloads' tasks and input generators make
TARGETS = [
    ("cyclo", "CycNumber.__init__", "cyclo.new", COUNT, None),
    ("cyclo", "CycNumber.__mul__", "cyclo.mul", COUNT, None),
    ("cyclo", "CycNumber.__rmul__", "cyclo.mul", COUNT, None),
    ("cyclo", "CycNumber.__add__", "cyclo.add", COUNT, None),
    ("cyclo", "CycNumber.__radd__", "cyclo.add", COUNT, None),
    ("cyclo", "CycNumber.canon", "cyclo.canon", COUNT, None),
    ("cyclo", "CycNumber.inv", "cyclo.inv", COUNT, None),
    ("cyclo", "CycNumber.__sub__", "cyclo.sub", COUNT, None),
    ("cyclo", "CycNumber.__rsub__", "cyclo.sub", COUNT, None),
    ("cyclo", "CycNumber.__neg__", "cyclo.neg", COUNT, None),
    ("cyclo", "CycNumber.__pow__", "cyclo.pow", COUNT, None),
    ("cyclo", "CycNumber.__eq__", "cyclo.eq", COUNT, None),
    ("cyclo", "CycNumber.is_zero", "cyclo.is_zero", COUNT, None),
    ("cyclo", "CycNumber.is_rational", "cyclo.is_rational", COUNT, None),
    ("cyclo", "CycNumber.rational_value", "cyclo.rational_value", COUNT, None),
    ("cyclo", "CycNumber.conjugate", "cyclo.conjugate", COUNT, None),
    ("cyclo", "CycNumber.mod_prime", "cyclo.mod_prime", COUNT, None),
    ("cyclo", "CycNumber.to_json", "cyclo.to_json", COUNT, None),
    ("cyclo", "root_of_unity", "cyclo.root_of_unity", COUNT, None),
    ("cyclo", "exp_frac", "cyclo.exp_frac", COUNT, None),
    ("cyclo", "cyclotomic_poly", "cyclo.cyclotomic_poly", COUNT, None),
    ("qseries", "FracQSeries.__init__", "qseries.new", COUNT, None),
    ("qseries", "FracQSeries.__mul__", "qseries.mul", COUNT, _terms_out),
    ("qseries", "FracQSeries.inverse", "qseries.inverse", COUNT, None),
    ("qseries", "FracQSeries.__pow__", "qseries.pow", COUNT, None),
    ("qseries", "FracQSeries.__truediv__", "qseries.div", COUNT, None),
    ("qseries", "FracQSeries.scale", "qseries.scale", COUNT, None),
    ("qseries", "FracQSeries.coefficient", "qseries.coefficient", COUNT, None),
    ("qseries", "FracQSeries.to_json", "qseries.to_json", COUNT, None),
    ("qseries", "eta_series", "qseries.eta_series", SPAN, None),
    ("qseries", "EtaQuotient.expand", "qseries.expand", SPAN, None),
    ("qseries", "assert_identity", "qseries.assert_identity", SPAN, None),
    ("qseries", "first_mismatch", "qseries.first_mismatch", SPAN, None),
    ("borcherds", "lift", "borcherds.lift", SPAN, _lift_terms),
    ("borcherds", "decompose", "borcherds.decompose", SPAN, None),
    ("borcherds", "relation_to_eta_identity", "borcherds.relation", SPAN, None),
    ("borcherds", "verify_eta_prime", "borcherds.verify_eta_prime", SPAN, None),
    ("borcherds", "eta_identify", "borcherds.eta_identify", SPAN, None),
    ("borcherds", "weyl_vector", "borcherds.weyl_vector", SPAN, None),
    ("borcherds", "catalog_for", "borcherds.catalog_for", SPAN, None),
    ("borcherds", "InputForm.__init__", "borcherds.input_form", SPAN, None),
    ("borcherds", "LiftResult.to_json", "borcherds.to_json", SPAN, None),
    ("linalg", "rational_rref", "linalg.rref", SPAN, _rref_shape),
    ("linalg", "rational_rank", "linalg.rank", SPAN, None),
    ("linalg", "rational_kernel", "linalg.kernel", SPAN, None),
    ("linalg", "primitive_integer_vector", "linalg.primitive", SPAN, None),
    ("linalg", "same_rational_span", "linalg.same_span", SPAN, None),
    ("linalg", "modq_rank", "linalg.modq_rank", SPAN, None),
    ("subgroups", "enumerate_subgroups", "subgroups.enumerate_all", SPAN, _groups),
    ("subgroups", "enumerate_isotropic_subgroups", "subgroups.enumerate_isotropic", SPAN, _groups),
    ("subgroups", "enumerate_self_dual_isotropic", "subgroups.self_dual", SPAN, _groups),
    ("subgroups", "Subgroup.from_gens", "subgroups.from_gens", SPAN, None),
    ("weilrep", "invariant_space", "weilrep.invariant_space", SPAN, None),
    ("weilrep", "verify_selfdual_span", "weilrep.selfdual_span", SPAN, None),
    ("weilrep", "weil_relations_report", "weilrep.relations", SPAN, None),
    ("weilrep", "check_vH_action", "weilrep.vH", SPAN, None),
    ("weilrep", "apply_S", "weilrep.apply_S", SPAN, None),
    ("fqmod", "FqModule.__init__", "fqmod.module", SPAN, None),
    ("fqmod", "FqModule.from_json", "fqmod.from_json", SPAN, None),
    ("fqmod", "FqModule.gauss_sum", "fqmod.gauss_sum", SPAN, None),
    ("fqmod", "FqModule.signature_mod8", "fqmod.signature", SPAN, None),
    ("fqmod", "hyperbolic", "fqmod.hyperbolic", SPAN, None),
    ("fqmod", "hyperbolic_pair", "fqmod.hyperbolic_pair", SPAN, None),
    ("fqmod", "direct_sum", "fqmod.direct_sum", SPAN, None),
    ("lnn_catalog", "assemble", "lnn_catalog.assemble", SPAN, None),
    ("lnn_catalog", "selfdual_list_Np", "lnn_catalog.catalog", SPAN, None),
    ("lnn_catalog", "relations_Np", "lnn_catalog.catalog", SPAN, None),
    ("lnn_catalog", "SelfDualSpec.__post_init__", "lnn_catalog.spec", SPAN, None),
]

# (inner name, outer name): calls of inner made while outer is active
NESTED = [
    ("cyclo.mul", "borcherds.lift"),
    ("qseries.expand", "qseries.assert_identity"),
    ("linalg.modq_rank", "weilrep.invariant_space"),
]

LAYERS = ["cyclo", "qseries", "borcherds", "linalg", "subgroups", "weilrep", "fqmod", "lnn_catalog"]


class Tracer:
    """Counters and spans for the wrapped calls of one process."""

    def __init__(self):
        self.stats = {}  # name -> {"calls", "busy", "self", extra counters...}
        self.nested = {pair: 0 for pair in NESTED}
        self.spans = []  # [id, parent id, name, start, end]
        self.paused = False
        self._frames = []  # child time of each active wrapped call
        self._spans = []  # ids of the active spans
        self._depth = {}  # name -> number of active calls
        self._outers = {}  # inner name -> outer names it is counted under
        for inner, outer in NESTED:
            self._outers.setdefault(inner, []).append(outer)
        self._originals = []

    # -- accounting

    def _enter(self, name, keep_span):
        self._frames.append(0.0)
        self._depth[name] = self._depth.get(name, 0) + 1
        if keep_span:
            sid = len(self.spans)
            self.spans.append([sid, self._spans[-1] if self._spans else None, name, 0.0, 0.0])
            self._spans.append(sid)
            return sid
        return None

    def _exit(self, name, sid, t0, t1, extra):
        elapsed = t1 - t0
        child = self._frames.pop()
        if self._frames:
            self._frames[-1] += elapsed
        depth = self._depth[name] - 1
        self._depth[name] = depth
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "busy": 0.0, "self": 0.0}
        st["calls"] += 1
        st["self"] += elapsed - child
        if depth == 0:
            st["busy"] += elapsed
        if extra:
            for key, v in extra.items():
                st[key] = st.get(key, 0) + v
        for outer in self._outers.get(name, ()):
            if self._depth.get(outer):
                self.nested[(name, outer)] += 1
        if sid is not None:
            self._spans.pop()
            self.spans[sid][3] = t0
            self.spans[sid][4] = t1

    def wrap(self, fn, name, kind, extra_fn=None):
        tracer = self
        keep_span = kind == SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = tracer._enter(name, keep_span)
            t0 = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                extra = extra_fn(out, args) if extra_fn is not None and out is not None else None
                tracer._exit(name, sid, t0, t1, extra)

        return wrapper

    @contextmanager
    def span(self, name, paused=False):
        """A harness span (setup, task, oracle); ``paused`` hides the calls inside."""
        sid = self._enter(name, True)
        was = self.paused
        self.paused = paused
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.paused = was
            self._exit(name, sid, t0, t1, None)

    # -- installation

    def install(self):
        """Wrap every target that exists; return the names that do not."""
        namespaces = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        missing = []
        for modname, path, name, kind, extra in TARGETS:
            try:
                mod = importlib.import_module("%s.%s" % (PACKAGE, modname))
            except ImportError:
                missing.append(name)
                continue
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(mod, owner, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    missing.append(name)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(raw.__func__, name, kind, extra))
                else:
                    new = self.wrap(raw, name, kind, extra)
                self._originals.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(name)
                continue
            new = self.wrap(fn, name, kind, extra)
            for ns in namespaces:
                if getattr(ns, attr, None) is fn:
                    self._originals.append((ns, attr, fn))
                    setattr(ns, attr, new)
        return missing

    def uninstall(self):
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals = []

    # -- results

    def _get(self, name, key):
        return self.stats.get(name, {}).get(key, 0)

    def layer_metrics(self):
        """The per-layer metrics, each 0 when its calls never happened."""
        g = self._get
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                st["self"] for name, st in self.stats.items() if name.split(".")[0] == layer
            )
        for name in ("cyclo.new",):
            out[name + ".calls"] = g(name, "calls")
        for name in ("cyclo.mul", "cyclo.add", "cyclo.canon", "cyclo.inv"):
            out[name + ".calls"] = g(name, "calls")
            out[name + ".busy_s"] = g(name, "busy")
        out["qseries.mul.calls"] = g("qseries.mul", "calls")
        out["qseries.mul.busy_s"] = g("qseries.mul", "busy")
        out["qseries.mul.terms_out"] = g("qseries.mul", "terms_out")
        out["qseries.inverse.calls"] = g("qseries.inverse", "calls")
        out["qseries.inverse.busy_s"] = g("qseries.inverse", "busy")
        out["qseries.pow.calls"] = g("qseries.pow", "calls")
        for name in ("qseries.eta_series", "qseries.expand"):
            out[name + ".calls"] = g(name, "calls")
            out[name + ".busy_s"] = g(name, "busy")
        out["qseries.expand_per_identity"] = _ratio(
            self.nested[("qseries.expand", "qseries.assert_identity")],
            g("qseries.assert_identity", "calls"),
        )
        out["borcherds.lift.calls"] = g("borcherds.lift", "calls")
        out["borcherds.lift.busy_s"] = g("borcherds.lift", "busy")
        out["borcherds.lift.terms_out"] = g("borcherds.lift", "terms_out")
        out["borcherds.cyc_mul_per_term"] = _ratio(
            self.nested[("cyclo.mul", "borcherds.lift")], g("borcherds.lift", "terms_out")
        )
        out["borcherds.decompose.busy_s"] = g("borcherds.decompose", "busy")
        out["borcherds.relation.busy_s"] = g("borcherds.relation", "busy")
        out["linalg.rref.calls"] = g("linalg.rref", "calls")
        out["linalg.rref.busy_s"] = g("linalg.rref", "busy")
        out["linalg.rref.cells"] = g("linalg.rref", "cells")
        out["linalg.rank_ratio"] = _ratio(g("linalg.rref", "rank"), g("linalg.rref", "rows"))
        out["linalg.modq_rank.calls"] = g("linalg.modq_rank", "calls")
        out["linalg.modq_rank.busy_s"] = g("linalg.modq_rank", "busy")
        engines = ("subgroups.enumerate_all", "subgroups.enumerate_isotropic")
        out["subgroups.enumerate.calls"] = sum(g(n, "calls") for n in engines)
        out["subgroups.enumerate.busy_s"] = sum(g(n, "busy") for n in engines)
        out["subgroups.enumerate.groups"] = sum(g(n, "groups") for n in engines)
        out["subgroups.selfdual_ratio"] = _ratio(
            g("subgroups.self_dual", "groups"), g("subgroups.enumerate_isotropic", "groups")
        )
        out["weilrep.invariant_space.calls"] = g("weilrep.invariant_space", "calls")
        out["weilrep.invariant_space.busy_s"] = g("weilrep.invariant_space", "busy")
        out["weilrep.certify.primes_per_call"] = _ratio(
            self.nested[("linalg.modq_rank", "weilrep.invariant_space")],
            g("weilrep.invariant_space", "calls"),
        )
        out["weilrep.relations.busy_s"] = g("weilrep.relations", "busy")
        for name in ("weilrep.vH", "weilrep.apply_S"):
            out[name + ".calls"] = g(name, "calls")
            out[name + ".busy_s"] = g(name, "busy")
        out["fqmod.module.calls"] = g("fqmod.module", "calls")
        out["fqmod.module.busy_s"] = g("fqmod.module", "busy")
        out["fqmod.gauss_sum.calls"] = g("fqmod.gauss_sum", "calls")
        out["fqmod.signature.busy_s"] = g("fqmod.signature", "busy")
        out["lnn_catalog.assemble.calls"] = g("lnn_catalog.assemble", "calls")
        out["lnn_catalog.assemble.busy_s"] = g("lnn_catalog.assemble", "busy")
        out["lnn_catalog.catalog.busy_s"] = g("lnn_catalog.catalog", "busy")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, round(t0, 7), round(t1, 7)]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
