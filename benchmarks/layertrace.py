"""Per-layer tracing of boxkernel from outside the package.

Each traced function is replaced, at every module binding that refers to it
(``spectral.truncation_tail_bound`` as well as ``boxkernel.truncation_tail_bound``,
``verify.bessel_i_scaled`` as well as ``specfun.bessel_i_scaled``), by a wrapper
that records a span ``(id, group, start, end, parent)`` and returns the result
unchanged.  Spans of one pass stay in memory; busy and self times are derived
from them when the pass ends.  Functions called once per reflection term are
counted, not timed.

Several functions can share one group (the metric prefix): the Gegenbauer
sequence and table are one ``specfun.gegenbauer`` layer, and the eigenfunction
vector and matrix builders are one ``spectral.eigenfunctions`` layer.  A call
into a group that is already active is not recorded again, so busy time never
counts the same interval twice.
"""

import gzip
import math
import sys
import time
from array import array

import numpy as np

_LIVE_EXPONENT = -52.0 * math.log(2.0)  # terms below 2**-52 of the call's largest are dead

_HOOK_GROUP = "trace.hooks"  # bookkeeping time, charged here so callers' self time excludes it


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    """Wraps boxkernel's public functions and turns their spans into per-layer metrics."""

    def __init__(self):
        self.groups = [_HOOK_GROUP]
        self.counted = set()  # groups whose calls are counted but not timed
        self.missing = []  # (module, function) targets absent from this version of the package
        self._active = [False]
        self._stack = []
        self._begin_pass()

    # -- per-pass state ---------------------------------------------------

    def _begin_pass(self):
        self._spans = array("d")
        self._next_id = 0
        self._counts = {}
        self._seen_spectral = set()
        self._seen_phase = set()

    def _bump(self, key, n=1):
        self._counts[key] = self._counts.get(key, 0) + n

    # -- hooks: counts taken from arguments and results ----------------------

    def _spectral_call(self, args, kwargs, result):
        key = (float(_arg(args, kwargs, 0, "nu")), float(_arg(args, kwargs, 3, "lam")),
               _arg(args, kwargs, 4, "policy"))
        if key in self._seen_spectral:
            self._bump("spectral.resolve_repeats")
        self._seen_spectral.add(key)
        self._bump("spectral.terms", result.terms_used)

    def _gegenbauer_values(self, args, kwargs, result):
        self._bump("specfun.gegenbauer.values", int(np.size(result)))

    def _bessel_regime(self, args, kwargs, result):
        mu = float(_arg(args, kwargs, 0, "order"))
        z = float(_arg(args, kwargs, 1, "z"))
        if z < max(36.0, mu * mu):
            self._bump("specfun.bessel_i_scaled.series")

    def _addition_terms(self, module):
        def hook(args, kwargs, result):
            n_terms = _arg(args, kwargs, 4, "n_terms")
            if n_terms is None:
                n_terms = module.addition_formula_terms(_arg(args, kwargs, 3, "lam"))
            self._bump("closedform.addition_terms", n_terms)
        return hook

    def _live_terms(self, args, kwargs, result):
        exponents = [t.gauss_exponent + t.potential_correction for t in result]
        if exponents:
            floor = max(exponents) + _LIVE_EXPONENT
            self._bump("pathsum.live_terms", sum(e >= floor for e in exponents))
            self._bump("pathsum.decomposed_terms", len(exponents))

    def _path_terms(self, args, kwargs, result):
        self._bump("pathsum.terms", result.terms_used)

    def _phase_key(self, args, kwargs, result):
        self._bump("pathsum.reflection_phase.calls")
        key = (_arg(args, kwargs, 0, "k"), _arg(args, kwargs, 1, "parity"),
               float(_arg(args, kwargs, 2, "nu")), _arg(args, kwargs, 3, "prescription", "A"))
        if key in self._seen_phase:
            self._bump("pathsum.phase_repeats")
        self._seen_phase.add(key)

    # -- wrappers ------------------------------------------------------------

    def _group_id(self, group):
        if group not in self.groups:
            self.groups.append(group)
            self._active.append(False)
        return self.groups.index(group)

    def _timed(self, fn, gid, hook):
        active, stack, clock = self._active, self._stack, time.perf_counter
        hook_gid = 0

        def wrapper(*args, **kwargs):
            if active[gid]:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            active[gid] = True
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[gid] = False
                self._spans.extend((sid, gid, t0, t1, parent))
            if hook is not None:
                hid = self._next_id
                self._next_id += 1
                hook(args, kwargs, result)
                self._spans.extend((hid, hook_gid, t1, clock(), parent))
            return result

        return wrapper

    @staticmethod
    def _counted(fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding inside the loaded boxkernel modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "boxkernel" or name.startswith("boxkernel."))]
        closedform = sys.modules.get("boxkernel.closedform")
        targets = (
            ("specfun.gegenbauer", "specfun", "gegenbauer_sequence", self._gegenbauer_values),
            ("specfun.gegenbauer", "specfun", "gegenbauer_table", self._gegenbauer_values),
            ("specfun.bessel_i_scaled", "specfun", "bessel_i_scaled", self._bessel_regime),
            ("spectral.truncation_tail_bound", "spectral", "truncation_tail_bound", None),
            ("spectral.eigenfunctions", "spectral", "eigenfunctions", None),
            ("spectral.eigenfunctions", "spectral", "_eigenfunction_matrix", None),
            ("spectral.kernel_spectral", "spectral", "kernel_spectral", self._spectral_call),
            ("spectral.kernel_spectral_profile", "spectral", "kernel_spectral_profile", None),
            ("closedform.kernel_closed", "closedform", "kernel_closed", None),
            ("closedform.addition_formula_lhs", "closedform", "addition_formula_lhs",
             self._addition_terms(closedform)),
            ("closedform.addition_formula_rhs", "closedform", "addition_formula_rhs", None),
            ("pathsum.decompose", "pathsum", "decompose", self._live_terms),
            ("pathsum.kernel_pathsum", "pathsum", "kernel_pathsum_nu1", self._path_terms),
            ("pathsum.kernel_pathsum", "pathsum", "kernel_pathsum_nu2", self._path_terms),
            ("pathsum.kernel_pathsum", "pathsum", "kernel_pathsum_general", self._path_terms),
            ("pathsum.reflection_phase", "pathsum", "reflection_phase", None),
            ("verify.gauss_legendre_on_0_pi", "verify", "gauss_legendre_on_0_pi", None),
            ("verify.check_orthonormality", "verify", "check_orthonormality", None),
            ("verify.check_gaussian_bessel_link", "verify", "check_gaussian_bessel_link", None),
            ("verify.check_semigroup", "verify", "check_semigroup", None),
            ("verify.evaluate_method", "verify", "evaluate_method", None),
            ("verify.compare_methods", "verify", "compare_methods", None),
            ("cli.main", "cli", "main", None),
        )
        for group, module, name, hook in targets:
            if group == "pathsum.reflection_phase":
                self.counted.add(group)
            else:
                gid = self._group_id(group)  # registered even when missing, so it reports zeros
            fn = getattr(sys.modules.get("boxkernel." + module), name, None)
            if fn is None:
                self.missing.append(f"{module}.{name}")
                continue
            if group in self.counted:
                wrapper = self._counted(fn, self._phase_key)
            else:
                wrapper = self._timed(fn, gid, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    # -- per-pass metrics ------------------------------------------------------

    def end_pass(self):
        """Per-layer metrics of the pass just finished; starts a new pass."""
        spans = np.frombuffer(self._spans, dtype=float).reshape(-1, 5)
        sid = spans[:, 0].astype(np.int64)
        gid = spans[:, 1].astype(np.int64)
        dur = spans[:, 3] - spans[:, 2]
        parent = spans[:, 4].astype(np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=self._next_id)
        ngroups = len(self.groups)
        calls = np.bincount(gid, minlength=ngroups)
        busy = np.bincount(gid, weights=dur, minlength=ngroups)
        self_time = np.bincount(gid, weights=dur - covered[sid], minlength=ngroups)

        counts = self._counts
        out = {}
        for g, group in enumerate(self.groups):
            if group == _HOOK_GROUP:
                continue
            out[f"{group}.calls"] = int(calls[g])
            out[f"{group}.busy_s"] = float(busy[g])
            out[f"{group}.self_s"] = float(self_time[g])
        for group in self.counted:
            out[f"{group}.calls"] = counts.get(f"{group}.calls", 0)
        for key in ("spectral.terms", "specfun.gegenbauer.values", "closedform.addition_terms",
                    "pathsum.terms"):
            out[key] = counts.get(key, 0)

        def share(num, den):
            return counts.get(num, 0) / den if den else 0.0

        out["spectral.resolve_repeat_frac"] = share(
            "spectral.resolve_repeats", out.get("spectral.kernel_spectral.calls", 0))
        out["specfun.bessel_i_scaled.series_frac"] = share(
            "specfun.bessel_i_scaled.series", out.get("specfun.bessel_i_scaled.calls", 0))
        out["pathsum.live_term_frac"] = share(
            "pathsum.live_terms", counts.get("pathsum.decomposed_terms", 0))
        out["pathsum.phase_repeat_frac"] = share(
            "pathsum.phase_repeats", counts.get("pathsum.reflection_phase.calls", 0))

        self._last_spans = self._spans
        self._begin_pass()
        return out

    def write_spans(self, path):
        """Write the last finished pass's spans as gzip'd CSV: id,name,start_s,end_s,parent."""
        spans = np.frombuffer(self._last_spans, dtype=float).reshape(-1, 5)
        spans = spans[np.argsort(spans[:, 0], kind="stable")]
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid, gid, t0, t1, parent in spans.tolist():
                fh.write(f"{int(sid)},{self.groups[int(gid)]},{t0!r},{t1!r},{int(parent)}\n")
