"""Outside-in per-layer tracing of gplab.

The tracer wraps chosen gplab functions (and `numpy.linalg.eigvalsh`) from
outside the package: it replaces each function in every `gplab` module
namespace that binds it, so a name imported with `from .fock import ...`
is traced too.  For each traced function it records the number of calls and
the self time: inclusive wall time minus the inclusive time of traced
children.  A few layers also feed a computed count (see `Tracer.counters`).

Install it in a fresh process, after `import gplab` and before the work to
be measured.  The wrappers stay in place until the process ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref

# Metric prefix, module, attribute path inside the module.  The prefix is the
# metric name stem; `_mat` is written `mat` because metric names must start
# with a letter or digit.
LAYERS = (
    ("words.reduce_tuple", "gplab.words", "CoxeterGroup.reduce_tuple"),
    ("words.sort_with_perm", "gplab.words", "CoxeterGroup.sort_with_perm"),
    ("words.leq_tuple", "gplab.words", "CoxeterGroup.leq_tuple"),
    ("words.ball_tuples", "gplab.words", "CoxeterGroup.ball_tuples"),
    ("fock.TruncatedFock", "gplab.fock", "TruncatedFock.__init__"),
    ("fock.lambda_op", "gplab.fock", "lambda_op"),
    ("fock.rho_op", "gplab.fock", "rho_op"),
    ("fock.creation", "gplab.fock", "creation"),
    ("fock.diagonal", "gplab.fock", "diagonal"),
    ("fock.annihilation", "gplab.fock", "annihilation"),
    ("fock.q_projection", "gplab.fock", "q_projection"),
    ("fock.gauge_average", "gplab.fock", "gauge_average"),
    ("fock.expectation_diag", "gplab.fock", "expectation_diag"),
    ("fock.expectation_subgraph", "gplab.fock", "expectation_subgraph"),
    ("fock.tail_profile", "gplab.fock", "tail_profile"),
    ("fock.guarded_deviation", "gplab.fock", "guarded_deviation"),
    ("fock.guarded_norm", "gplab.fock", "guarded_norm"),
    ("mat.mul", "gplab._mat", "mul"),
    ("mat.norm2", "gplab._mat", "norm2"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("elementary.rewrite_to_elementary", "gplab.elementary", "rewrite_to_elementary"),
    ("elementary.term_matrix", "gplab.elementary", "term_matrix"),
    ("elementary.expression_matrix", "gplab.elementary", "expression_matrix"),
    ("lattice.identification_check", "gplab.lattice", "identification_check"),
    ("lattice.lattice_product", "gplab.lattice", "lattice_product"),
    ("lattice.apply_symbolic", "gplab.lattice", "apply_symbolic"),
    ("lattice.topofree_witness", "gplab.lattice", "topofree_witness"),
    ("growth.sphere_counts", "gplab.growth", "sphere_counts"),
    ("growth.growth_coefficients", "gplab.growth", "growth_coefficients"),
    ("growth.classify", "gplab.growth", "classify"),
    ("analysis.main_identity_checks", "gplab.analysis", "main_identity_checks"),
    ("analysis.expectation_checks", "gplab.analysis", "expectation_checks"),
    ("analysis.gauge_covariance_checks", "gplab.analysis", "gauge_covariance_checks"),
    ("analysis.diagonality_checks", "gplab.analysis", "diagonality_checks"),
    ("analysis.conjugation_positivity_checks", "gplab.analysis", "conjugation_positivity_checks"),
    ("analysis.rewrite_certificate_checks", "gplab.analysis", "rewrite_certificate_checks"),
    ("analysis.rho_lambda_commutation_checks", "gplab.analysis", "rho_lambda_commutation_checks"),
    ("analysis.subgraph_expectation_checks", "gplab.analysis", "subgraph_expectation_checks"),
    ("analysis.lattice_checks", "gplab.analysis", "lattice_checks"),
    ("analysis.tensor_split_checks", "gplab.analysis", "tensor_split_checks"),
    ("analysis.ideal_profile_checks", "gplab.analysis", "ideal_profile_checks"),
    ("analysis.traciality_probe_checks", "gplab.analysis", "traciality_probe_checks"),
    ("analysis.simplicity_report", "gplab.analysis", "simplicity_report"),
    ("analysis.trace_report", "gplab.analysis", "trace_report"),
    ("analysis.nuclearity_exactness_report", "gplab.analysis", "nuclearity_exactness_report"),
)

# Counters fed by hooks on single layers; all are exact, repeatable counts.
COUNTERS = (
    "fock.q_projection.repeats",  # calls whose (space, word) was built before
    "mat.norm2.power_calls",  # calls that take the power-iteration path
    "kernel.eigvalsh.n3",  # sum of n^3 over eigvalsh calls (operation count)
    "elementary.terms_out",  # terms returned by rewrite_to_elementary
)

# Judged from the argument alone, so the figure keeps its meaning if the
# threshold constant moves or disappears: sparse and both sides >= 256.
POWER_PATH_MIN_DIM = 256


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) or None if the target no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    return (owner, parts[-1], fn) if callable(fn) else None


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name, _, _ in LAYERS}
        self.self_s = {name: 0.0 for name, _, _ in LAYERS}
        self.counters = {name: 0 for name in COUNTERS}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._paused = False
        self._built = weakref.WeakKeyDictionary()

    # -- hooks: run outside any layer's self time ---------------------------------

    def _on_q_projection(self, args, kwargs):
        space = args[0] if args else kwargs["space"]
        w = args[1] if len(args) > 1 else kwargs["w"]
        fock = sys.modules["gplab.fock"]
        try:
            key = fock._as_letters(space, w)
        except (AttributeError, ValueError, TypeError):
            key = tuple(getattr(w, "letters", w))
        seen = self._built.setdefault(space, set())
        if key in seen:
            self.counters["fock.q_projection.repeats"] += 1
        seen.add(key)

    def _on_norm2(self, args, kwargs):
        import scipy.sparse as sp

        a = args[0] if args else kwargs.get("a")
        if sp.issparse(a) and a.nnz and min(a.shape) >= POWER_PATH_MIN_DIM:
            self.counters["mat.norm2.power_calls"] += 1

    def _on_eigvalsh(self, args, kwargs):
        shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
        if len(shape) >= 2:
            batch = 1
            for d in shape[:-2]:
                batch *= int(d)
            self.counters["kernel.eigvalsh.n3"] += batch * int(shape[-1]) ** 3

    def _after_rewrite(self, result):
        self.counters["elementary.terms_out"] += len(result)

    # -- wrapping -------------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            hook_s = 0.0
            if before is not None:
                h0 = time.perf_counter()
                self._paused = True
                try:
                    before(args, kwargs)
                finally:
                    self._paused = False
                hook_s = time.perf_counter() - h0
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - child[0]
                if stack:
                    # Hook time belongs to no layer: exclude it from the parent.
                    stack[-1][0] += dt + hook_s
            if after is not None:
                after(result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every layer that exists; record the ones that do not."""
        hooks = {
            "fock.q_projection": (self._on_q_projection, None),
            "mat.norm2": (self._on_norm2, None),
            "kernel.eigvalsh": (self._on_eigvalsh, None),
            "elementary.rewrite_to_elementary": (None, self._after_rewrite),
        }
        replaced = {}
        for name, module_name, path in LAYERS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(name, fn, before, after)
            setattr(owner, attr, wrapper)
            replaced[id(fn)] = (fn, wrapper)
        # Rebind names imported elsewhere, e.g. `from .fock import q_projection`.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gplab" or mod_name.startswith("gplab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        return self
