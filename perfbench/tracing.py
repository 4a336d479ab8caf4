"""Outside-in tracing: wrappers installed on the program's module attributes.

Each wrapper replaces a name where callers look it up (for example
``limits.erfc_c`` and ``cdi.erfc_c``), so the program's source is never
touched.  Layer boundaries record spans; the hot special-function leaves
and ``quad`` only bump aggregate counters, because a span per call would
cost more than the call.  ``Tracer.uninstall`` puts every original back;
the untraced run never constructs a Tracer.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

from metrics import Span


def _n_of_params(params, *_a, **_k):
    return f"N{params.N}"


def _n_of_second(_first, n, *_a, **_k):
    return f"N{n}"


def _cmd_of_argv(argv=None, *_a, **_k):
    return argv[0] if argv else None


# (module, attribute, tag function or None); the span name is module.attribute
SPAN_TARGETS = (
    ("cli", "main", _cmd_of_argv),
    ("sampler", "sample_ensemble", _n_of_params),
    ("sampler", "haar_symplectic_unitary", lambda n, *_a, **_k: f"N{n}"),
    ("sampler", "wishart_inv_sqrt", _n_of_second),
    ("sampler", "ginibre_quaternion", _n_of_second),
    ("finitekernel", "rescaled_kernel", _n_of_params),
    ("finitekernel", "rescaled_r1", None),
    ("finitekernel", "skew_kernel_tilde", None),
    ("finitekernel", "skew_kernel_tilde_dzeta", None),
    ("finitekernel", "skew_kernel_via_sop", None),
    ("finitekernel", "skew_op_system", None),
    ("finitekernel", "correlation_rk", lambda _p, points, *_a, **_k: f"k{len(points)}"),
    ("pfaffian", "pfaffian", None),
    ("cdi", "cdi_residual", None),
    ("cdi", "cdi_rhs", None),
    ("cdi", "cdi_rhs_beta_form", None),
    ("cdi", "limiting_f", None),
    ("limits", "kappa", lambda spec, *_a, **_k: spec.kind),
    ("limits", "limit_rk", None),
    ("limits", "ode_residual", None),
    ("limits", "kappa_origin_gamma_form", None),
    ("linstat", "char_function", _n_of_params),
    ("linstat", "exact_mean", None),
    ("linstat", "exact_variance", None),
    ("linstat", "mc_linear_statistic", None),
)

# (counter name, modules whose attribute of that name is wrapped)
COUNTER_TARGETS = (
    ("specfun.erfc_c", ("limits", "cdi", "specfun")),
    ("specfun.erf_c", ("limits",)),
    ("specfun.mittag_leffler", ("limits",)),
    ("specfun.inc_gamma_entire_part", ("cdi", "specfun")),
    ("specfun.reg_inc_beta", ("cdi", "specfun")),
    ("limits.quad", ("limits",)),
    ("linstat.quad", ("linstat",)),
)

PACKAGE = "sphefaffian"


def target_attributes():
    """Every (module name, attribute) pair a Tracer replaces."""
    pairs = [(m, a) for m, a, _ in SPAN_TARGETS]
    for counter, modules in COUNTER_TARGETS:
        attr = counter.split(".", 1)[1]
        pairs.extend((m, attr) for m in modules)
    return pairs


class Counter:
    """Calls and inclusive seconds of one hot function.

    Nested calls of the same counter (recursion, or a wrapped caller
    reaching a wrapped callee of the same name in another module) are
    neither counted nor timed twice.
    """

    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class Tracer:
    """Records spans, counters and escaping exceptions while installed."""

    def __init__(self):
        self.spans = []
        self.counters = {name: Counter() for name, _ in COUNTER_TARGETS}
        self.errors = {}  # (layer, exception type) -> count
        self.op = None
        self.enabled = True
        self._stack = []
        self._seen = []  # (exception, errors key) already counted in this op
        self._originals = []

    # -- exceptions ----------------------------------------------------------

    def _record_error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once, in the innermost layer it escaped from.

        An exception raised while handling one already counted (say,
        IntegrationWarning turned into QuadratureError) is the same failure:
        within the same layer it replaces the first type, and from an
        outer layer it is not counted again.
        """
        if any(e is exc for e, _ in self._seen):
            return
        key = (layer, type(exc).__name__)
        origin = self._origin(exc)
        if origin is not None:
            if origin[0] != layer:
                self._seen.append((exc, origin))
                return
            self.errors[origin] -= 1
            if not self.errors[origin]:
                del self.errors[origin]
        self._seen.append((exc, key))
        self.errors[key] = self.errors.get(key, 0) + 1

    def _origin(self, exc: BaseException):
        """The key under which an exception in exc's cause chain was counted."""
        cause = exc.__cause__ or exc.__context__
        depth = 0
        while cause is not None and depth < 32:
            for seen, key in self._seen:
                if seen is cause:
                    return key
            cause = cause.__cause__ or cause.__context__
            depth += 1
        return None

    def start_op(self, name: str | None) -> None:
        self.op = name
        self._seen.clear()

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name: str, layer: str, tag_fn, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        units_of_trials = name == "sampler.sample_ensemble"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tag = tag_fn(*args, **kwargs) if tag_fn is not None else None
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._record_error(layer, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                units = 1
                if units_of_trials:  # sample_ensemble(params, trials, seed)
                    units = kwargs["trials"] if "trials" in kwargs else args[1]
                spans[index] = Span(name, tag, start, end, parent, tracer.op, units)

        return wrapped

    def _counter_wrapper(self, counter: Counter, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled or counter.depth:
                return fn(*args, **kwargs)
            counter.depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._record_error(layer, exc)
                raise
            finally:
                counter.seconds += perf_counter() - start
                counter.calls += 1
                counter.depth -= 1

        return wrapped

    def _replace(self, module_name: str, attr: str, wrapper_of) -> None:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper_of(original))

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, attr, tag_fn in SPAN_TARGETS:
                self._replace(module_name, attr, functools.partial(
                    self._span_wrapper, f"{module_name}.{attr}", module_name, tag_fn))
            for name, modules in COUNTER_TARGETS:
                layer, attr = name.split(".", 1)
                wrap = functools.partial(self._counter_wrapper, self.counters[name], layer)
                for module_name in modules:
                    self._replace(module_name, attr, wrap)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False
