"""Layer tracing of croccolab from outside the package.

``Tracer.install`` wraps every public function of the eight layer modules,
the public methods of the classes they define, and ``Field.__init__``.  A
wrapper goes on the name in the defining module, on every croccolab module
that imported that name, and on module-level dicts (the state catalogs) that
hold it, so calls made inside a module are caught too.  Private helpers such
as ``_diff`` or ``_arakawa`` stay unwrapped: their time is charged to the
public caller's layer.

Each wrapped call appends one span ``[id, parent, op, layer, name, start,
end, extra, raised]`` to an in-memory list; ``extra`` carries a per-layer
measure (computed array bytes for the fieldcalc operators, file bytes for
fieldio, the exit code flag for ``cli.main``).  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fieldcalc", "models", "crocco", "smectic", "manufactured", "transport", "fieldio", "cli")

ID, PARENT, OP, LAYER, NAME, START, END, EXTRA, RAISED = range(9)

STENCILS = frozenset(
    {
        "grad_scalar",
        "div_vector",
        "curl_vector",
        "grad_vector",
        "div_tensor",
        "hessian_scalar",
        "order_grad",
        "order_second_grad",
        "advect_steady",
    }
)
NORMS = frozenset({"l2_norm", "linf_norm"})

# Per-layer metrics: name -> (layer, span names or None for the whole layer, quantity).
# quantity is "calls" (span count), "ms" (summed self time), "extra" (summed measure)
# or "nonzero" (calls whose measure flagged a non-zero exit, plus calls that raised).
_GROUPED = {
    "fieldcalc.stencil_ms": ("fieldcalc", STENCILS, "ms"),
    "fieldcalc.norm_ms": ("fieldcalc", NORMS, "ms"),
    "fieldcalc.norm_calls": ("fieldcalc", NORMS, "calls"),
    "fieldcalc.field_inits": ("fieldcalc", {"Field.__init__"}, "calls"),
    "fieldcalc.field_init_ms": ("fieldcalc", {"Field.__init__"}, "ms"),
    "fieldcalc.bytes_computed": ("fieldcalc", STENCILS | NORMS, "extra"),
    "models.gl_partials_calls": ("models", {"gl_partials"}, "calls"),
    "models.sphere_checks": ("models", {"check_sphere_constraint"}, "calls"),
    "crocco.relation_ms": ("crocco", {"classical_crocco", "korteweg_crocco", "complex_crocco"}, "ms"),
    "crocco.residual_ms": (
        "crocco",
        {
            "steady_momentum_residual",
            "complex_momentum_residual",
            "substructural_balance_residual",
            "substructural_coupling",
        },
        "ms",
    ),
    "transport.steps": ("transport", {"step"}, "calls"),
    "transport.step_ms": ("transport", {"step"}, "ms"),
    "transport.poisson_calls": ("transport", {"solve_streamfunction"}, "calls"),
    "transport.poisson_ms": ("transport", {"solve_streamfunction"}, "ms"),
    "transport.rhs_calls": ("transport", {"transport_rhs"}, "calls"),
    "transport.rhs_ms": ("transport", {"transport_rhs", "substructural_stress"}, "ms"),
    "transport.diag_ms": (
        "transport",
        {"cfl_number", "enstrophy", "te_work_rate", "omega_sign_changes", "TransportState.velocity"},
        "ms",
    ),
    "fieldio.read_calls": ("fieldio", {"read_field"}, "calls"),
    "fieldio.read_ms": ("fieldio", {"read_field"}, "ms"),
    "fieldio.bytes_read": ("fieldio", {"read_field"}, "extra"),
    "fieldio.write_calls": ("fieldio", {"write_field"}, "calls"),
    "fieldio.write_ms": ("fieldio", {"write_field"}, "ms"),
    "fieldio.bytes_written": ("fieldio", {"write_field"}, "extra"),
    "cli.exit_nonzero": ("cli", {"main"}, "nonzero"),
}
LAYER_METRICS = {
    **{f"{layer}.calls": (layer, None, "calls") for layer in LAYERS},
    **{f"{layer}.self_ms": (layer, None, "ms") for layer in LAYERS},
    **_GROUPED,
}


def _array_bytes(obj) -> int:
    values = getattr(obj, "values", obj)
    return values.nbytes if isinstance(values, np.ndarray) else 0


def _operator_bytes(args, kwargs, result) -> int:
    """Array bytes in and out of a fieldcalc operator, computed from shapes."""
    return sum(_array_bytes(a) for a in (*args, *kwargs.values())) + _array_bytes(result)


def _path_arg(args, kwargs, position: int) -> str:
    return kwargs["path"] if "path" in kwargs else args[position]


def _measure_for(layer: str, name: str):
    if layer == "fieldcalc" and name in STENCILS | NORMS:
        return _operator_bytes
    if layer == "fieldio" and name == "read_field":
        return lambda args, kwargs, result: os.path.getsize(_path_arg(args, kwargs, 0))
    if layer == "fieldio" and name == "write_field":
        return lambda args, kwargs, result: os.path.getsize(_path_arg(args, kwargs, 1))
    if layer == "cli" and name == "main":
        return lambda args, kwargs, result: int(result != 0)
    return None


class Tracer:
    """In-memory span recorder around croccolab's layer boundaries."""

    ROOT_LAYER = "bench"

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        measure = _measure_for(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1], self._op, layer, name, 0.0, 0.0, 0, False]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                rec[EXTRA] = measure(args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, index: int) -> None:
        """Open the root span of op `index`; every span until `end_op` belongs to it."""
        self._op = index
        rec = [len(self.spans), -1, index, self.ROOT_LAYER, "op", 0.0, 0.0, 0, False]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = time.perf_counter()

    def end_op(self, raised: bool = False) -> None:
        rec = self.spans[self._stack.pop()]
        rec[END] = time.perf_counter()
        rec[RAISED] = raised
        self._op = -1

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions and methods (see module docstring)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"croccolab.{layer}") for layer in LAYERS}
        field_cls = modules["fieldcalc"].Field
        wrappers: dict[object, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") and not (obj is field_cls and attr == "__init__"):
                            continue
                        label = f"{name}.{attr}"
                        if inspect.isfunction(member):
                            self._set(obj, attr, self._wrap(layer, label, member))
                        elif isinstance(member, classmethod):
                            wrapped = self._wrap(layer, label, member.__func__)
                            self._set(obj, attr, classmethod(wrapped))
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._set(obj, key, wrappers[value])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write_csv(self, path: str) -> None:
        """Write every span, times in microseconds from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,layer,name,start_us,end_us,extra,raised\n")
            for s in self.spans:
                fh.write(
                    f"{s[ID]},{s[PARENT]},{s[OP]},{s[LAYER]},{s[NAME]},"
                    f"{(s[START] - t0) * 1e6:.1f},{(s[END] - t0) * 1e6:.1f},{s[EXTRA]},{int(s[RAISED])}\n"
                )


def self_times(spans) -> list[float]:
    """Self time of every span (seconds), indexed by span id.

    Spans of one thread nest strictly, so the direct children of a span
    cover disjoint parts of it and their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[s[ID]] for s in spans]


def per_op_metrics(spans) -> dict[int, dict[str, float]]:
    """Every LAYER_METRICS value for each op that has a root span."""
    own = self_times(spans)
    # op -> (layer, name) -> [calls, self seconds, summed extra, calls that raised]
    by_op: dict[int, dict[tuple[str, str], list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0, 0]))
    for s in spans:
        table = by_op[s[OP]]
        if s[LAYER] == Tracer.ROOT_LAYER:
            continue
        acc = table[(s[LAYER], s[NAME])]
        acc[0] += 1
        acc[1] += own[s[ID]]
        acc[2] += s[EXTRA]
        acc[3] += int(s[RAISED])
    out: dict[int, dict[str, float]] = {}
    for op, table in sorted(by_op.items()):
        values = {}
        for metric, (layer, names, quantity) in LAYER_METRICS.items():
            accs = [acc for (lay, nm), acc in table.items() if lay == layer and (names is None or nm in names)]
            if quantity == "calls":
                values[metric] = sum(a[0] for a in accs)
            elif quantity == "ms":
                values[metric] = sum(a[1] for a in accs) * 1e3
            elif quantity == "extra":
                values[metric] = sum(a[2] for a in accs)
            else:  # "nonzero": calls that returned a non-zero flag or raised
                values[metric] = sum(a[2] + a[3] for a in accs)
        out[op] = values
    return out


def median_metrics(per_op: dict[int, dict[str, float]]) -> dict[str, float]:
    """Median over ops of every metric."""
    return {
        metric: float(statistics.median(values[metric] for values in per_op.values()))
        for metric in LAYER_METRICS
    }
