"""The three closed-loop workloads, their seeded set-up and their output checks.

Each workload calls croccolab only through module attributes (``crocco.
defect_identity``, never a name bound at import time), so the tracer's
wrappers see every call.  ``setup`` builds the seeded inputs, ``op`` runs one
unit of work (the timed part), ``collect`` turns what the op produced into
its output outside the timing, ``check`` turns a wrong output into a list of
problems, and ``summary`` reduces an output to the numbers compared against
the committed reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from croccolab import cli, crocco, fieldcalc, fieldio, manufactured, models, smectic, transport

from . import inputs

MIN_ORDER = 1.8  # the mms-verify gate

# Outputs of the default seed are compared with committed reference values.
REFERENCE_SEED = 0
REFERENCE = Path(__file__).resolve().parents[1] / "reference.json"
RTOL = 1e-6
ATOL = 1e-12


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]


def _identical(output, baseline, what: str) -> list[str]:
    if baseline is not None and output != baseline:
        return [f"{what} differ from the first op of this run"]
    return []


class Certify:
    """Defect identities and the smectic general-vs-special oracle on 64/128/256."""

    name = "certify"
    bypass = ("transport", "fieldio", "cli")
    SIZES = (64, 128, 256)
    CAPILLARY = ("korteweg-classical", "korteweg-basic", "korteweg-inertia")
    COMPLEX = "complex-gl-m2"
    SMECTIC = "smectic-wavy"
    FIELDS = ("v0", "v1", "iota", "eta", "nu0", "nu1", "layer_v0", "layer_v1", "layer_eta", "layer_w")

    def __init__(self, workdir: Path) -> None:
        del workdir  # certify writes no files

    def setup(self, seed: int) -> None:
        modes = inputs.draw_modes(seed)
        self.grids = [fieldcalc.Grid.periodic(n) for n in self.SIZES]
        self.delta = {g.extents[0]: inputs.sample_all(modes, self.FIELDS, g) for g in self.grids}

    def _flow(self, state, grid):
        d = self.delta[grid.extents[0]]
        v = fieldcalc.VectorField(grid, state.v.values + np.stack([d["v0"], d["v1"]], axis=-1))
        iota = fieldcalc.ScalarField(grid, state.iota.values + d["iota"])
        eta = fieldcalc.ScalarField(grid, state.eta.values + d["eta"])
        return v, iota, eta

    def capillary_state(self, builder, grid):
        state, model, coenergy = builder(grid)
        return crocco.KortewegState(*self._flow(state, grid)), model, coenergy

    def complex_state(self, grid):
        state, model, coenergy = manufactured.CATALOG[self.COMPLEX](grid)
        d = self.delta[grid.extents[0]]
        nu = fieldcalc.OrderField(grid, state.nu.values + np.stack([d["nu0"], d["nu1"]], axis=-1))
        return crocco.ComplexState(*self._flow(state, grid), nu), model, coenergy

    def smectic_oracle_error(self, h: float) -> float:
        """Largest cell difference between the special and the general smectic route."""
        (grid,) = [g for g in self.grids if g.spacing[0] == h]
        state, model = manufactured.SMECTIC_CATALOG[self.SMECTIC](grid)
        d = self.delta[grid.extents[0]]
        g = state.grid
        state = smectic.SmecticState(
            fieldcalc.VectorField(g, state.v.values + np.stack([d["layer_v0"], d["layer_v1"]], axis=-1)),
            fieldcalc.ScalarField(g, state.eta.values + d["layer_eta"]),
            fieldcalc.ScalarField(g, state.w.values + d["layer_w"]),
        )
        special = smectic.smectic_crocco(state, model)
        general = smectic.smectic_via_general(state, model)
        fields = [(special.terms[k], general.terms[k]) for k in special.schema]
        fields.append((special.residual, general.residual))
        return max(float(np.max(np.abs(a.values - b.values))) for a, b in fields)

    def op(self) -> dict[str, tuple[float, tuple[float, ...]]]:
        out = {}
        for case in self.CAPILLARY:
            builder = manufactured.CATALOG[case]
            report = crocco.defect_identity(
                lambda g, b=builder: self.capillary_state(b, g), self.grids, min_order=0.0
            )
            out[case] = (report.observed_order, tuple(e for _, e in report.levels))
        report = crocco.complex_defect_identity(self.complex_state, self.grids, min_order=0.0)
        out[self.COMPLEX] = (report.observed_order, tuple(e for _, e in report.levels))
        report = fieldcalc.refinement_study(
            self.smectic_oracle_error, [g.spacing[0] for g in self.grids]
        )
        out["smectic-oracle"] = (report.observed_order, tuple(e for _, e in report.levels))
        return out

    @staticmethod
    def collect(raw):
        return raw

    @staticmethod
    def check(output, baseline) -> list[str]:
        problems = [
            f"{case} refines at order {order:.3f} < {MIN_ORDER}"
            for case, (order, _) in output.items()
            if not (math.isinf(order) or order >= MIN_ORDER)
        ]
        return problems + _identical(output, baseline, "refinement errors")

    @staticmethod
    def summary(output) -> dict:
        return {
            case: {"order": "exact" if math.isinf(order) else order, "errors": list(errors)}
            for case, (order, errors) in output.items()
        }


class Transport:
    """A 10-step frozen-mode segment at 256^2 from one seeded initial state."""

    name = "transport"
    bypass = ("crocco", "smectic", "manufactured", "fieldio", "cli")
    N = 256
    STEPS = 10

    def __init__(self, workdir: Path) -> None:
        del workdir  # transport writes no files

    def setup(self, seed: int) -> None:
        grid = fieldcalc.Grid.periodic(self.N)
        delta = inputs.sample_all(inputs.draw_modes(seed), ("omega",), grid)["omega"]
        omega = manufactured.VORTICITY_CATALOG["two-mode"](grid) + delta
        nu = manufactured.ORDER_CATALOG["generic"](grid)
        model = models.ComplexFluidModel(m=nu.m)
        self.config = transport.TransportConfig(
            dt=0.25 * grid.spacing[0], steps=self.STEPS, model=model, mode="frozen", report_every=10
        )
        self.initial = transport.TransportState.from_vorticity(grid, omega, nu)

    def op(self):
        return transport.run(self.config, self.initial)

    @staticmethod
    def collect(result):
        samples = tuple(
            (s.t, s.l2_omega, s.max_omega, s.enstrophy, s.rhs_norm, s.te_work_rate)
            for s in result.samples
        )
        return samples, bool(np.all(np.isfinite(result.final_state.omega.values)))

    @staticmethod
    def check(output, baseline) -> list[str]:
        samples, finite = output
        problems = [] if finite else ["final vorticity is not finite"]
        return problems + _identical(samples, baseline and baseline[0], "RunSample diagnostics")

    @staticmethod
    def summary(output) -> dict:
        return {"samples": [list(s) for s in output[0]]}


# Parameters of the catalog's complex-gl-m2 model, given to eval-complex as a config.
_COMPLEX_MODEL = """[model]
catalog = complex
m = 2
gamma_kind = quadratic
k = 1.1
nu_ref = 0.2, -0.1
nu_ref_slope = 0.3, -0.2
a = 0.8
c = 1.3
iota_ref = 1.8
"""


class Cli:
    """One in-process CLI session: eval-complex on CSV files, transport2d, mms-verify."""

    name = "cli"
    bypass = ("smectic",)
    N = 256

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        src = self.workdir / "inputs"
        src.mkdir(parents=True, exist_ok=True)
        grid = fieldcalc.Grid.periodic(self.N)
        names = ("v0", "v1", "iota", "eta", "nu0", "nu1")
        d = inputs.sample_all(inputs.draw_modes(seed), names, grid)
        state, _, _ = manufactured.CATALOG["complex-gl-m2"](grid)
        fields = {
            "v": fieldcalc.VectorField(grid, state.v.values + np.stack([d["v0"], d["v1"]], axis=-1)),
            "iota": fieldcalc.ScalarField(grid, state.iota.values + d["iota"]),
            "eta": fieldcalc.ScalarField(grid, state.eta.values + d["eta"]),
            "nu": fieldcalc.OrderField(grid, state.nu.values + np.stack([d["nu0"], d["nu1"]], axis=-1)),
        }
        lines = ["[grid]", f"n = {self.N}", "", "[state]"]
        for key, field in fields.items():
            path = src / f"{key}.field"
            fieldio.write_field(field, str(path), encoding="csv")
            lines.append(f"{key} = {path}")
        (src / "eval.cfg").write_text("\n".join(lines) + "\n\n" + _COMPLEX_MODEL, encoding="utf-8")
        (src / "transport.cfg").write_text(
            "[transport]\nmode = advected\nnu = generic\nsteps = 50\n", encoding="utf-8"
        )
        out = self.workdir / "out"
        self.outputs = {cmd: out / cmd for cmd in ("eval-complex", "transport2d", "mms-verify")}
        self.sessions = [
            ["eval-complex", "--config", str(src / "eval.cfg"), "--out", str(self.outputs["eval-complex"])],
            [
                "transport2d", "--config", str(src / "transport.cfg"), "--grid", "64",
                "--out", str(self.outputs["transport2d"]),
            ],
            ["mms-verify", "--grid", "32", "--refine", "3", "--out", str(self.outputs["mms-verify"])],
        ]

    def op(self):
        codes = []
        for argv in self.sessions:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        return tuple(codes)

    def collect(self, codes):
        return codes, self.artifact_digests()

    def artifact_digests(self) -> dict[str, str]:
        digests = {}
        for cmd, out in self.outputs.items():
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                digests[f"{cmd}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    @staticmethod
    def check(output, baseline) -> list[str]:
        codes, digests = output
        problems = [f"command {i} exited {code}" for i, code in enumerate(codes) if code != 0]
        return problems + _identical(digests, baseline and baseline[1], "artifact bytes")

    def summary(self, output) -> dict:
        del output  # the artifacts on disk are the op's output
        return {
            "eval-complex": _csv_rows(self.outputs["eval-complex"] / "norms.csv"),
            "transport2d": _csv_rows(self.outputs["transport2d"] / "timeseries.csv"),
            "mms-verify": _csv_rows(self.outputs["mms-verify"] / "mms_report.csv"),
        }


def _csv_rows(path: Path) -> list[list]:
    """Data rows of a CLI report: comment and header lines dropped, numbers parsed."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    body = [r for r in rows if not r[0].startswith("#")][1:]
    return [[_number(cell) for cell in row] for row in body]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


WORKLOADS = {cls.name: cls for cls in (Certify, Transport, Cli)}


def compare(actual, expected, rtol: float, atol: float, where: str = "") -> list[str]:
    """Differences between a summary and its reference, numbers to rtol/atol."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        return [p for k in expected for p in compare(actual[k], expected[k], rtol, atol, f"{where}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: lengths differ"]
        return [p for i, (a, e) in enumerate(zip(actual, expected)) for p in compare(a, e, rtol, atol, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(actual - expected) <= atol + rtol * max(abs(actual), abs(expected)):
            return []
        return [f"{where}: {actual!r} != reference {expected!r}"]
    return [] if actual == expected else [f"{where}: {actual!r} != reference {expected!r}"]
