"""Command-line entry points and the run-configuration format.

Configuration is INI-style ``key = value`` text (stdlib configparser) with
four sections; unknown sections or keys are rejected and the fully resolved
configuration is echoed into every artifact a run produces, so runs are
reproducible from their own outputs.

    [grid]       n, dim, length, boundary
    [state]      generator = <catalog name>   (or field-file paths
                 v/iota/eta/nu/w for externally supplied states)
    [model]      catalog = korteweg | complex | smectic (when given, it must
                 name the relation of the eval command; transport2d takes
                 only complex, mms-verify none), plus that catalog's
                 parameters (only needed for file-based states)
    [transport]  dt, steps, mode, report_every, omega0, nu

Commands (exit 0 on success, 2 on validation or solver failure, 1 on usage error):

    eval-korteweg   evaluate the capillary relation, write term fields + norms
    eval-complex    evaluate the order-parameter relation
    eval-smectic    evaluate the layered-phase relation
    transport2d     integrate the 2-D vorticity transport, write a time series
    mms-verify      run the manufactured defect-identity suite
    validate-models finite-difference check of every catalog model

Numeric output is fixed at 17 significant digits, so identical inputs give
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from typing import Sequence

import numpy as np

from . import manufactured
from .crocco import (
    ComplexState,
    CroccoReport,
    KortewegState,
    complex_crocco,
    complex_defect_identity,
    defect_identity,
    korteweg_crocco,
)
from .fieldcalc import Grid, OrderField, ScalarField, VectorField
from .fieldio import read_field, write_field
from .models import (
    ComplexFluidModel,
    KortewegCoEnergy,
    KortewegModel,
    OrderCoEnergy,
    catalog_models,
    validate_partials,
)
from .smectic import SmecticModel, SmecticState, smectic_crocco
from .transport import CFLError, PoissonError, TransportConfig, TransportState, run as transport_run

REPORT_MAGIC = "# CROCCOFIELD-REPORT v1"

_SECTION_KEYS = {
    "grid": {"n", "dim", "length", "boundary"},
    "state": {"generator", "v", "iota", "eta", "nu", "w"},
    "model": {
        "catalog", "f_kind", "c", "iota_ref", "well_1", "well_2", "beta", "e0", "c_v",
        "kappa0", "kappa1",
        "m", "gamma_kind", "k", "nu_ref", "nu_ref_slope", "a", "sphere_constrained",
        "gamma1", "gamma2", "eps_reg",
    },
    "transport": {"dt", "steps", "mode", "report_every", "omega0", "nu"},
}


class ConfigError(ValueError):
    """Rejected run configuration."""


class UsageParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class RunConfig:
    """Validated key = value configuration with full-echo support."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        for section, keys in sections.items():
            allowed = _SECTION_KEYS.get(section)
            if allowed is None:
                raise ConfigError(f"unknown config section [{section}]")
            unknown = set(keys) - allowed
            if unknown:
                raise ConfigError(f"unknown key(s) {sorted(unknown)} in section [{section}]")
        self.sections = sections

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls({s: dict(parser.items(s)) for s in parser.sections()})

    @classmethod
    def empty(cls) -> "RunConfig":
        return cls({})

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def getfloat(self, section: str, key: str, default: float) -> float:
        raw = self.get(section, key)
        return default if raw is None else float(raw)

    def getint(self, section: str, key: str, default: int) -> int:
        raw = self.get(section, key)
        return default if raw is None else int(raw)

    def resolved_lines(self) -> list[str]:
        lines = []
        for section in sorted(self.sections):
            for key in sorted(self.sections[section]):
                lines.append(f"{section}.{key} = {self.sections[section][key]}")
        return lines


def _build_grid(config: RunConfig, grid_override: int | None) -> Grid:
    n = grid_override if grid_override is not None else config.getint("grid", "n", 64)
    dim = config.getint("grid", "dim", 2)
    length = config.getfloat("grid", "length", 2.0 * np.pi)
    boundary = config.get("grid", "boundary", "periodic")
    if boundary == "periodic":
        return Grid.periodic(n, dim=dim, length=length)
    if boundary == "one-sided":
        return Grid.one_sided((n,) * dim, (length / n,) * dim)
    raise ConfigError(f"boundary must be 'periodic' or 'one-sided', got {boundary!r}")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(t) for t in raw.replace(",", " ").split())


def _complex_model(config: RunConfig, m: int) -> ComplexFluidModel:
    return ComplexFluidModel(
        m=config.getint("model", "m", m),
        gamma_kind=config.get("model", "gamma_kind", "quadratic"),
        k=config.getfloat("model", "k", 1.0),
        nu_ref=_floats(config.get("model", "nu_ref", "")) or (),
        nu_ref_slope=_floats(config.get("model", "nu_ref_slope", "")) or (),
        well_1=config.getfloat("model", "well_1", -1.0),
        well_2=config.getfloat("model", "well_2", 1.0),
        a=config.getfloat("model", "a", 1.0),
        f_kind=config.get("model", "f_kind", "quadratic"),
        c=config.getfloat("model", "c", 1.0),
        iota_ref=config.getfloat("model", "iota_ref", 1.0),
        e0=config.getfloat("model", "e0", 1.0),
        c_v=config.getfloat("model", "c_v", 1.0),
        sphere_constrained=config.get("model", "sphere_constrained", "no") in ("yes", "true", "1"),
    )


def _read(path: str, cls):
    field = read_field(path)
    if not isinstance(field, cls):
        raise ConfigError(f"{path} holds a {type(field).__name__}, expected {cls.__name__}")
    return field


def _write_table(config: RunConfig, out_dir: str, name: str, header: str, rows: list[str]) -> None:
    """Write one CSV report headed by the resolved configuration, and echo that configuration."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [REPORT_MAGIC] + [f"# config: {line}" for line in config.resolved_lines()] + [header] + rows
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "resolved_config.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join([REPORT_MAGIC] + config.resolved_lines()) + "\n")


def _write_report(report: CroccoReport, config: RunConfig, out_dir: str) -> None:
    rows = [f"{name},{_fmt(l2)},{_fmt(linf)}" for name, (l2, linf) in report.norms.items()]
    _write_table(config, out_dir, "norms.csv", "term,l2,linf", rows)
    write_field(report.lhs, os.path.join(out_dir, "term_lhs.field"))
    for name, term in report.terms.items():
        write_field(term, os.path.join(out_dir, f"term_{name}.field"))
    write_field(report.residual, os.path.join(out_dir, "term_residual.field"))


def _korteweg_inputs(config: RunConfig) -> tuple[KortewegState, KortewegModel, KortewegCoEnergy]:
    state = KortewegState(
        v=_read(_require(config, "state", "v"), VectorField),
        iota=_read(_require(config, "state", "iota"), ScalarField),
        eta=_read(_require(config, "state", "eta"), ScalarField),
    )
    model = KortewegModel(
        f_kind=config.get("model", "f_kind", "quadratic"),
        c=config.getfloat("model", "c", 1.0),
        iota_ref=config.getfloat("model", "iota_ref", 1.0),
        well_1=config.getfloat("model", "well_1", 1.0),
        well_2=config.getfloat("model", "well_2", 2.0),
        beta=config.getfloat("model", "beta", 0.0),
        e0=config.getfloat("model", "e0", 1.0),
        c_v=config.getfloat("model", "c_v", 1.0),
    )
    coenergy = KortewegCoEnergy(
        kappa0=config.getfloat("model", "kappa0", 0.0),
        kappa1=config.getfloat("model", "kappa1", 0.0),
    )
    return state, model, coenergy


def _complex_inputs(config: RunConfig) -> tuple[ComplexState, ComplexFluidModel, OrderCoEnergy]:
    nu = _read(_require(config, "state", "nu"), OrderField)
    state = ComplexState(
        v=_read(_require(config, "state", "v"), VectorField),
        iota=_read(_require(config, "state", "iota"), ScalarField),
        eta=_read(_require(config, "state", "eta"), ScalarField),
        nu=nu,
    )
    model = _complex_model(config, nu.m)
    return state, model, OrderCoEnergy.zero(model.m)


def _smectic_inputs(config: RunConfig) -> tuple[SmecticState, SmecticModel]:
    state = SmecticState(
        v=_read(_require(config, "state", "v"), VectorField),
        eta=_read(_require(config, "state", "eta"), ScalarField),
        w=_read(_require(config, "state", "w"), ScalarField),
    )
    model = SmecticModel(
        gamma1=config.getfloat("model", "gamma1", 1.0),
        gamma2=config.getfloat("model", "gamma2", 1.0),
        eps_reg=config.getfloat("model", "eps_reg", 0.0),
        e0=config.getfloat("model", "e0", 1.0),
        c_v=config.getfloat("model", "c_v", 1.0),
    )
    return state, model


# relation kind -> (state generators, inputs read from field files, evaluator).
# The evaluators look the relation up at call time, so a patched module
# attribute is the one that runs.
_RELATIONS = {
    "korteweg": (manufactured.KORTEWEG_CATALOG, _korteweg_inputs, lambda *inputs: korteweg_crocco(*inputs)),
    "complex": (manufactured.COMPLEX_CATALOG, _complex_inputs, lambda *inputs: complex_crocco(*inputs)),
    "smectic": (manufactured.SMECTIC_CATALOG, _smectic_inputs, lambda *inputs: smectic_crocco(*inputs)),
}


def _check_catalog(config: RunConfig, command: str, kind: str | None) -> None:
    """Reject a [model] catalog other than `kind`, the model `command` runs (None: it takes none)."""
    catalog = config.get("model", "catalog", kind)
    if catalog != kind:
        raise ConfigError(f"[model] catalog = {catalog} does not match {command}")


def _cmd_eval(kind: str, config: RunConfig, grid: Grid, out_dir: str) -> int:
    """eval-<kind>: evaluate one relation on a generated or file-based state."""
    _check_catalog(config, f"eval-{kind}", kind)
    generators, read_inputs, evaluate = _RELATIONS[kind]
    generator = config.get("state", "generator")
    if generator is None:
        inputs = read_inputs(config)
    elif generator in generators:
        inputs = generators[generator](grid)
    else:
        raise ConfigError(f"unknown {kind} state generator {generator!r}")
    _write_report(evaluate(*inputs), config, out_dir)
    return 0


def _require(config: RunConfig, section: str, key: str) -> str:
    raw = config.get(section, key)
    if raw is None:
        raise ConfigError(f"config needs [{section}] {key} (or a state generator)")
    return raw


def _cmd_transport(config: RunConfig, grid: Grid, out_dir: str) -> int:
    _check_catalog(config, "transport2d", "complex")
    omega_name = config.get("transport", "omega0", "two-mode")
    nu_name = config.get("transport", "nu", "uniform")
    omega_builder = manufactured.VORTICITY_CATALOG.get(omega_name)
    nu_builder = manufactured.ORDER_CATALOG.get(nu_name)
    if omega_builder is None:
        raise ConfigError(f"unknown initial vorticity {omega_name!r}")
    if nu_builder is None:
        raise ConfigError(f"unknown substructure field {nu_name!r}")
    nu = nu_builder(grid)
    model = _complex_model(config, nu.m)
    tconfig = TransportConfig(
        dt=config.getfloat("transport", "dt", 0.25 * grid.spacing[0]),
        steps=config.getint("transport", "steps", 100),
        model=model,
        mode=config.get("transport", "mode", "frozen"),
        report_every=config.getint("transport", "report_every", 10),
    )
    state = TransportState.from_vorticity(grid, omega_builder(grid), nu)
    result = transport_run(tconfig, state)

    rows = [
        ",".join(_fmt(v) for v in (s.t, s.l2_omega, s.max_omega, s.enstrophy, s.rhs_norm, s.te_work_rate))
        for s in result.samples
    ]
    _write_table(config, out_dir, "timeseries.csv", "t,l2_omega,max_omega,enstrophy,rhs_norm,te_work_rate", rows)
    write_field(result.final_state.omega, os.path.join(out_dir, "omega.field"))
    write_field(result.final_state.psi, os.path.join(out_dir, "psi.field"))
    return 0


def _cmd_mms_verify(config: RunConfig, base_n: int, levels: int, out_dir: str) -> int:
    _check_catalog(config, "mms-verify", None)
    grids = [Grid.periodic(base_n * 2**i) for i in range(levels)]
    reports = [
        (name, defect_identity(manufactured.CATALOG[name], grids, min_order=0.0))
        for name in ("korteweg-classical", "korteweg-basic", "korteweg-inertia")
    ]
    reports.append(
        ("complex-gl-m2", complex_defect_identity(manufactured.CATALOG["complex-gl-m2"], grids, min_order=0.0))
    )
    rows = [f"{name},{r.order_label}," + ",".join(_fmt(e) for _, e in r.levels) for name, r in reports]
    header = "case,observed_order," + ",".join(f"err_level{i}" for i in range(levels))
    _write_table(config, out_dir, "mms_report.csv", header, rows)
    return 0 if all(r.meets_order(1.8) for _, r in reports) else 2


def _cmd_validate_models(config: RunConfig, out_dir: str) -> int:
    reports = [validate_partials(model) for model in catalog_models()]
    rows = [
        f"{r.model},{c.entry},{_fmt(c.max_rel_error)},{c.passed}" for r in reports for c in r.checks
    ]
    _write_table(config, out_dir, "validation.csv", "model,entry,max_rel_error,passed", rows)
    return 0 if all(r.passed for r in reports) else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = UsageParser(prog="croccolab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [f"eval-{kind}" for kind in _RELATIONS] + ["transport2d", "mms-verify", "validate-models"]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="run configuration file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--grid", type=int, default=None, help="cells per axis (overrides config)")
        p.add_argument("--refine", type=int, default=3, help="refinement levels (mms-verify)")
    args = parser.parse_args(argv)

    try:
        config = RunConfig.load(args.config) if args.config else RunConfig.empty()
        if args.command == "mms-verify":
            return _cmd_mms_verify(config, args.grid or 32, args.refine, args.out)
        if args.command == "validate-models":
            return _cmd_validate_models(config, args.out)
        grid = _build_grid(config, args.grid)
        if args.command == "transport2d":
            return _cmd_transport(config, grid, args.out)
        return _cmd_eval(args.command.removeprefix("eval-"), config, grid, args.out)
    except (ConfigError, ValueError, OSError, CFLError, PoissonError) as exc:
        print(f"croccolab: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
