"""Command-line entry points and the run-configuration format.

Configuration is INI-style ``key = value`` text (stdlib configparser).  A
command reads the keys listed below, rejects any other and parses every
key given (finite numbers, booleans yes/no/true/false/1/0).  Artifacts echo
every value used, defaults included, so a run is reproducible from them.  A
[model] catalog must name the command's relation (complex for transport2d).

    eval-*       [grid] n, dim, length, boundary (--grid overrides n),
                 [state] generator, [model] catalog; or, for a state read from
                 field files, [state] v, iota, eta (korteweg), v, iota, eta, nu
                 (complex) or v, eta, w (smectic) and [model] catalog plus the
                 relation's parameters, the grid being the files' (any [grid]
                 key given, and --grid, must match it)
    transport2d  [grid] as above, [model] catalog, m (defaults to that of
                 nu) and a, the only model fields its stress reads, and
                 [transport] dt (h/4), steps, mode, report_every, omega0, nu
    mms-verify, validate-models: no section (fixed suites; mms-verify takes
                 its grid from --grid and rejects any [model] catalog)

Commands (exit 0 on success, 2 on validation, solver or allocation failure, 1 on usage error):

    eval-korteweg   evaluate the capillary relation, write term fields + norms
    eval-complex    evaluate the order-parameter relation
    eval-smectic    evaluate the layered-phase relation
    transport2d     integrate the 2-D vorticity transport, write a time series
    mms-verify      run the manufactured defect-identity suite, write every
                    case's order (exit 2 if one is below 1.8)
    validate-models finite-difference check of every catalog model

Every command takes --config and --out; --grid is read by eval-*, transport2d
and mms-verify, and --refine (refinement levels) by mms-verify alone.  A flag
the command does not read is a usage error.

Numeric output is fixed at 17 significant digits, so identical inputs give
byte-identical artifacts.

An eval-* run writes each term field as the relation builds it and then
drops it, so it holds one term at a time rather than the whole report.  The
artifacts are staged in a new directory beside --out (or beside its nearest
existing ancestor): the lhs first, then each term, the residual, norms.csv
and resolved_config.txt.  Only after the residual has passed its finiteness
check are they moved into --out, each replacing the file of the same name.
A failed eval removes the staging directory, so it creates no directory and
changes no file in an existing --out.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import shutil
import sys
import tempfile
from dataclasses import fields, replace
from typing import Callable, Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

from . import manufactured
from .crocco import (
    ComplexState, KortewegState, RelationFields, complex_defect_identity, complex_relation,
    defect_identity, korteweg_relation,
)
from .fieldcalc import ONE_SIDED, PERIODIC, TWO_PI, Grid, OrderField, ScalarField, VectorField
from .fieldio import _fmt, read_field, write_field
from .models import ComplexFluidModel, KortewegCoEnergy, KortewegModel, OrderCoEnergy, catalog_models, validate_partials
from .smectic import SmecticModel, SmecticState, smectic_relation
from .transport import ADVECTED, FROZEN, CFLError, PoissonError, TransportConfig, TransportState, run as transport_run

REPORT_MAGIC = "# CROCCOFIELD-REPORT v1"


class ConfigError(ValueError):
    """Rejected run configuration."""


class UsageParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError("not a finite number")
    return value


def _choice(options, parse: Callable = str) -> Callable:
    """Parser of a value among `options`, looked up at parse time so a catalog entry added later counts."""
    def parse_choice(raw: str):
        if (value := parse(raw)) not in options:
            raise ValueError(f"not one of {', '.join(map(str, options))}")
        return value
    return parse_choice


_BOOLS = {"yes": True, "no": False, "true": True, "false": False, "1": True, "0": False}
_PARSERS = {
    int: int, float: _finite, str: str, bool: lambda raw: _BOOLS[_choice(_BOOLS)(raw)],
    tuple[float, ...]: lambda raw: tuple(_finite(t) for t in raw.replace(",", " ").split()),
}


def _echo(value) -> str:
    """Config text that the value's parser reads back as `value`."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return ", ".join(map(_fmt, value))
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _model_keys(cls, **defaults) -> dict[str, tuple]:
    """One [model] key per dataclass field, parsed by its annotated type; the default, unless given, is the field's."""
    hints = get_type_hints(cls)
    return {f.name: (_PARSERS[hints[f.name]], defaults.get(f.name)) for f in fields(cls)}


_MODEL_KEYS = {
    KortewegModel: _model_keys(KortewegModel),
    KortewegCoEnergy: _model_keys(KortewegCoEnergy),
    ComplexFluidModel: _model_keys(ComplexFluidModel),
    SmecticModel: _model_keys(SmecticModel, gamma1=1.0, gamma2=1.0),
}
_GRID = {
    "n": (int, 64),
    "dim": (_choice((2, 3), int), 2),
    "length": (_finite, TWO_PI),
    "boundary": (_choice((PERIODIC, ONE_SIDED)), PERIODIC),
}
# transport2d's substructural stress T = a (grad nu)^T grad nu reads no other model field
_TRANSPORT_MODEL = {key: _MODEL_KEYS[ComplexFluidModel][key] for key in ("m", "a")}
_FIELD_KINDS = {"v": VectorField, "iota": ScalarField, "eta": ScalarField, "nu": OrderField, "w": ScalarField}


class _Relation(NamedTuple):
    generators: dict
    state: type
    files: tuple[str, ...]  # [state] field-file keys, each a keyword of `state`
    models: tuple[type, ...]  # built from [model] for a file-based state, in evaluator order
    evaluate: Callable  # the relation's fields as they are built
    grid: dict = _GRID  # [grid] keys of a generator run


# The evaluators look the relation up at call time, so a patched module attribute
# is the one that runs.  A file-based complex state gets the zero rate co-energy.
_RELATIONS = {
    "korteweg": _Relation(manufactured.KORTEWEG_CATALOG, KortewegState, ("v", "iota", "eta"),
                          (KortewegModel, KortewegCoEnergy), lambda *inputs: korteweg_relation(*inputs)),
    "complex": _Relation(manufactured.COMPLEX_CATALOG, ComplexState, ("v", "iota", "eta", "nu"), (ComplexFluidModel,),
                         lambda state, model, coenergy=None: complex_relation(
                             state, model, OrderCoEnergy.zero(model.m) if coenergy is None else coenergy)),
    # the layer generators build every state on a one-sided grid, as its layers are not periodic
    "smectic": _Relation(manufactured.SMECTIC_CATALOG, SmecticState, ("v", "eta", "w"), (SmecticModel,),
                         lambda *inputs: smectic_relation(*inputs),
                         {**_GRID, "boundary": (_choice((ONE_SIDED,)), ONE_SIDED)}),
}

# command -> section -> key -> (parser, default).  A [model] catalog must equal its
# default.  A None default is filled in by the command (dt, m) or marks a key that is
# required (a state file) or only checked against the grid of the field files.
_SCHEMAS: dict[str, dict[str, dict[str, tuple]]] = {
    "transport2d": {
        "grid": _GRID,
        "model": {"catalog": (str, "complex"), **_TRANSPORT_MODEL},
        "transport": {
            "dt": (_finite, None),
            "steps": (int, 100),
            "mode": (_choice((FROZEN, ADVECTED)), FROZEN),
            "report_every": (int, 10),
            "omega0": (_choice(manufactured.VORTICITY_CATALOG), "two-mode"),
            "nu": (_choice(manufactured.ORDER_CATALOG), "uniform"),
        },
    },
    "mms-verify": {},
    "validate-models": {},
}
for _kind, _rel in _RELATIONS.items():
    _SCHEMAS[f"eval-{_kind}"] = {
        "grid": {key: (parse, None) for key, (parse, _) in _GRID.items()},
        "state": {key: (str, None) for key in _rel.files},
        "model": {"catalog": (str, _kind), **{k: v for cls in _rel.models for k, v in _MODEL_KEYS[cls].items()}},
    }
    _SCHEMAS[f"eval-{_kind} with a state generator"] = {
        "grid": _rel.grid, "state": {"generator": (_choice(_rel.generators), None)}, "model": {"catalog": (str, _kind)},
    }
_KNOWN = {  # every key some command reads, by section
    section: set().union(*(schema.get(section, ()) for schema in _SCHEMAS.values()))
    for section in ("grid", "state", "model", "transport")
}


class RunConfig:
    """Raw key = value configuration; each command takes from it the keys it reads."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        for section, keys in sections.items():
            if section not in _KNOWN:
                raise ConfigError(f"unknown config section [{section}]")
            unknown = set(keys) - _KNOWN[section]
            if unknown:
                raise ConfigError(f"unknown key(s) {sorted(unknown)} in section [{section}]")
        self.sections = sections

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        # no default section: [DEFAULT] keys would reach every section, or no command when it stands alone
        parser = configparser.ConfigParser(delimiters=("=",), interpolation=None, default_section="")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls({s: dict(parser.items(s)) for s in parser.sections()})

    def get(self, section: str, key: str) -> str | None:
        return self.sections.get(section, {}).get(key)

    def take(self, command: str, grid_n: int | None = None) -> dict[str, dict]:
        """Values of the keys `command` (a key of _SCHEMAS) reads: each given one parsed, the
        others at their defaults (a None default left out); --grid `grid_n` overrides [grid] n."""
        schema = _SCHEMAS[command]
        for section in sorted(self.sections):
            unread = sorted(set(self.sections[section]) - set(schema.get(section, ())))
            if not schema:
                raise ConfigError(f"{command} reads no config section, got [{section}]")
            if unread:
                raise ConfigError(f"{command} does not read [{section}] {unread[0]}")
        values = {section: {} for section in schema}
        for section, keys in schema.items():
            for key, (parse, default) in keys.items():
                raw = self.get(section, key)
                try:
                    value = default if raw is None else parse(raw)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key} = {raw}: {exc}") from None
                if key == "catalog" and value != default:
                    raise ConfigError(f"[model] catalog = {value} does not match {command}")
                if value is not None:
                    values[section][key] = value
        if grid_n is not None:
            values["grid"]["n"] = grid_n
        return values


def _grid(n: int, dim: int, length: float, boundary: str) -> Grid:
    # built periodic, then given its policy, so one constructor checks n before dividing by it
    return replace(Grid.periodic(n, dim, length), boundary=(boundary,) * dim)


def _check_file_grid(grid: Grid, given: dict) -> None:
    """Reject a [grid] value (or --grid) that does not describe the grid of the field files."""
    agrees = {
        "n": lambda n: grid.extents == (n,) * grid.dim,
        "dim": lambda dim: grid.dim == dim,
        "length": lambda length: grid.spacing == tuple(length / n for n in grid.extents),
        "boundary": lambda boundary: grid.boundary == (boundary,) * grid.dim,
    }
    for key, value in given.items():
        if not agrees[key](value):
            raise ConfigError(f"[grid] {key} = {_echo(value)} does not match the field files' grid {grid}")


def _build(cls, values: dict, keys, nu: OrderField | None = None):
    """`cls` from the [model] `values` given for its fields `keys`, the others at their defaults;
    `values` then holds the value the model took for each of `keys`.  With an order field `nu`,
    the chart dimension m defaults to, and must equal, that of nu."""
    if nu is not None and values.setdefault("m", nu.m) != nu.m:
        raise ConfigError(f"[model] m = {values['m']} does not match the chart dimension {nu.m} of nu")
    model = cls(**{key: values[key] for key in keys if key in values})
    values.update((key, getattr(model, key)) for key in keys)
    return model


def _read(path: str, cls):
    field = read_field(path)
    if not isinstance(field, cls):
        raise ConfigError(f"{path} holds a {type(field).__name__}, expected {cls.__name__}")
    return field


def _write_table(values: dict, out_dir: str, name: str, header: str, rows: list[str]) -> None:
    """Write one CSV report headed by the resolved configuration, and echo that configuration."""
    resolved = [f"{s}.{k} = {_echo(values[s][k])}" for s in sorted(values) for k in sorted(values[s])]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join([REPORT_MAGIC] + [f"# config: {line}" for line in resolved] + [header] + rows) + "\n")
    with open(os.path.join(out_dir, "resolved_config.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join([REPORT_MAGIC] + resolved) + "\n")


@contextlib.contextmanager
def _staged(out_dir: str) -> Iterator[str]:
    """A new directory beside `out_dir`, or beside its nearest existing ancestor, to write into.
    When the block ends without an error, each file in it replaces the file of the same name in
    `out_dir` (created if need be); the staging directory is removed either way, so a failed
    block creates no directory and leaves `out_dir` as it was."""
    parent = os.path.dirname(os.path.realpath(out_dir))
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent)
    stage = tempfile.mkdtemp(prefix=".croccolab-", dir=parent)
    try:
        yield stage
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_report(report: RelationFields, values: dict, out_dir: str) -> None:
    """Write each field of a relation as it is built, lhs first, then the residual and norms.csv."""
    rows = []
    with _staged(out_dir) as stage:
        for name, field, (l2, linf) in report:
            write_field(field, os.path.join(stage, f"term_{name}.field"))
            rows.append(f"{name},{_fmt(l2)},{_fmt(linf)}")
            del field  # before the next term is built
        _write_table(values, stage, "norms.csv", "term,l2,linf", rows)


def _cmd_eval(kind: str, config: RunConfig, grid_n: int | None, out_dir: str) -> int:
    """eval-<kind>: evaluate one relation on a generated or file-based state."""
    relation = _RELATIONS[kind]
    if config.get("state", "generator") is not None:
        values = config.take(f"eval-{kind} with a state generator", grid_n)
        inputs = relation.generators[values["state"]["generator"]](_grid(**values["grid"]))
    else:
        values = config.take(f"eval-{kind}", grid_n)
        missing = [key for key in relation.files if key not in values["state"]]
        if missing:
            raise ConfigError(f"eval-{kind} needs [state] {missing[0]} (or a state generator)")
        state = relation.state(**{key: _read(path, _FIELD_KINDS[key]) for key, path in values["state"].items()})
        _check_file_grid(state.v.grid, values["grid"])
        nu = getattr(state, "nu", None)
        inputs = (state, *(_build(cls, values["model"], _MODEL_KEYS[cls], nu) for cls in relation.models))
    _write_report(relation.evaluate(*inputs), values, out_dir)
    return 0


def _cmd_transport(config: RunConfig, grid_n: int | None, out_dir: str) -> int:
    values = config.take("transport2d", grid_n)
    grid = _grid(**values["grid"])
    params = values["transport"]
    nu = manufactured.ORDER_CATALOG[params["nu"]](grid)
    model = _build(ComplexFluidModel, values["model"], _TRANSPORT_MODEL, nu)
    params.setdefault("dt", 0.25 * grid.spacing[0])
    tconfig = TransportConfig(params["dt"], params["steps"], model, params["mode"], report_every=params["report_every"])
    state = TransportState.from_vorticity(grid, manufactured.VORTICITY_CATALOG[params["omega0"]](grid), nu)
    result = transport_run(tconfig, state)

    rows = [
        ",".join(_fmt(v) for v in (s.t, s.l2_omega, s.max_omega, s.enstrophy, s.rhs_norm, s.te_work_rate))
        for s in result.samples
    ]
    _write_table(values, out_dir, "timeseries.csv", "t,l2_omega,max_omega,enstrophy,rhs_norm,te_work_rate", rows)
    write_field(result.final_state.omega, os.path.join(out_dir, "omega.field"))
    write_field(result.final_state.psi, os.path.join(out_dir, "psi.field"))
    return 0


def _cmd_mms_verify(config: RunConfig, base_n: int, levels: int, out_dir: str) -> int:
    if config.get("model", "catalog") is not None:  # the suite mixes capillary and order-parameter cases
        raise ConfigError(f"[model] catalog = {config.get('model', 'catalog')} does not match mms-verify")
    values = config.take("mms-verify")
    grids = [Grid.periodic(base_n * 2**i) for i in range(levels)]
    reports = [
        (name, defect_identity(manufactured.CATALOG[name], grids, min_order=-math.inf))
        for name in ("korteweg-classical", "korteweg-basic", "korteweg-inertia")
    ]
    reports.append(
        ("complex-gl-m2", complex_defect_identity(manufactured.CATALOG["complex-gl-m2"], grids, min_order=-math.inf))
    )
    rows = [f"{name},{r.order_label}," + ",".join(_fmt(e) for _, e in r.levels) for name, r in reports]
    header = "case,observed_order," + ",".join(f"err_level{i}" for i in range(levels))
    _write_table(values, out_dir, "mms_report.csv", header, rows)
    return 0 if all(r.meets_order(1.8) for _, r in reports) else 2


def _cmd_validate_models(config: RunConfig, out_dir: str) -> int:
    values = config.take("validate-models")
    reports = [validate_partials(model) for model in catalog_models()]
    rows = [f"{r.model},{c.entry},{_fmt(c.max_rel_error)},{c.passed}" for r in reports for c in r.checks]
    _write_table(values, out_dir, "validation.csv", "model,entry,max_rel_error,passed", rows)
    return 0 if all(r.passed for r in reports) else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = UsageParser(prog="croccolab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [f"eval-{kind}" for kind in _RELATIONS] + ["transport2d", "mms-verify", "validate-models"]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="run configuration file")
        p.add_argument("--out", default="out", help="output directory")
        if name != "validate-models":
            p.add_argument("--grid", type=int, default=None, help="cells per axis (overrides config)")
        if name == "mms-verify":
            p.add_argument("--refine", type=int, default=3, help="refinement levels")
    args = parser.parse_args(argv)

    try:
        config = RunConfig.load(args.config) if args.config else RunConfig({})
        with np.errstate(all="ignore"):  # no numpy warnings: a non-finite value fails a check that names it
            if args.command == "mms-verify":
                return _cmd_mms_verify(config, 32 if args.grid is None else args.grid, args.refine, args.out)
            if args.command == "validate-models":
                return _cmd_validate_models(config, args.out)
            if args.command == "transport2d":
                return _cmd_transport(config, args.grid, args.out)
            return _cmd_eval(args.command.removeprefix("eval-"), config, args.grid, args.out)
    except (ConfigError, ValueError, OSError, MemoryError, CFLError, PoissonError) as exc:
        print(f"croccolab: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
