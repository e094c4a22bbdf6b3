"""Command-line interface: exit codes, artifacts, determinism, config rules."""

import contextlib
import io
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from croccolab import cli, crocco, manufactured, smectic
from croccolab.cli import ConfigError, RunConfig, main
from croccolab.fieldcalc import ONE_SIDED, PERIODIC, Grid, OrderField, ScalarField, VectorField, l2_norm, linf_norm
from croccolab.fieldio import _fmt, read_field, write_field
from croccolab.transport import PoissonError


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        RunConfig.load(write_config(tmp_path, "[banana]\nx = 1\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.load(write_config(tmp_path, "[grid]\nresolution = 8\n"))


def test_resolved_lines_are_sorted_and_complete(tmp_path):
    # no config at all: every value the run used is echoed, defaults included; of the
    # model that is m and a, the only fields the substructural stress reads
    out = tmp_path / "o"
    assert main(["transport2d", "--grid", "16", "--out", str(out)]) == 0
    resolved = (out / "resolved_config.txt").read_text().splitlines()
    assert resolved == [
        "# CROCCOFIELD-REPORT v1",
        "grid.boundary = periodic", "grid.dim = 2", "grid.length = 6.2831853071795862", "grid.n = 16",
        "model.a = 1", "model.catalog = complex", "model.m = 2",
        "transport.dt = 0.098174770424681035", "transport.mode = frozen", "transport.nu = uniform",
        "transport.omega0 = two-mode", "transport.report_every = 10", "transport.steps = 100",
    ]
    echoed = [line for line in (out / "timeseries.csv").read_text().splitlines() if line.startswith("# config: ")]
    assert echoed == [f"# config: {line}" for line in resolved[1:]]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_eval_korteweg_writes_report(tmp_path):
    config = write_config(tmp_path, "[state]\ngenerator = korteweg-basic\n")
    out = tmp_path / "out"
    assert main(["eval-korteweg", "--config", config, "--grid", "16", "--out", str(out)]) == 0
    norms = (out / "norms.csv").read_text().splitlines()
    assert norms[0] == "# CROCCOFIELD-REPORT v1"
    assert any(line.startswith("# config: state.generator = korteweg-basic") for line in norms)
    terms = {line.split(",")[0] for line in norms if "," in line}
    assert {"lhs", "thermo", "enthalpy", "wall", "inertia", "residual"} <= terms
    field = read_field(str(out / "term_thermo.field"))
    assert field.grid.extents == (16, 16)
    assert (out / "resolved_config.txt").exists()


def test_eval_korteweg_classical_reduction_emits_zero_norms(tmp_path):
    config = write_config(tmp_path, "[state]\ngenerator = korteweg-classical\n")
    out = tmp_path / "out"
    assert main(["eval-korteweg", "--config", config, "--grid", "16", "--out", str(out)]) == 0
    rows = {
        line.split(",")[0]: line.split(",")[1:]
        for line in (out / "norms.csv").read_text().splitlines()
        if "," in line and not line.startswith(("#", "term,"))
    }
    assert float(rows["wall"][0]) == 0.0
    assert float(rows["inertia"][1]) == 0.0


def test_eval_korteweg_from_field_files(tmp_path):
    grid = Grid.periodic(12)
    x, y = grid.meshgrid()
    write_field(VectorField(grid, np.stack([0.3 + 0.1 * np.sin(x), 0.2 * np.cos(y)], -1)),
                str(tmp_path / "v.field"))
    write_field(ScalarField(grid, 1.5 + 0.2 * np.sin(y)), str(tmp_path / "iota.field"))
    write_field(ScalarField(grid, 0.1 * np.cos(x)), str(tmp_path / "eta.field"))
    config = write_config(
        tmp_path,
        f"""[state]
v = {tmp_path}/v.field
iota = {tmp_path}/iota.field
eta = {tmp_path}/eta.field

[model]
catalog = korteweg
beta = 0.4
c = 1.1
""",
    )
    out = tmp_path / "out"
    assert main(["eval-korteweg", "--config", config, "--out", str(out)]) == 0


def test_eval_complex_and_smectic(tmp_path):
    out1 = tmp_path / "c"
    config1 = write_config(tmp_path, "[state]\ngenerator = complex-gl-m2\n", "c.cfg")
    assert main(["eval-complex", "--config", config1, "--grid", "16", "--out", str(out1)]) == 0
    text = (out1 / "norms.csv").read_text()
    assert "micro_grad" in text and "order_balance" in text

    out2 = tmp_path / "s"
    config2 = write_config(tmp_path, "[state]\ngenerator = smectic-wavy\n", "s.cfg")
    assert main(["eval-smectic", "--config", config2, "--grid", "16", "--out", str(out2)]) == 0
    assert (out2 / "term_micro_hess.field").exists()
    # the layered states live on one-sided grids, and the echo says so
    assert "grid.boundary = one-sided\n" in (out2 / "resolved_config.txt").read_text()
    assert read_field(str(out2 / "term_micro_hess.field")).grid.boundary == ("one-sided", "one-sided")


def test_transport_timeseries_columns(tmp_path):
    config = write_config(
        tmp_path,
        "[transport]\nsteps = 4\nreport_every = 2\nomega0 = taylor-green\nnu = uniform\n"
        "[model]\nm = 2\na = 1.0\n",
    )
    out = tmp_path / "t"
    assert main(["transport2d", "--config", config, "--grid", "16", "--out", str(out)]) == 0
    lines = (out / "timeseries.csv").read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "t,l2_omega,max_omega,enstrophy,rhs_norm,te_work_rate"
    data_rows = [line for line in lines if not line.startswith(("#", "t,"))]
    assert len(data_rows) == 3  # t=0 plus two sampled steps
    assert (out / "omega.field").exists() and (out / "psi.field").exists()


def test_mms_verify_exit_zero_and_orders(tmp_path):
    out = tmp_path / "mms"
    assert main(["mms-verify", "--grid", "32", "--refine", "3", "--out", str(out)]) == 0
    rows = [
        line for line in (out / "mms_report.csv").read_text().splitlines()
        if "," in line and not line.startswith(("#", "case,"))
    ]
    assert len(rows) == 4
    for row in rows:
        assert float(row.split(",")[1]) >= 1.8


def test_validate_models_exit_zero(tmp_path):
    out = tmp_path / "vm"
    assert main(["validate-models", "--out", str(out)]) == 0
    text = (out / "validation.csv").read_text()
    assert "KortewegModel" in text and "OrderCoEnergy" in text
    assert ",False" not in text


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["eval-korteweg", "--not-a-flag"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "command, flag",
    [
        ("validate-models", "--grid"),
        ("validate-models", "--refine"),
        ("transport2d", "--refine"),
        ("eval-korteweg", "--refine"),
        ("eval-complex", "--refine"),
        ("eval-smectic", "--refine"),
    ],
)
def test_flag_the_command_does_not_read_exits_one(tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "3", "--out", str(out)])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["fly"])
    assert exc.value.code == 1


def test_bad_config_exits_two(tmp_path):
    config = write_config(tmp_path, "[grid]\nresolution = 8\n")
    assert main(["eval-korteweg", "--config", config, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", ["[DEFAULT]\nsteps = 2\n", "[DEFAULT]\nsteps = 2\n\n[transport]\nmode = frozen\n"])
def test_default_section_is_an_unknown_section(tmp_path, capsys, text):
    code, err = run_cli(["transport2d", "--config", write_config(tmp_path, text), "--grid", "16", "--out",
                         str(tmp_path / "o")], capsys)
    assert code == 2
    assert_one_line_error(err, "unknown config section [DEFAULT]")


def test_unknown_generator_exits_two(tmp_path):
    config = write_config(tmp_path, "[state]\ngenerator = nonsense\n")
    assert main(["eval-korteweg", "--config", config, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, generator, catalog",
    [
        ("eval-korteweg", "korteweg-basic", "smectic"),
        ("eval-complex", "complex-gl-m2", "korteweg"),
        ("eval-smectic", "smectic-wavy", "complex"),
        ("eval-korteweg", "korteweg-basic", "banana"),
    ],
)
def test_catalog_naming_another_relation_exits_two(tmp_path, capsys, command, generator, catalog):
    config = write_config(tmp_path, f"[state]\ngenerator = {generator}\n\n[model]\ncatalog = {catalog}\n")
    out = tmp_path / "o"
    assert main([command, "--config", config, "--grid", "16", "--out", str(out)]) == 2
    assert f"catalog = {catalog} does not match {command}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("catalog", ["korteweg", "smectic", "banana"])
def test_transport_catalog_other_than_complex_exits_two(tmp_path, capsys, catalog):
    config = write_config(tmp_path, f"[model]\ncatalog = {catalog}\n\n[transport]\nsteps = 2\n")
    out = tmp_path / "o"
    assert main(["transport2d", "--config", config, "--grid", "16", "--out", str(out)]) == 2
    assert f"catalog = {catalog} does not match transport2d" in capsys.readouterr().err
    assert not out.exists()


def test_transport_accepts_the_complex_catalog(tmp_path):
    config = write_config(tmp_path, "[model]\ncatalog = complex\n\n[transport]\nsteps = 2\n")
    out = tmp_path / "o"
    assert main(["transport2d", "--config", config, "--grid", "16", "--out", str(out)]) == 0
    assert "model.catalog = complex" in (out / "resolved_config.txt").read_text()


@pytest.mark.parametrize("catalog", ["korteweg", "complex"])
def test_mms_verify_rejects_any_catalog(tmp_path, capsys, catalog):
    config = write_config(tmp_path, f"[model]\ncatalog = {catalog}\n")
    out = tmp_path / "o"
    assert main(["mms-verify", "--config", config, "--grid", "8", "--out", str(out)]) == 2
    assert f"catalog = {catalog} does not match mms-verify" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, section",
    [
        ("validate-models", "[model]\ncatalog = smectic\n", "model"),
        ("validate-models", "[grid]\nn = 16\n", "grid"),
        ("mms-verify", "[model]\nbeta = 0.7\n\n[state]\ngenerator = korteweg-basic\n", "model"),
        ("mms-verify", "[state]\ngenerator = korteweg-basic\n", "state"),
        ("mms-verify", "[grid]\nn = 16\n", "grid"),
    ],
)
def test_fixed_suites_reject_config_sections(tmp_path, capsys, command, text, section):
    config = write_config(tmp_path, text)
    out = tmp_path / "o"
    grid = ["--grid", "8"] if command == "mms-verify" else []
    assert main([command, "--config", config, *grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"croccolab: {command} reads no config section, got [{section}]\n"
    assert not out.exists()


def test_generator_of_another_relation_exits_two(tmp_path):
    config = write_config(tmp_path, "[state]\ngenerator = complex-gl-m2\n")
    assert main(["eval-korteweg", "--config", config, "--grid", "16", "--out", str(tmp_path / "o")]) == 2
    config = write_config(tmp_path, "[state]\ngenerator = korteweg-basic\n", "k.cfg")
    assert main(["eval-smectic", "--config", config, "--grid", "16", "--out", str(tmp_path / "o")]) == 2


def test_transport_cfl_failure_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, "[transport]\ndt = 5.0\nomega0 = taylor-green\n")
    assert main(["transport2d", "--config", config, "--grid", "32", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("croccolab: CFL")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_transport_blow_up_exits_two_without_traceback(tmp_path, monkeypatch, capsys):
    def near_overflow(grid):
        nu = manufactured.generic_order_parameter(grid).values
        return OrderField(grid, 1e308 + 7e307 * nu / np.max(np.abs(nu)))

    monkeypatch.setitem(manufactured.ORDER_CATALOG, "near-overflow", near_overflow)
    config = write_config(
        tmp_path, "[model]\na = 0\n\n[transport]\nmode = advected\nnu = near-overflow\nsteps = 3\n"
    )
    out = tmp_path / "o"
    assert main(["transport2d", "--config", config, "--grid", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("croccolab: non-finite value") and "OrderField" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_transport_poisson_failure_exits_two(tmp_path, monkeypatch, capsys):
    def failing_run(config, state):
        raise PoissonError("streamfunction residual 1e-3 exceeds 1e-10")

    monkeypatch.setattr(cli, "transport_run", failing_run)
    assert main(["transport2d", "--grid", "16", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("croccolab: streamfunction residual")


def test_two_well_config_reaches_the_complex_model(tmp_path, monkeypatch):
    grid = Grid.periodic(12)
    x, y = grid.meshgrid()
    write_field(VectorField(grid, np.stack([0.3 + 0.1 * np.sin(x), 0.2 * np.cos(y)], -1)),
                str(tmp_path / "v.field"))
    write_field(ScalarField(grid, 1.5 + 0.2 * np.sin(y)), str(tmp_path / "iota.field"))
    write_field(ScalarField(grid, 0.1 * np.cos(x)), str(tmp_path / "eta.field"))
    write_field(OrderField(grid, np.stack([0.4 * np.sin(x), 0.3 * np.cos(y)], -1)),
                str(tmp_path / "nu.field"))
    state = "".join(f"{key} = {tmp_path}/{key}.field\n" for key in ("v", "iota", "eta", "nu"))
    models = []
    evaluate = cli.complex_relation

    def capture(state, model, coenergy):
        models.append(model)
        return evaluate(state, model, coenergy)

    monkeypatch.setattr(cli, "complex_relation", capture)
    wells = write_config(
        tmp_path, f"[state]\n{state}\n[model]\ngamma_kind = two-well\nwell_1 = -0.5\nwell_2 = 2.0\n", "w.cfg"
    )
    default = write_config(tmp_path, f"[state]\n{state}\n[model]\ngamma_kind = two-well\n", "d.cfg")
    assert main(["eval-complex", "--config", wells, "--out", str(tmp_path / "w")]) == 0
    assert main(["eval-complex", "--config", default, "--out", str(tmp_path / "d")]) == 0
    assert [(m.gamma_kind, m.well_1, m.well_2) for m in models] == [
        ("two-well", -0.5, 2.0),
        ("two-well", -1.0, 1.0),
    ]
    assert (tmp_path / "w" / "norms.csv").read_text() != (tmp_path / "d" / "norms.csv").read_text()


def test_outputs_are_byte_identical_across_runs(tmp_path):
    config = write_config(tmp_path, "[state]\ngenerator = korteweg-basic\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["eval-korteweg", "--config", config, "--grid", "16", "--out", str(out1)]) == 0
    assert main(["eval-korteweg", "--config", config, "--grid", "16", "--out", str(out2)]) == 0
    assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()
    assert (out1 / "term_wall.field").read_bytes() == (out2 / "term_wall.field").read_bytes()


# ---------------------------------------------------------------------------
# per-command schemas: read, check and echo exactly the keys a command uses
# ---------------------------------------------------------------------------


def write_states(directory, generator="complex-gl-m2"):
    """Field files of a catalog state on a 16^2 grid (v, iota, eta, nu or v, eta, w); returns key -> path."""
    state = {**manufactured.CATALOG, **manufactured.SMECTIC_CATALOG}[generator](Grid.periodic(16))[0]
    paths = {}
    for key in ("v", "iota", "eta", "nu", "w"):
        if getattr(state, key, None) is not None:
            paths[key] = str(directory / f"{key}.field")
            write_field(getattr(state, key), paths[key])
    return paths


def state_section(paths, keys):
    return "[state]\n" + "".join(f"{key} = {paths[key]}\n" for key in keys) + "\n"


def run_cli(argv, capsys):
    """Exit code and stderr of one in-process run."""
    code = main(argv)
    return code, capsys.readouterr().err


def assert_one_line_error(err, *fragments):
    assert err.startswith("croccolab: ") and err.count("\n") == 1 and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize(
    "command, text, fragment",
    [
        ("transport2d", "[state]\ngenerator = korteweg-basic\n", "transport2d does not read [state] generator"),
        ("eval-korteweg", "[state]\ngenerator = korteweg-basic\n\n[transport]\nmode = advected\n",
         "does not read [transport] mode"),
        ("eval-complex", "[state]\ngenerator = complex-gl-m2\n\n[model]\nm = 3\n", "does not read [model] m"),
        ("eval-complex", "[state]\ngenerator = complex-gl-m2\n\n[model]\nbeta = 3\n", "does not read [model] beta"),
        ("eval-smectic", "[state]\ngenerator = smectic-wavy\nv = v.field\n", "does not read [state] v"),
        ("eval-complex", "[state]\nv = v.field\n\n[model]\nbeta = 3\n", "eval-complex does not read [model] beta"),
        ("eval-korteweg", "[state]\nw = w.field\n", "eval-korteweg does not read [state] w"),
        ("eval-smectic", "[transport]\nsteps = 2\n", "eval-smectic does not read [transport] steps"),
        # the transport stress reads m and a alone, so every other model field is inert there
        ("transport2d", "[model]\nf_kind = two-well\n", "transport2d does not read [model] f_kind"),
        ("transport2d", "[model]\nsphere_constrained = yes\n", "transport2d does not read [model] sphere_constrained"),
        ("transport2d", "[model]\nm = 2\nk = 7\n", "transport2d does not read [model] k"),
    ],
)
def test_keys_a_command_does_not_read_exit_two(tmp_path, capsys, command, text, fragment):
    out = tmp_path / "o"
    code, err = run_cli([command, "--config", write_config(tmp_path, text), "--grid", "16", "--out", str(out)], capsys)
    assert code == 2
    assert_one_line_error(err, fragment)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, fragment",
    [
        ("transport2d", "[grid]\nn = abc\n", "[grid] n = abc"),
        ("eval-korteweg", "[grid]\nn = abc\n\n[state]\ngenerator = korteweg-basic\n", "[grid] n = abc"),
        ("eval-complex", "[model]\nsphere_constrained = ja\n", "[model] sphere_constrained = ja"),
        ("transport2d", "[transport]\ndt = nan\n", "[transport] dt = nan"),
        ("transport2d", "[grid]\nlength = inf\n", "[grid] length = inf"),
        ("eval-complex", "[model]\nnu_ref = 0.1, x\n", "[model] nu_ref = 0.1, x"),
        ("transport2d", "[transport]\nmode = sideways\n", "[transport] mode = sideways"),
        ("eval-smectic", "[state]\ngenerator = nonsense\n", "[state] generator = nonsense"),
        ("eval-smectic", "[grid]\nboundary = periodic\n\n[state]\ngenerator = smectic-wavy\n",
         "[grid] boundary = periodic: not one of one-sided"),
    ],
)
def test_every_given_key_is_parsed_even_when_overridden(tmp_path, capsys, command, text, fragment):
    code, err = run_cli([command, "--config", write_config(tmp_path, text), "--grid", "16", "--out",
                         str(tmp_path / "o")], capsys)
    assert code == 2
    assert_one_line_error(err, fragment)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[transport]\nreport_every = 0\nsteps = 2\n", "report_every >= 1, got dt="),
        ("[transport]\nreport_every = -3\nsteps = 2\n", "report_every=-3"),
        ("[transport]\ndt = 0\nsteps = 2\n", "dt=0.0"),
    ],
)
def test_transport_rejects_bad_report_every_and_dt(tmp_path, capsys, text, fragment):
    out = tmp_path / "o"
    code, err = run_cli(["transport2d", "--config", write_config(tmp_path, text), "--grid", "16", "--out",
                         str(out)], capsys)
    assert code == 2
    assert_one_line_error(err, fragment)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("eval-korteweg", "[state]\ngenerator = korteweg-basic\n"),
        ("eval-complex", "[state]\ngenerator = complex-gl-m2\n"),
        ("eval-smectic", "[state]\ngenerator = smectic-wavy\n"),
        ("transport2d", "[transport]\nsteps = 2\n"),
        ("mms-verify", None),
    ],
)
def test_grid_size_zero_exits_two(tmp_path, capsys, command, text):
    config = [] if text is None else ["--config", write_config(tmp_path, text)]
    out = tmp_path / "o"
    code, err = run_cli([command, *config, "--grid", "0", "--out", str(out)], capsys)
    assert code == 2
    assert_one_line_error(err, "need at least 4 cells per axis")
    assert not out.exists()
    if text is not None:
        config = write_config(tmp_path, f"[grid]\nn = 0\n\n{text}", "zero.cfg")
        code, err = run_cli([command, "--config", config, "--out", str(out)], capsys)
        assert code == 2
        assert_one_line_error(err, "need at least 4 cells per axis")


@pytest.mark.parametrize(
    "command, text",
    [
        ("eval-korteweg", "[state]\ngenerator = korteweg-basic\n"),
        ("transport2d", None),
        ("mms-verify", None),
    ],
)
def test_grid_too_large_to_allocate_exits_two(tmp_path, capsys, command, text):
    # 5e6 cells per axis: the first grid array alone would take ~182 TiB, which numpy refuses
    config = [] if text is None else ["--config", write_config(tmp_path, text)]
    code, err = run_cli([command, *config, "--grid", "5000000", "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert_one_line_error(err, "Unable to allocate")


@pytest.mark.parametrize(
    "grid_text, flag",
    [
        ("n = 32\n", []),
        ("", ["--grid", "8"]),
        ("n = 16\n", ["--grid", "8"]),
        ("length = 3.0\n", []),
        ("boundary = one-sided\n", []),
        ("dim = 3\n", []),
    ],
)
def test_file_based_grid_keys_must_match_the_files(tmp_path, capsys, grid_text, flag):
    paths = write_states(tmp_path)
    text = f"[grid]\n{grid_text}\n" + state_section(paths, ("v", "iota", "eta"))
    out = tmp_path / "o"
    code, err = run_cli(["eval-korteweg", "--config", write_config(tmp_path, text), *flag, "--out", str(out)], capsys)
    assert code == 2
    assert_one_line_error(err, "does not match the field files' grid")
    assert not out.exists()


def test_file_based_grid_keys_that_match_are_echoed(tmp_path):
    paths = write_states(tmp_path)
    text = ("[grid]\nn = 16\ndim = 2\nlength = 6.283185307179586\nboundary = periodic\n\n"
            + state_section(paths, ("v", "iota", "eta")))
    out = tmp_path / "o"
    assert main(["eval-korteweg", "--config", write_config(tmp_path, text), "--grid", "16", "--out", str(out)]) == 0
    resolved = (out / "resolved_config.txt").read_text()
    assert "grid.n = 16\n" in resolved and "grid.length = 6.2831853071795862\n" in resolved
    assert "model.kappa0 = 0\n" in resolved and "model.beta = 0\n" in resolved


def test_file_based_complex_chart_dimension_must_match_nu(tmp_path, capsys):
    paths = write_states(tmp_path)
    text = state_section(paths, ("v", "iota", "eta", "nu")) + "[model]\nm = 3\n"
    code, err = run_cli(["eval-complex", "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")],
                        capsys)
    assert code == 2
    assert_one_line_error(err, "[model] m = 3 does not match the chart dimension 2 of nu")


@pytest.mark.parametrize(
    "command, generator, keys, model, fragment",
    [
        ("eval-complex", "complex-gl-m2", ("v", "iota", "eta", "nu"), "f_kind = banana",
         "f_kind must be one of ('quadratic', 'two-well'), got 'banana'"),
        ("eval-smectic", "smectic-wavy", ("v", "eta", "w"), "gamma1 = 0", "moduli gamma1, gamma2 must be positive"),
        ("eval-smectic", "smectic-wavy", ("v", "eta", "w"), "eps_reg = -0.1", "eps_reg must be >= 0"),
    ],
)
def test_file_based_invalid_model_exits_two(tmp_path, capsys, command, generator, keys, model, fragment):
    text = state_section(write_states(tmp_path, generator), keys) + f"[model]\n{model}\n"
    out = tmp_path / "o"
    code, err = run_cli([command, "--config", write_config(tmp_path, text), "--out", str(out)], capsys)
    assert code == 2
    assert_one_line_error(err, fragment)
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would print lines of its own before the error
def test_non_finite_term_exits_two_naming_the_term_and_cell(tmp_path, capsys):
    grid = Grid.periodic(16)
    state = manufactured.CATALOG["korteweg-basic"](grid)[0]
    eta = state.eta.values.copy()
    eta[2, 3] = 800.0  # the temperature overflows in that one cell
    fields = {"v": state.v, "iota": state.iota, "eta": ScalarField(grid, eta)}
    paths = {key: str(tmp_path / f"{key}.field") for key in fields}
    for key, field in fields.items():
        write_field(field, paths[key])
    out = tmp_path / "o"
    code, err = run_cli(["eval-korteweg", "--config", write_config(tmp_path, state_section(paths, fields)),
                         "--out", str(out)], capsys)
    assert code == 2
    assert_one_line_error(err, "korteweg term thermo is non-finite at cell (2, 3)")
    assert not out.exists()


# ---------------------------------------------------------------------------
# streamed eval artifacts
# ---------------------------------------------------------------------------

_WHOLE = {  # command -> (the relation iterator the CLI calls, the report that collects it)
    "eval-korteweg": ("korteweg_relation", crocco.korteweg_crocco),
    "eval-complex": ("complex_relation", crocco.complex_crocco),
    "eval-smectic": ("smectic_relation", smectic.smectic_crocco),
}


def write_whole(report, values, out_dir):
    """Reference writer: a report held whole, its residual and norms rebuilt from the public API."""
    residual = report.lhs.values.copy()
    for term in report.terms.values():
        residual -= term.values
    fields = {"lhs": report.lhs, **report.terms, "residual": VectorField(report.lhs.grid, residual)}
    rows = [f"{name},{_fmt(l2_norm(field))},{_fmt(linf_norm(field))}" for name, field in fields.items()]
    cli._write_table(values, str(out_dir), "norms.csv", "term,l2,linf", rows)
    for name, field in fields.items():
        write_field(field, str(out_dir / f"term_{name}.field"))


def staging_dirs(directory):
    return [path.name for path in directory.iterdir() if path.name.startswith(".croccolab-")]


@pytest.mark.parametrize(
    "command, generator, source, boundary",
    [
        ("eval-korteweg", "korteweg-inertia", "generator", PERIODIC),
        ("eval-korteweg", "korteweg-basic", "generator", ONE_SIDED),
        ("eval-complex", "complex-gl-m2", "generator", PERIODIC),
        ("eval-complex", "complex-gl-m2", "generator", ONE_SIDED),
        ("eval-smectic", "smectic-wavy", "generator", ONE_SIDED),  # the layer generators are one-sided only
        ("eval-korteweg", "korteweg-inertia", "files", PERIODIC),
        ("eval-korteweg", "korteweg-inertia", "files", ONE_SIDED),
        ("eval-complex", "complex-gl-m2", "files", PERIODIC),
        ("eval-complex", "complex-gl-m2", "files", ONE_SIDED),
        ("eval-smectic", "smectic-wavy", "files", PERIODIC),
        ("eval-smectic", "smectic-wavy", "files", ONE_SIDED),
    ],
)
def test_streamed_artifacts_match_the_report_written_whole(tmp_path, monkeypatch, command, generator, source, boundary):
    name, whole = _WHOLE[command]
    captured = {}
    relation, write_report = getattr(cli, name), cli._write_report

    def capture_inputs(*inputs):
        captured["inputs"] = inputs
        return relation(*inputs)

    def capture_values(report, values, out_dir):
        captured["values"] = values
        return write_report(report, values, out_dir)

    monkeypatch.setattr(cli, name, capture_inputs)
    monkeypatch.setattr(cli, "_write_report", capture_values)
    if source == "generator":
        text = f"[grid]\nboundary = {boundary}\n\n[state]\ngenerator = {generator}\n"
        grid_flag = ["--grid", "16"]
    else:
        grid = Grid.periodic(16) if boundary == PERIODIC else Grid.one_sided((16, 16), (2.0 * np.pi / 16,) * 2)
        state = {**manufactured.CATALOG, **manufactured.SMECTIC_CATALOG}[generator](grid)[0]
        paths = {key: str(tmp_path / f"{key}.field") for key in cli._RELATIONS[command.removeprefix("eval-")].files}
        for key, path in paths.items():  # on `grid`: a layer generator builds its state one-sided
            field = getattr(state, key)
            write_field(type(field)(grid, field.values), path)
        text, grid_flag = state_section(paths, paths), []
    streamed, reference = tmp_path / "streamed", tmp_path / "whole"
    assert main([command, "--config", write_config(tmp_path, text), *grid_flag, "--out", str(streamed)]) == 0
    assert captured["inputs"][0].grid.boundary == (boundary, boundary)
    reference.mkdir()
    write_whole(whole(*captured["inputs"]), captured["values"], reference)
    names = sorted(path.name for path in reference.iterdir())
    assert sorted(path.name for path in streamed.iterdir()) == names
    for file_name in names:
        assert (streamed / file_name).read_bytes() == (reference / file_name).read_bytes(), file_name
    assert not staging_dirs(tmp_path)


def poisoned(engine, values_at):
    """`engine` with values_at[k] written into cell (3, 5) of its k-th term."""

    def terms(*args):
        for k, term in enumerate(engine(*args)):
            if k in values_at:
                term = term.copy()
                term[3, 5] = values_at[k]
            yield term

    return terms


@pytest.mark.filterwarnings("error")  # a numpy warning would print lines of its own before the error
@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize(
    "command, module, engine, generator, values_at, failing",
    [
        ("eval-korteweg", crocco, "_korteweg_terms", "korteweg-inertia", {2: np.nan}, "korteweg term wall"),
        ("eval-complex", crocco, "_complex_terms", "complex-gl-m2", {5: np.inf}, "complex term micro_hess"),
        ("eval-smectic", smectic, "_complex_terms", "smectic-wavy", {3: -np.inf}, "smectic term order_balance"),
        # every term finite, but lhs - 1e308 - 1e308 overflows
        ("eval-korteweg", crocco, "_korteweg_terms", "korteweg-basic", {0: 1e308, 1: 1e308}, "korteweg term residual"),
        ("eval-complex", crocco, "_complex_terms", "complex-gl-m2", {4: 1e308, 5: 1e308}, "complex term residual"),
    ],
)
def test_non_finite_later_term_or_residual_exits_two_and_writes_nothing(
    tmp_path, monkeypatch, capsys, existing, command, module, engine, generator, values_at, failing
):
    monkeypatch.setattr(module, engine, poisoned(getattr(module, engine), values_at))
    out = tmp_path / "o" if existing else tmp_path / "new" / "o"
    if existing:  # a failed eval changes no file of an existing --out
        out.mkdir()
        (out / "term_lhs.field").write_bytes(b"an earlier run")
    code, err = run_cli([command, "--config", write_config(tmp_path, f"[state]\ngenerator = {generator}\n"),
                         "--grid", "16", "--out", str(out)], capsys)
    assert code == 2
    assert_one_line_error(err, f"{failing} is non-finite at cell (3, 5)")
    if existing:
        assert [path.name for path in out.iterdir()] == ["term_lhs.field"]
        assert (out / "term_lhs.field").read_bytes() == b"an earlier run"
    else:  # nor the directories above it
        assert not (tmp_path / "new").exists()
    assert not staging_dirs(tmp_path)


def test_a_rerun_into_an_existing_directory_replaces_every_artifact(tmp_path):
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    first = write_config(tmp_path, "[state]\ngenerator = korteweg-basic\n", "first.cfg")
    second = write_config(tmp_path, "[state]\ngenerator = korteweg-inertia\n", "second.cfg")
    assert main(["eval-korteweg", "--config", first, "--grid", "16", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    (out / "notes.txt").write_text("not an artifact")
    assert main(["eval-korteweg", "--config", second, "--grid", "12", "--out", str(out)]) == 0
    assert main(["eval-korteweg", "--config", second, "--grid", "12", "--out", str(fresh)]) == 0
    assert sorted(path.name for path in fresh.iterdir()) == sorted(before)
    for path in fresh.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes() != before[path.name]
    assert (out / "notes.txt").read_text() == "not an artifact"
    assert not staging_dirs(tmp_path)


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_complex_on_field_files_bounds_the_allocation_peak(tmp_path):
    # At 128^2 one grid plane is 128 KiB.  Holding the report's eight fields until they were
    # written, every partial until the last term and the order bundle from before the first
    # peaked at ~46 planes (the binary file reads included); writing each field as it is
    # built and freeing each bundle array after its last read leaves ~27.
    grid = Grid.periodic(128)
    state = manufactured.CATALOG["complex-gl-m2"](grid)[0]
    paths = {key: str(tmp_path / f"{key}.field") for key in ("v", "iota", "eta", "nu")}
    for key, path in paths.items():
        write_field(getattr(state, key), path)
    config = write_config(tmp_path, state_section(paths, paths))
    assert main(["eval-complex", "--config", config, "--out", str(tmp_path / "warm-up")]) == 0
    assert _traced_peak(["eval-complex", "--config", config, "--out", str(tmp_path / "o")]) < 32 * grid.n_cells * 8


def test_mms_verify_on_a_grid_too_coarse_for_the_identity_exits_two(tmp_path, capsys):
    out = tmp_path / "o"
    code, err = run_cli(["mms-verify", "--grid", "4", "--out", str(out)], capsys)
    assert code == 2
    assert_one_line_error(err, "defect identity refines at order")
    assert not out.exists()


def config_from_resolved(path):
    """INI text holding exactly the lines of a resolved_config.txt."""
    sections = {}
    for line in path.read_text().splitlines()[1:]:
        dotted, value = line.split(" = ", 1)
        section, key = dotted.split(".", 1)
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{section}]\n" + "".join(lines) + "\n" for section, lines in sections.items())


def artifacts(out):
    """Bytes of every .field file and the data rows of every CSV written under out."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".field":
            found[path.name] = path.read_bytes()
        elif path.suffix == ".csv":
            found[path.name] = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return found


@pytest.mark.parametrize(
    "command, text, flag",
    [
        ("eval-korteweg", "[grid]\nboundary = one-sided\n\n[state]\ngenerator = korteweg-inertia\n", "16"),
        ("eval-complex", "[state]\ngenerator = complex-gl-m2\n", "12"),
        ("eval-smectic", "[grid]\nlength = 6.0\n\n[state]\ngenerator = smectic-wavy\n", "16"),
        ("eval-korteweg", "files:v,iota,eta\n[model]\nbeta = 0.7\nc = 1.3\nkappa0 = 0.4\n", "16"),
        ("eval-complex", "files:v,iota,eta,nu\n[model]\nk = 1.1\nnu_ref = 0.2, -0.1\na = 0.8\n", None),
        ("eval-smectic", "files:v,eta,w\n[model]\ngamma1 = 1.2\neps_reg = 0.1\n", "16"),
        ("transport2d", "[transport]\nnu = generic\nsteps = 6\nreport_every = 2\n\n[model]\na = 0.8\n", "16"),
        ("transport2d", "[transport]\nmode = advected\nnu = generic\ndt = 0.05\nsteps = 6\n", "16"),
        ("eval-complex", "files:v,iota,eta,nu\n[model]\ngamma_kind = two-well\nwell_1 = -0.5\nf_kind = two-well\n"
         "f_well_1 = 0.5\nsphere_constrained = no\n", None),
        ("eval-complex", "files:v,iota,eta,nu\n[model]\nf_kind = two-well\nf_well_1 = 0.5\n", None),
    ],
)
def test_resolved_config_reproduces_the_run(tmp_path, command, text, flag):
    if text.startswith("files:"):
        keys, text = text.removeprefix("files:").split("\n", 1)
        generator = "smectic-wavy" if command == "eval-smectic" else "complex-gl-m2"
        text = state_section(write_states(tmp_path, generator), keys.split(",")) + text
    first, second = tmp_path / "first", tmp_path / "second"
    grid = [] if flag is None else ["--grid", flag]
    assert main([command, "--config", write_config(tmp_path, text), *grid, "--out", str(first)]) == 0
    resolved = write_config(tmp_path, config_from_resolved(first / "resolved_config.txt"), "resolved.cfg")
    assert main([command, "--config", resolved, "--out", str(second)]) == 0
    assert artifacts(second) == artifacts(first)
    assert (second / "resolved_config.txt").read_bytes() == (first / "resolved_config.txt").read_bytes()
    if "f_well_1" in text:
        assert "model.f_well_1 = 0.5\nmodel.f_well_2 = 2\n" in (first / "resolved_config.txt").read_text()


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    return sorted(
        path for generator in ("complex-gl-m2", "smectic-wavy")
        for path in write_states(tmp_path_factory.mktemp(generator), generator).values()
    )


_SECTIONS = sorted(cli._KNOWN) + ["banana", "DEFAULT"]
_KEYS = sorted(set().union(*cli._KNOWN.values())) + ["resolution"]
_TOKENS = [
    "abc", "", "1e", "ja", "nan", "inf", "-inf", "0", "-1", "-3", "0.5", "2.5e-2", "1, 2", "yes", "no",
    "periodic", "one-sided", "frozen", "advected", "two-mode", "taylor-green", "generic", "uniform",
    "korteweg-basic", "complex-gl-m2", "smectic-wavy", "korteweg", "complex", "smectic", "quadratic", "two-well",
]
_COMMANDS = ["eval-korteweg", "eval-complex", "eval-smectic", "transport2d", "mms-verify", "validate-models"]
_GRID_COMMANDS = set(_COMMANDS) - {"validate-models"}  # the commands that read --grid


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_configs_exit_zero_one_or_two_without_traceback(state_files, data):
    values = st.one_of(st.sampled_from(_TOKENS), st.integers(-2, 16).map(str), st.sampled_from(state_files))
    sections = data.draw(st.dictionaries(
        st.sampled_from(_SECTIONS), st.dictionaries(st.sampled_from(_KEYS), values, max_size=4), max_size=3
    ))
    grid = data.draw(st.sampled_from([None, "0", "-2", "4", "8"]))
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for section, keys in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in _COMMANDS:
            argv = [command, "--config", config, "--out", os.path.join(tmp, command)]
            argv += ["--refine", "3"] if command == "mms-verify" else []
            argv += ["--grid", grid] if grid is not None and command in _GRID_COMMANDS else []
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (command, text, grid)
            assert "Traceback" not in err.getvalue()
