"""Command-line interface: exit codes, artifacts, determinism, config rules."""

import numpy as np
import pytest

from croccolab import cli, manufactured
from croccolab.cli import ConfigError, RunConfig, main
from croccolab.fieldcalc import Grid, OrderField, ScalarField, VectorField
from croccolab.fieldio import read_field, write_field
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
    config = RunConfig.load(write_config(tmp_path, "[grid]\nn = 16\ndim = 2\n"))
    assert config.resolved_lines() == ["grid.dim = 2", "grid.n = 16"]


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


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["fly"])
    assert exc.value.code == 1


def test_bad_config_exits_two(tmp_path):
    config = write_config(tmp_path, "[grid]\nresolution = 8\n")
    assert main(["eval-korteweg", "--config", config, "--out", str(tmp_path / "o")]) == 2


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
    assert main([command, "--config", config, "--grid", "8", "--out", str(out)]) == 2
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
    evaluate = cli.complex_crocco

    def capture(state, model, coenergy):
        models.append(model)
        return evaluate(state, model, coenergy)

    monkeypatch.setattr(cli, "complex_crocco", capture)
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
