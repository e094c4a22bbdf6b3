#!/usr/bin/env python3
"""Run a fixed set of croccolab CLI commands and checksum every artifact.

    python3 tools/cli_goldens.py OUTDIR

Imports croccolab from the ``src/`` directory of the checkout this file
sits in, so a copy of this file placed in another checkout checksums that
checkout.  Every command runs in-process at a small grid with OUTDIR as
the working directory, so the field-file paths echoed into the artifacts
are relative and the same in every checkout.  The commands are:

* ``eval-korteweg``, ``eval-complex`` and ``eval-smectic`` from every
  catalog generator (periodic, and one generator per relation on a
  one-sided grid) and from field files;
* ``transport2d``, frozen and advected with a generic nu, and advected
  with a uniform nu (zero source);
* ``mms-verify`` and ``validate-models``.

OUTDIR/SHA256SUMS lists the sorted ``sha256  path`` of every file written
under OUTDIR, including EXIT_CODES (one ``name code`` line per command).
Comparing the SHA256SUMS of two checkouts with ``diff`` shows any artifact
that changed, down to the last bit.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from croccolab import cli, manufactured  # noqa: E402
from croccolab.fieldcalc import Grid  # noqa: E402
from croccolab.fieldio import write_field  # noqa: E402

GRID = 16
GENERATORS = {
    "eval-korteweg": (
        "korteweg-basic",
        "korteweg-inertia",
        "korteweg-classical",
        "korteweg-two-well",
        "cancellation-profile",
    ),
    "eval-complex": ("complex-gl-m2", "complex-gl-m2-inertialess", "generation-sphere"),
    "eval-smectic": ("smectic-flat", "smectic-compressed", "smectic-wavy"),
}
ONE_SIDED = {"eval-korteweg": "korteweg-inertia", "eval-complex": "complex-gl-m2", "eval-smectic": "smectic-wavy"}

KORTEWEG_MODEL = "[model]\ncatalog = korteweg\nbeta = 0.7\nc = 1.3\niota_ref = 1.8\nkappa0 = 0.4\nkappa1 = 0.6\n"
COMPLEX_MODEL = (
    "[model]\ncatalog = complex\nm = 2\nk = 1.1\nnu_ref = 0.2, -0.1\nnu_ref_slope = 0.3, -0.2\n"
    "a = 0.8\nc = 1.3\niota_ref = 1.8\n"
)
SMECTIC_MODEL = "[model]\ncatalog = smectic\ngamma1 = 1.2\ngamma2 = 0.6\n"


def _write_inputs() -> dict[str, str]:
    """Field files of one capillary, one order-parameter and one layered state."""
    os.makedirs("inputs", exist_ok=True)
    grid = Grid.periodic(GRID)
    kstate = manufactured.CATALOG["korteweg-inertia"](grid)[0]
    cstate = manufactured.CATALOG["complex-gl-m2"](grid)[0]
    sstate = manufactured.SMECTIC_CATALOG["smectic-wavy"](grid)[0]
    fields = {
        "k_v": kstate.v, "k_iota": kstate.iota, "k_eta": kstate.eta,
        "c_v": cstate.v, "c_iota": cstate.iota, "c_eta": cstate.eta, "c_nu": cstate.nu,
        "s_v": sstate.v, "s_eta": sstate.eta, "s_w": sstate.w,
    }
    paths = {}
    for name, field in fields.items():
        paths[name] = f"inputs/{name}.field"
        write_field(field, paths[name])
    return paths


def _config(name: str, text: str) -> str:
    path = f"configs/{name}.cfg"
    os.makedirs("configs", exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")
    return path


def _sessions(paths: dict[str, str]) -> list[tuple[str, list[str]]]:
    sessions = []
    for command, generators in GENERATORS.items():
        for generator in generators:
            cfg = _config(generator, f"[state]\ngenerator = {generator}\n")
            sessions.append((f"{command}-{generator}", [command, "--config", cfg, "--grid", str(GRID)]))
        generator = ONE_SIDED[command]
        cfg = _config(f"{generator}-one-sided", f"[grid]\nboundary = one-sided\n\n[state]\ngenerator = {generator}\n")
        sessions.append((f"{command}-{generator}-one-sided", [command, "--config", cfg, "--grid", str(GRID)]))
    files = {
        "eval-korteweg": (("v", "iota", "eta"), "k", KORTEWEG_MODEL),
        "eval-complex": (("v", "iota", "eta", "nu"), "c", COMPLEX_MODEL),
        "eval-smectic": (("v", "eta", "w"), "s", SMECTIC_MODEL),
    }
    for command, (keys, prefix, model) in files.items():
        state = "".join(f"{key} = {paths[f'{prefix}_{key}']}\n" for key in keys)
        cfg = _config(f"{command}-files", f"[grid]\nn = {GRID}\n\n[state]\n{state}\n{model}")
        sessions.append((f"{command}-files", [command, "--config", cfg]))
    # the advected uniform-nu run takes the zero-source branch of every stage
    for name, mode, nu in (("frozen", "frozen", "generic"), ("advected", "advected", "generic"),
                           ("advected-uniform", "advected", "uniform")):
        cfg = _config(
            f"transport-{name}",
            f"[transport]\nmode = {mode}\nnu = {nu}\nomega0 = two-mode\nsteps = 20\nreport_every = 5\n",
        )
        sessions.append((f"transport2d-{name}", ["transport2d", "--config", cfg, "--grid", str(GRID)]))
    sessions.append(("mms-verify", ["mms-verify", "--grid", str(GRID), "--refine", "3"]))
    sessions.append(("validate-models", ["validate-models"]))
    return sessions


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    codes = []
    for name, args in _sessions(_write_inputs()):
        codes.append(f"{name} {cli.main(args + ['--out', f'out/{name}'])}")
    Path("EXIT_CODES").write_text("\n".join(codes) + "\n", encoding="utf-8")
    sums = sorted(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
        for p in out.rglob("*")
        if p.is_file() and p.name != "SHA256SUMS"
    )
    Path("SHA256SUMS").write_text("\n".join(sums) + "\n", encoding="utf-8")
    print(f"{len(sums)} files, {len(codes)} commands, SHA256SUMS in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
