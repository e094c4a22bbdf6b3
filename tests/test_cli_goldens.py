"""tools/cli_goldens.py: the checksums behind every bit-identity claim about CLI artifacts."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_goldens.py"


def _goldens(out: Path) -> str:
    """Run the tool into `out` in a fresh interpreter and return its SHA256SUMS."""
    done = subprocess.run([sys.executable, str(_TOOL), str(out)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes = (out / "EXIT_CODES").read_text(encoding="utf-8").splitlines()
    assert codes and all(line.endswith(" 0") for line in codes), codes
    return (out / "SHA256SUMS").read_text(encoding="utf-8")


def test_cli_goldens_are_reproducible_and_list_existing_files(tmp_path):
    first, second = _goldens(tmp_path / "a"), _goldens(tmp_path / "b")
    assert first == second
    paths = [line.split("  ", 1)[1] for line in first.splitlines()]
    assert "EXIT_CODES" in paths
    for path in paths:
        assert (tmp_path / "a" / path).is_file(), path
