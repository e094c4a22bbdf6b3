"""The package's glibc heap policy: freed grid memory stays resident between probe levels."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import croccolab


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError, AttributeError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap policy applies to glibc only")
def test_a_repeated_probe_faults_no_grid_memory_back_in():
    # a fresh interpreter runs the order-parameter defect identity twice; with freed grid
    # temporaries kept in the heap the second run takes (almost) no minor page faults
    # (2 560 under glibc's default thresholds, which trim them after each level)
    script = textwrap.dedent("""\
        import resource
        import croccolab
        from croccolab.crocco import complex_defect_identity
        from croccolab.fieldcalc import Grid
        from croccolab.manufactured import COMPLEX_CATALOG

        grids = [Grid.periodic(n) for n in (32, 64, 128)]
        complex_defect_identity(COMPLEX_CATALOG["complex-gl-m2"], grids, min_order=0.0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        complex_defect_identity(COMPLEX_CATALOG["complex-gl-m2"], grids, min_order=0.0)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = str(Path(croccolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert int(out.stdout.strip()) < 256
