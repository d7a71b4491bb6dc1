import os
import subprocess
import sys
from pathlib import Path


def test_bench_spans_install():
    # the traced benchmark wraps akchar's names in place; every name it
    # patches must exist.  A subprocess keeps the wrappers out of this one.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")]),
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
