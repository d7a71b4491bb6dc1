import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(*argv):
    # the traced benchmark wraps akchar's names in place; a subprocess keeps
    # the wrappers out of this one
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
             "PATH": "/usr/bin:/bin"},
    )


def test_bench_spans_install():
    # every name the traced benchmark patches must exist
    proc = _python("-c", "import spans; spans.install(spans.Recorder())")
    assert proc.returncode == 0, proc.stderr


_TRACED_VERIFY = """\
import json, sys, spans
from akchar import cli
recorder = spans.Recorder()
spans.install(recorder)
code = cli.main(["verify", "--suite", "ak-relations", "--n", "1"])
recorder.dump(sys.argv[1])
names = spans.summarize(sys.argv[1])["names"]
print(json.dumps({name: names[name] for name in
                  ("verify.suite.ak-relations", "operators.presentation")}))
sys.exit(code)
"""


def test_traced_verify_sees_suites_and_presentation_checkers(tmp_path):
    # the wrappers go on module attributes, so verify must look its
    # presentation checkers up when a suite runs; one bound at import time
    # would run unwrapped and record no presentation span
    proc = _python("-c", _TRACED_VERIFY, str(tmp_path / "spans.pickle"))
    assert proc.returncode == 0, proc.stderr
    report, summary = proc.stdout.splitlines()
    assert report == "suite ak-relations: 126 cases, 0 failures [pass]"
    names = json.loads(summary)
    assert names["verify.suite.ak-relations"]["work"] == 126
    assert names["operators.presentation"]["calls"] == 126
