"""Byte-for-byte transcripts of the reference script and of a traced
Euler-Lagrange run, compared against the files in ``tests/golden``."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from indicial import Session
from indicial.cli import main, run_script

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "maxwell.ind"
GOLDEN = ROOT / "tests" / "golden"


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["plain", "latex"])
def test_maxwell_transcript(fmt):
    out = io.StringIO()
    assert run_script(str(SCRIPT), Session(), fmt=fmt, out=out) == 0
    assert out.getvalue() == golden(f"maxwell.{fmt}.txt")


def test_euler_lagrange_trace_transcript(tmp_path, capsys):
    path = tmp_path / "el.ind"
    path.write_text(
        "imetric(g)$"
        "ishow(euler_lagrange(1/2*g([],[a,b])*phi([],[],a)*phi([],[],b),"
        "phi([],[]),n))$"
    )
    assert main(["--script", str(path), "--trace"]) == 0
    assert capsys.readouterr().out == golden("euler_lagrange.trace.txt")


def test_python_dash_m_indicial():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "indicial", "--script", str(SCRIPT)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == golden("maxwell.plain.txt")
