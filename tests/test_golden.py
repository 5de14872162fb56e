"""Byte-for-byte transcripts of the reference script (also under several
hash seeds, through ``python -m indicial`` and with its tensor literals
spaced out) and of a traced Euler-Lagrange run, compared against the files
in ``tests/golden``; and the modules a script run loads."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from indicial import Session
from indicial.cli import main, run_script
from indicial.parse import tokenize

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "maxwell.ind"
GOLDEN = ROOT / "tests" / "golden"


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
def test_maxwell_transcript(fmt):
    out = io.StringIO()
    assert run_script(str(SCRIPT), Session(), fmt=fmt, out=out) == 0
    assert out.getvalue() == golden(f"maxwell.{fmt}.txt")


def test_spaced_literals_give_the_same_transcript(tmp_path):
    """A space after each comma inside a tensor literal: every literal takes
    the general path of the parser instead of being one token."""
    text = re.sub(r"\w+\(\[[^()]*\)", lambda m: m.group().replace(",", ", "),
                  SCRIPT.read_text(encoding="utf-8"))
    assert "F([m, n], [])" in text
    assert not any(tok.kind == "FACTOR" for tok in tokenize(text))
    path = tmp_path / "maxwell_spaced.ind"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    assert run_script(str(path), Session(), out=out) == 0
    assert out.getvalue() == golden("maxwell.plain.txt")


def test_euler_lagrange_trace_transcript(tmp_path, capsys):
    path = tmp_path / "el.ind"
    path.write_text(
        "imetric(g)$"
        "ishow(euler_lagrange(1/2*g([],[a,b])*phi([],[],a)*phi([],[],b),"
        "phi([],[]),n))$"
    )
    assert main(["--script", str(path), "--trace"]) == 0
    assert capsys.readouterr().out == golden("euler_lagrange.trace.txt")


def run_python(args, hashseed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_python_dash_m_indicial():
    proc = run_python(["-m", "indicial", "--script", str(SCRIPT)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == golden("maxwell.plain.txt")


@pytest.mark.parametrize("hashseed", ["0", "1", "12345"])
def test_maxwell_transcript_under_hash_seeds(hashseed):
    proc = run_python(["-m", "indicial", "--script", str(SCRIPT)], hashseed)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == golden("maxwell.plain.txt")


def test_numpy_is_loaded_only_by_the_oracle():
    code = (
        "import contextlib, io, sys\n"
        "import indicial\n"
        "after_import = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = indicial.main(['--script', sys.argv[1]])\n"
        "after_script = 'numpy' in sys.modules\n"
        "indicial.random_assignment(indicial.Session(), [], dim=2)\n"
        "print(status, after_import, after_script, 'numpy' in sys.modules)\n"
    )
    proc = run_python(["-c", code, str(SCRIPT)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0 False False True\n"
