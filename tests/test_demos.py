"""Smoke run of every narrative script under demos/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "demo_coset_authentication.py",
    "demo_nizk_qma.py",
    "demo_obfuscation_stack.py",
    "demo_permuting_verifier.py",
]


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, f"demos/{demo}"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.strip()
