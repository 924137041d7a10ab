"""What a bare ``import distdict`` pulls in."""

import os
import subprocess
import sys
from pathlib import Path

import distdict


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(set(distdict.__all__)) == len(distdict.__all__)
    for name in distdict.__all__:
        assert getattr(distdict, name, None) is not None, name


def test_import_loads_no_scipy():
    src = str(Path(distdict.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, distdict; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
