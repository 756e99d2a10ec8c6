"""``import mces`` loads the streaming engine; the other modules load on first use.

Each check runs in a fresh interpreter, since this process has imported them all.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("streamio", "baselines", "snapshot", "harness")

PRELUDE = f"""\
import importlib, sys
DEFERRED = {DEFERRED!r}
def loaded():
    return [m for m in DEFERRED if f"mces.{{m}}" in sys.modules]
"""


def run_fresh(code: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c",
                           PRELUDE + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_pipeline_loads_none_of_the_deferred_modules():
    run_fresh("""
        import numpy as np
        import mces
        pipe = mces.Pipeline(32, 256)
        pipe.step(np.ones((32, 256)))
        assert loaded() == [], loaded()
        assert not set(dir(mces)) & {"read_stream", "export_pipeline", "harness"}
    """)


@pytest.mark.parametrize("use, want", [
    ("import mces; got = mces.read_stream", "mces.streamio.read_stream"),
    ("from mces import harness as got", "mces.harness"),
    ("from mces import *; got = export_pipeline", "mces.snapshot.export_pipeline"),
])
def test_first_use_loads_them_all_and_binds_their_names(use, want):
    run_fresh(f"""
        {use}
        import mces
        assert got is {want}
        assert loaded() == list(DEFERRED), loaded()
        order = ("errors", "frames", "streamio", "memory", "consolidation", "baselines",
                 "pipeline", "snapshot", "harness")
        owners = [importlib.import_module(f"mces.{{m}}") for m in order]
        assert mces.__all__ == [n for m in owners for n in m.__all__]
        for owner in owners:
            assert getattr(mces, owner.__name__.rpartition(".")[2]) is owner
            for name in owner.__all__:
                assert getattr(mces, name) is getattr(owner, name), name
                assert name in dir(mces), name
    """)


def test_an_unknown_name_raises_attribute_error():
    run_fresh("""
        import mces
        try:
            mces.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc), exc
        else:
            raise AssertionError("mces.no_such_name resolved")
        assert not hasattr(mces, "no_such_name")
        try:
            from mces import no_such_name  # noqa: F401
        except ImportError:
            pass
        else:
            raise AssertionError("from mces import no_such_name resolved")
    """)
