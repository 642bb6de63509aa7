"""The benchmark tracer (perfbench/tracer.py) wraps qcrys functions by name
from outside the package, so a rename in qcrys would only show when the
benchmark runs.  These tests load the tracer by path, without editing or
installing it, and resolve every name it reads."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("qcrys_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache beside it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


LAYERS = _load_tracer().LAYERS


@pytest.mark.parametrize(
    "module, attr", [layer[:2] for layer in LAYERS], ids=[".".join(layer[:2]) for layer in LAYERS]
)
def test_every_wrapped_name_resolves(module, attr):
    owner = importlib.import_module(f"qcrys.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_cache_and_json_hooks_resolve():
    # install() reads the sqrt cache's statistics and swaps the CLI's json.
    import qcrys.cli
    import qcrys.scalar

    assert callable(qcrys.scalar._sqrt_frac.cache_info)
    assert callable(qcrys.cli.json.dumps)
