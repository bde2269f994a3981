"""The benchmark tracer rebinds package attributes by name; every name it
needs must exist, and `uninstall` must put each original back."""

import importlib.util
from pathlib import Path

from postimp import classify, cli, decide, formula, reductions

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
OWNERS = (formula, formula.Formula, formula.Instance, decide, cli, classify, reductions)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_attribute():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        during = [dict(vars(owner)) for owner in OWNERS]
    finally:
        tracer.uninstall()
    # the tracer reaches into every owner, and leaves each as it found it
    assert all(now != then for now, then in zip(during, before))
    for owner, then in zip(OWNERS, before):
        now = dict(vars(owner))
        assert now.keys() == then.keys(), owner
        changed = [name for name in then if now[name] is not then[name]]
        assert not changed, (owner, changed)
