"""The benchmark's tracer (`perfbench/tracing.py`) wraps package functions
by `owner.__dict__[name]`, so removing or renaming one of them breaks
traced benchmark runs (`perfbench/run.py --trace 1`).  The benchmark's own
tests are not part of this suite, so this test installs the tracer on the
package, runs one `--phi` request through it, and restores it: every name
it wraps must exist, the request counts as one verdict row, and the module
and class dicts are the same afterwards."""

import os

from minorbit import chevalley, cli, crflag, golden, realform

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def test_tracer_installs_and_restores(monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    owners = [cli, golden, crflag, crflag.FormContext, realform.SatakeDiagram,
              chevalley.StructureConstants]
    before = [dict(vars(o)) for o in owners]
    tr = tracing.Tracer()
    try:
        tracing.install(tr)
        assert all(dict(vars(o)) != b for o, b in zip(owners, before))
        rc = cli.main(["--form", "su(2,3)", "--phi", "2", "--no-golden"])
    finally:
        tr.restore()
    assert rc == 0 and capsys.readouterr().out
    assert [dict(vars(o)) for o in owners] == before
    assert tracing.layer_metrics(tr)["crflag.rows"] == 1
