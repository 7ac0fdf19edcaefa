"""Every binding site the benchmark's layer tracer patches still exists.

`perfbench/layertrace.py` wraps gf2lab functions at the module
attribute each caller looks them up through.  A renamed or removed
name in `src/` would break traced benchmark runs, and the benchmark's
own tests are not part of this suite, so the sites are resolved here.
"""
import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _traced():
    spec = importlib.util.spec_from_file_location("gf2lab_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_binding_site_resolves():
    sites = [site for _name, _kind, group in _traced() for site in group]
    assert sites
    missing = []
    for module_name, attr in sites:
        module = importlib.import_module(module_name)
        owner, _, method = attr.rpartition(".")
        target = getattr(module, owner, None) if owner else module
        raw = vars(target).get(method) if target is not None else None
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if not callable(fn):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing
