"""The benchmark's tracer patches orelab by name; every name must exist."""

import importlib
import importlib.util
import os
import sys

_TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_names_exist_in_orelab():
    tracer = _load_tracer()
    missing = []
    for modname, attr, *_ in tracer.FUNCTIONS:
        if not hasattr(importlib.import_module(f"orelab.{modname}"), attr):
            missing.append(f"{modname}.{attr}")
    for modname, clsname, meth, *_ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"orelab.{modname}"), clsname, None)
        if cls is None or meth not in cls.__dict__:
            missing.append(f"{modname}.{clsname}.{meth}")
    assert missing == []
