"""numpy, bound through importlib's LazyLoader recipe and executed on first
attribute access, so that a job building no array, a design for one, never
pays numpy's import.  A numpy already imported is used as it is."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("cpulse needs numpy", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
