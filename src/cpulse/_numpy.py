"""numpy's names, each imported on its first read (PEP 562) and kept here:
a job that builds no array never imports numpy, cpulse imports without it,
and the first array call raises ModuleNotFoundError."""


def __getattr__(name: str):
    if name.startswith("__"):   # probes such as unittest's __warningregistry__
        raise AttributeError(name)
    import numpy
    return globals().setdefault(name, getattr(numpy, name))
