import pathlib
import warnings

import diracspace


def test_sources_compile_without_warnings():
    # invalid escapes in docstrings warn at compile time, which a cached
    # .pyc would hide
    for path in sorted(pathlib.Path(diracspace.__file__).parent.glob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_perfbench_hooks_are_defined_in_their_own_classes():
    # perfbench/tracing.py wraps only the attributes in a class's own
    # namespace, so an inherited method records no calls under these names
    from diracspace.calculus import _Graded
    from diracspace.graded import GPoly
    from diracspace.poly import Poly
    from diracspace.presentations import HamiltonianDatum

    for cls, names in ((Poly, ("__init__", "__add__", "__mul__", "partial")),
                       (_Graded, ("__add__", "__mul__")),
                       (GPoly, ("__init__",)),
                       (HamiltonianDatum, ("__init__",))):
        for name in names:
            assert name in vars(cls), f"{cls.__name__}.{name}"
