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


def test_perfbench_hooks_reach_their_constructors(monkeypatch):
    # a traced perfbench lagrangian run records Poly constructor calls
    # only through sampling.random_vfield, and a traced oracle run needs
    # GPoly constructor calls from graded.oracle_bracket (through s_poly);
    # building either on the store alone would leave a hook at zero
    import random

    from diracspace import graded, sampling
    from diracspace.graded import GPoly, encode_element
    from diracspace.linfty import TwistedSectionsFamily
    from diracspace.poly import Context, Poly

    calls = {Poly: 0, GPoly: 0}
    for cls in calls:
        def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            calls[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)

    rng, ctx = random.Random(3), Context(3)
    sampling.random_vfield(rng, ctx, 1)
    assert calls[Poly] > 0
    F = TwistedSectionsFamily(2, ctx)
    elems = [encode_element(2, F.section(sampling.random_vfield(rng, ctx, 1),
                                         sampling.random_form(rng, ctx, 1)))
             for _ in range(2)]
    # a second call: a cache filled by the first must not starve the hook
    graded.oracle_bracket(2, ctx, elems)
    calls[GPoly] = 0
    graded.oracle_bracket(2, ctx, elems)
    assert calls[GPoly] > 0
