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
