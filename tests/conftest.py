"""Test-session setup.

When a hypothesis test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to write its failure patch, and that import can
emit a DeprecationWarning from a third-party module.  Under the project's
`filterwarnings = ["error"]` the warning would be raised inside pytest's
report hook and end the whole session with an INTERNALERROR.  Importing the
module once here, with that warning ignored, caches it, so a failing
hypothesis test is reported like any other failure.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
