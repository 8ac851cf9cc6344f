"""Test-session setup.

When a hypothesis test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to write its failure patch, and that import can
emit a DeprecationWarning from a third-party module.  Under the project's
`filterwarnings = ["error"]` the warning would be raised inside pytest's
report hook and end the whole session with an INTERNALERROR.  Importing the
module once here, with that warning ignored, caches it, so a failing
hypothesis test is reported like any other failure.

`HYPOTHESIS_PROFILE=ci` loads the `ci` profile, which derandomizes every
hypothesis test: each run draws the same examples, so CI times and
failures reproduce.  Without it, local runs draw fresh examples.  Example
counts and health checks are those of the tests themselves either way.
"""

import os
import warnings

try:
    from hypothesis import settings
except ImportError:
    settings = None

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

if settings is not None:
    settings.register_profile("ci", derandomize=True)
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
        settings.load_profile("ci")
