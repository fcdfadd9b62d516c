"""Suite-wide test settings.

Every property test runs under one hypothesis profile: examples drawn
from a fixed derandomized sequence, with no example database and no
deadline, so that a run of the suite is deterministic and its timing
does not decide a result.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
