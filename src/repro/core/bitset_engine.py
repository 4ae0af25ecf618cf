"""Former name of the fast coverage engine.

``BitsetCoverage`` is :class:`~repro.core.flat_engine.FlatCoverage`
under its old import path, kept only so existing imports resolve.
"""

from repro.core.flat_engine import FlatCoverage as BitsetCoverage  # noqa: F401
