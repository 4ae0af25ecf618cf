"""Classic influence maximization (IM) — substrate and baseline.

IM is the special case of IMC with singleton communities and unit
thresholds. The paper compares against an RIS-based IM solver
(Section VI-A's ``IM`` baseline), provided here as an RR-set greedy
solver.
"""

from repro.im.ris_im import ris_im, rr_greedy_cover

__all__ = ["ris_im", "rr_greedy_cover"]
