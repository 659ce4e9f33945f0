"""FHE schemes supported by the EFFACT platform: CKKS, BGV, BFV, TFHE.

CKKS, BFV and BGV all evaluate on the shared scheme-agnostic stacked
RNS core (:mod:`repro.schemes.rns_core`); :mod:`repro.schemes.reference`
holds their per-polynomial reference evaluators (``stacked=False``),
the differential oracle of that core.  The seed's per-coefficient
BFV/BGV implementations live on as test-only oracles in
``tests/oracles/toy.py``.
"""

from . import bfv, bgv, ckks, rns_core, tfhe

__all__ = ["bfv", "bgv", "ckks", "rns_core", "tfhe"]
