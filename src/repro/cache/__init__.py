"""Cache substrate: the true-LRU tag store, MSHRs, L1, LLC slices, and the
auxiliary tag directory (ATD) used by the adaptive controller."""

from repro.cache.setassoc import AccessResult, SetAssocCache
from repro.cache.mshr import MSHRFile
from repro.cache.l1 import L1Cache
from repro.cache.llc_slice import LLCSlice
from repro.cache.atd import AuxiliaryTagDirectory

__all__ = [
    "AccessResult",
    "SetAssocCache",
    "MSHRFile",
    "L1Cache",
    "LLCSlice",
    "AuxiliaryTagDirectory",
]
