"""Cache substrate: the true-LRU tag store, MSHRs, L1, LLC slices, and the
auxiliary tag directory (ATD) used by the adaptive controller."""
