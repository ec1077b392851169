"""Memory subsystem: address mapping, GDDR5 bank timing, memory controllers.

* :mod:`repro.mem.address_map` — line-to-MC/slice/bank hashing (the
  paper's PAE mapping and the imbalanced Hynix alternative of Figure 16);
* :mod:`repro.mem.dram` — GDDR5 bank/channel state machines with the
  Table 1 timing parameters;
* :mod:`repro.mem.controller` — FR-FCFS memory controllers bridging LLC
  misses onto banks.
"""
