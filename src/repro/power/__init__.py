"""System-level (GPU + DRAM + NoC) energy modelling.

:class:`~repro.power.gpu_power.GPUPowerModel` combines GPUWattch-like core
coefficients with the DSENT-like NoC model to produce the
:class:`~repro.power.gpu_power.SystemEnergyReport` behind Figure 14's
adaptive-vs-shared energy comparison.
"""
