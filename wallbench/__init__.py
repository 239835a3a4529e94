"""Wall-clock serving benchmark for the curation stack.

Run ``python3 wallbench/run.py --workload <interactive|bulk|gateway|all>
--seed N --seconds S --trace 0|1`` from the repository root.  The
benchmark builds the E17/E19 serving stack itself, drives it from one
client in a closed loop, checks every answer it samples against offline
oracles and prints measured wall-clock metrics; ``--trace 1`` adds
per-layer timings recorded from outside the program.
"""
