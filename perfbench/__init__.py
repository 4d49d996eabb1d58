"""Host-time benchmark for ltesim: end-to-end workloads and a traced
per-layer breakdown. Run it with `python3 perfbench/run.py --help`."""
