"""The repository benchmark: three workloads over MWeaver's public surfaces.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
