"""The repository benchmark: workloads, processes, tracing and the ``run.py`` entry point."""
