"""The repository benchmark: workloads, probes and the statistics they report."""
