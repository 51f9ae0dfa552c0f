"""Repository benchmark: workload harness, tracing and the launcher."""
