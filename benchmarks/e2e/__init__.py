"""End-to-end benchmark: four workloads, host-cost and simulated-latency
metrics, and a per-layer traced run. Run with ``python -m benchmarks.e2e``."""
