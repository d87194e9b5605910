"""Benchmark of the dogfight program: workloads, output checks, tracer."""
