"""Simulation engine: run protocols under the uniform random scheduler."""
