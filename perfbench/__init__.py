"""Benchmark harness for the v2vaoi command line; entry point ``run.py``."""
