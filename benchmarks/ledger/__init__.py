"""Orion perf ledger: the repository's one benchmark (see README.md here)."""
