"""Seeded benchmark harness for qmalab; see README.md."""
