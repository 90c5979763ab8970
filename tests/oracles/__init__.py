"""Slow reference implementations kept as parity oracles.

Production code in ``src/`` has one implementation per job; the earlier,
simpler versions it replaced live here so parity tests can pin the fast
paths to them bit for bit.
"""
