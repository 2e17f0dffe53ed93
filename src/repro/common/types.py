"""Typed aliases shared across the library.

The paper identifies servers by small integers (``S1`` ... ``Sn``) and uses the
server identifier directly as the initial priority in the stochastic
configuration assignment (Section IV-A).  We therefore model a server
identifier as a positive ``int``.
"""

from __future__ import annotations

# A server identifier.  Positive integer, unique within a cluster.  The paper
# assigns priorities from server identifiers, so keeping this an ``int`` keeps
# Eq. 1 and Eq. 2 literal.
ServerId = int

# Raft's logical time.  Terms are positive integers that only ever increase
# (Section II-A).  ESCAPE preserves the monotonicity but makes the increment
# depend on the server's priority (Eq. 2).
Term = int

# Index into the replicated log.  The first real entry has index 1; index 0 is
# the sentinel "empty log" position, matching the Raft paper's convention.
LogIndex = int

# Durations and timestamps.  All simulated and wall-clock times in this
# library are expressed in milliseconds as floats, mirroring the units used
# throughout the paper's evaluation (election timeouts of 1500-3000 ms,
# network latency of 100-200 ms).
Milliseconds = float
