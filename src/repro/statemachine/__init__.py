"""Replicated state machines applied on top of the consensus log.

Leader election itself does not need a state machine, but log replication
(which ESCAPE leaves untouched and which the correctness arguments in
Section V rely on) does.  The examples and the workload replicate a
key-value store.
"""

from repro.statemachine.base import Command, StateMachine
from repro.statemachine.kvstore import (
    DeleteCommand,
    GetCommand,
    KeyValueStore,
    PutCommand,
    CompareAndSwapCommand,
)

__all__ = [
    "Command",
    "CompareAndSwapCommand",
    "DeleteCommand",
    "GetCommand",
    "KeyValueStore",
    "PutCommand",
    "StateMachine",
]
