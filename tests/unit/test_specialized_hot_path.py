"""The message path runs on loads that CPython 3.11 specializes.

CPython 3.11 rewrites an attribute or global load, after a few runs, into a
form that caches where the value lives (PEP 659).  A load it cannot cache
stays in its ``*_ADAPTIVE`` form and takes the generic lookup every time:
``Role.LEADER`` goes through ``EnumType.__getattr__`` (about 25 times the
cost of a module constant), a class attribute read through a slotted
instance costs about 3 times a slot, and a bound method held in an instance
attribute is a generic ``LOAD_METHOD``.  Instruction counts do not see any
of it: the same opcodes run either way (``docs/design-notes.md``, "What 3.11
cannot specialize").

So a fresh interpreter runs each registered protocol's s=16 failover
episode, and one s=16 serving window, three times: twice untraced to warm
the interpreter, then once traced opcode by opcode (``frame.f_trace_opcodes``;
a traced instruction runs in its generic form and moves no cache).  Before
each run it gives the functions of the message-path modules fresh code
objects, so each run reads as it would in a process of its own -- as the
benchmark runs one workload per process -- and not through the caches
another protocol's classes left.  A function of those modules is *hot* when
the traced run executes one of its loads more often than the cluster has
members, either per entry or because it enters the function that often (per
message, per timer or per heartbeat round; not per build, and not a scan of
the members).  It is the loads that count, not only the calls: the
scheduler's run loop is entered a few times an episode and delivers every
message.  Every executed
``LOAD_ATTR``, ``LOAD_METHOD``, ``LOAD_GLOBAL`` and ``STORE_ATTR`` of a hot
function must then read in a specialized form, or be on :data:`ALLOWED`,
under that function, with the reason it is not specialized there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import protocols

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="reads CPython 3.11's *_ADAPTIVE opcodes; 3.12 has none and "
    "specializes class and enum attribute reads itself",
)

#: The modules whose hot functions are read.
HOT_MODULES = (
    "repro.sim.flatcore",
    "repro.raft.state",
    "repro.raft.node",
    "repro.escape.node",
    "repro.cluster.builder",
    "repro.net.flatnet",
)

_HELD = (
    "a callable the instance holds, not a method of its class; 3.11 "
    "specializes LOAD_METHOD only for a method of the class"
)
_ENV = _HELD + (
    ": SimNodeEnvironment binds the clock's, scheduler's and network's entry "
    "points in its instance dict, so a call pays no adapter frame.  A "
    "forwarding method on the class would specialize but adds one, which "
    "costs more than it saves for the bound methods (CPython 3.11.7, per "
    "call: rearm_timer 204 against 184 ns, now 51 against 35); for the "
    "partials behind send and broadcast it read cheaper (580 against 611 ns "
    "a send), an open lever (docs/design-notes.md)"
)
_METHOD_VALUE = (
    "a method loaded as a value (a bound method is built to be stored or "
    "passed on); 3.11 specializes no LOAD_ATTR that finds a method"
)

_FLAG = (
    "a class flag read through a slotted node, which 3.11 does not "
    "specialize; slot copies of this flag and the other per-message one "
    "read +0.6 % on escape-failover-s128 (6 of 10 pairs, inside the spread "
    "of the runs without them; docs/changes/PR-47.md), so it stays a class "
    "attribute"
)

#: ``(function, opcode family, name)`` -> why 3.11 cannot specialize that
#: load there.  An entry covers only the function it names.
ALLOWED = {
    ("FlatNetwork.broadcast", "LOAD_ATTR", "random"): (
        _METHOD_VALUE + ": the latency draw the loop calls, once per broadcast"
    ),
    ("RaftNode._handle_request_vote", "LOAD_ATTR", "_grant_hook_is_default"): _FLAG,
    ("RaftNode._handle_request_vote", "LOAD_METHOD", "now"): _ENV,
    ("RaftNode._handle_request_vote", "LOAD_METHOD", "send"): _ENV,
    ("RaftNode._handle_append_entries", "LOAD_ATTR", "_adopts_piggyback"): _FLAG,
    ("RaftNode._handle_append_entries", "LOAD_METHOD", "send"): _ENV,
    ("RaftNode._handle_append_entries_response", "LOAD_METHOD", "now"): _ENV,
    ("RaftNode._reset_election_timer", "LOAD_METHOD", "rearm_timer"): _ENV,
    ("RaftNode._reset_election_timer", "LOAD_ATTR", "rng"): (
        "SimNodeEnvironment.rng is a cached_property: the stream sits in the "
        "instance dict behind a descriptor of the class, which 3.11 does not "
        "specialize; read per Raft timeout draw"
    ),
    ("RaftNode._on_election_timeout", "LOAD_METHOD", "now"): _ENV,
    ("RaftNode._start_election", "LOAD_METHOD", "now"): _ENV,
    ("RaftNode._start_election", "LOAD_METHOD", "broadcast"): _ENV,
    ("RaftNode._schedule_vote_retry", "LOAD_METHOD", "rearm_timer"): _ENV,
    ("RaftNode._schedule_vote_retry", "LOAD_ATTR", "_retry_vote_requests"): (
        _METHOD_VALUE + ": a timer's callback"
    ),
    ("RaftNode._retry_vote_requests", "LOAD_METHOD", "broadcast"): _ENV,
    ("RaftNode._change_role", "LOAD_METHOD", "now"): _ENV,
    ("RaftNode._send_heartbeats", "LOAD_METHOD", "broadcast"): _ENV,
    ("RaftNode._send_heartbeats", "LOAD_METHOD", "set_timer"): _ENV,
    ("RaftNode._send_heartbeats", "LOAD_ATTR", "_send_heartbeats"): (
        _METHOD_VALUE + ": a timer's callback"
    ),
    ("RaftNode._replicate_to_followers", "LOAD_METHOD", "broadcast"): _ENV,
    ("RaftNode._append_entries_factory", "LOAD_ATTR", "_decorate_is_default"): (
        "a class flag read through a slotted node, which 3.11 does not "
        "specialize; once per non-idle heartbeat round"
    ),
    ("RaftNode._append_entries_factory", "LOAD_ATTR", "_build_append_entries"): (
        _METHOD_VALUE + ", once per round"
    ),
    (
        "RaftNode._append_entries_factory", "LOAD_ATTR", "_hook_decorate_append_request"
    ): _METHOD_VALUE + ", once per round",
    ("RaftNode._append_entries_factory", "LOAD_ATTR", "next_index"): (
        _METHOD_VALUE + ", once per round"
    ),
    ("RaftNode._append_entries_factory", "LOAD_ATTR", "__getitem__"): (
        _METHOD_VALUE + ": an idle round's payload table"
    ),
    ("RaftNode._apply_committed_entries", "LOAD_METHOD", "now"): _ENV,
    ("RaftNode._apply_committed_entries", "LOAD_ATTR", "apply"): (
        _METHOD_VALUE + ", once per committed range"
    ),
    ("_LeaderTracker.on_role_change", "LOAD_METHOD", "_interrupt"): (
        _HELD + ": the leader tracker's slot holds the scheduler's interrupt "
        "(hot only while raft-fixed livelocks)"
    ),
}

#: Functions every run must find hot, or the guard reads nothing.
MESSAGE_PATH = (
    "FlatNetwork.send",
    "FlatNetwork.broadcast",
    "FlatEventScheduler._run",
    "RaftNode._handle_append_entries",
    "RaftNode._handle_append_entries_response",
    "RaftNode._reset_election_timer",
)

SIZE = 16
SEED = 7
WARM_RUNS = 2

CHILD = r"""
import dis, importlib, json, sys, types
from collections import Counter

from repro import protocols
from repro.chaos.plans import build_plan
from repro.cluster.scenarios import ElectionScenario
from repro.workload.scenario import ThroughputScenario

hot_modules, size, seed, warm_runs = json.loads(sys.argv[1])
modules = [importlib.import_module(name) for name in hot_modules]
files = {module.__file__ for module in modules}
families = ("LOAD_ATTR", "LOAD_METHOD", "LOAD_GLOBAL", "STORE_ATTR")


def functions(module):
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type):
            for member in vars(value).values():
                if isinstance(member, property):
                    member = member.fget
                if isinstance(member, types.FunctionType):
                    yield member


def fresh(code):
    consts = tuple(
        fresh(const) if isinstance(const, types.CodeType) else const
        for const in code.co_consts
    )
    return code.replace(co_consts=consts)


def reset():
    for module in modules:
        for function in functions(module):
            function.__code__ = fresh(function.__code__)


def traced(run):
    calls, executed = Counter(), {}

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        calls[code] += 1
        counts = executed.setdefault(code, Counter())
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode":
                counts[frame.f_lasti] += 1
            return local

        return local

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return calls, executed


def read(run):
    reset()
    for _ in range(warm_runs):
        run()
    calls, executed = traced(run)
    hot, cold, loads = [], [], []
    for code, offsets in executed.items():
        runs = max(
            (offsets[ins.offset] for ins in dis.get_instructions(code)
             if ins.opname in families),
            default=0,
        )
        if runs <= size * calls[code] and calls[code] <= size:
            continue
        hot.append(code.co_qualname)
        instructions = list(dis.get_instructions(code, adaptive=True))
        if not any(ins.opname == "RESUME_QUICK" for ins in instructions):
            cold.append(code.co_qualname)
            continue
        for ins in instructions:
            family = ins.opname.removesuffix("_ADAPTIVE")
            if ins.offset in offsets and family != ins.opname and family in families:
                loads.append({
                    "function": code.co_qualname,
                    "line": ins.positions.lineno,
                    "opcode": ins.opname,
                    "family": family,
                    "name": ins.argval,
                })
    return {"hot": sorted(hot), "cold": sorted(cold), "loads": loads}


runs = {
    protocol: (lambda protocol=protocol: ElectionScenario(protocol, size).run(seed))
    for protocol in protocols.names()
}
serving = ThroughputScenario(
    "escape",
    size,
    plan=build_plan("repeated-leader-kill", 6_000.0, seed=0),
    workload="open-poisson",
)
runs["serving"] = lambda: serving.run(seed)
print(json.dumps({name: read(run) for name, run in runs.items()}))
"""

RUNS = [*protocols.names(), "serving"]


@pytest.fixture(scope="module")
def report() -> dict:
    """What the fresh interpreter read, per run."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = json.dumps([HOT_MODULES, SIZE, SEED, WARM_RUNS])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _unspecialized(report: dict, run: str) -> list[str]:
    return [
        f"{load['function']} line {load['line']}: {load['opcode']} {load['name']}"
        for load in report[run]["loads"]
        if (load["function"], load["family"], load["name"]) not in ALLOWED
    ]


@pytest.mark.parametrize("run", RUNS)
def test_every_hot_load_is_specialized(report, run):
    unspecialized = _unspecialized(report, run)
    assert not unspecialized, (
        "loads on the message path that CPython 3.11 did not specialize (use a "
        "module constant for an enum member, a slot for a class attribute, "
        "`self._table.get(key)` for a held dict.get, or add the load to ALLOWED "
        "with the reason it cannot be specialized):\n  " + "\n  ".join(unspecialized)
    )


@pytest.mark.parametrize("run", RUNS)
def test_the_warm_up_quickens_every_hot_function(report, run):
    assert report[run]["cold"] == [], "hot functions the guard cannot read"


@pytest.mark.parametrize("run", RUNS)
def test_the_run_reaches_the_message_path(report, run):
    assert set(MESSAGE_PATH) <= set(report[run]["hot"])


def test_every_allowance_is_still_needed(report):
    seen = {
        (load["function"], load["family"], load["name"])
        for run in RUNS
        for load in report[run]["loads"]
    }
    assert set(ALLOWED) - seen == set()
