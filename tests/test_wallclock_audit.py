"""Static audits of the engine family: no wall-clock, one slow path,
no reaching into the telemetry hub, one entry lifecycle, one §7 mode
decider, no run-time steering of the cache's knobs, two homes for the
bench clock, one prefix structure and one partition DP, no salted hash,
one fan-out, one idle timer, one reader of the classifier's state,
one home for the slow-path memo, no public function or method without
a caller, one home each for the two change records staleness is judged
by, one place a run is built, no asking a cache what kind it is, one
header layout, one telemetry record, no trivial accessor, no setting
that no program sets.

Every cadence in the engine family — idle sweeps, telemetry snapshots,
churn deadlines, serving micro-batches, fabric hop fan-out — fires off
*packet timestamps*.  A single ``time.time()`` (or ``datetime.now()``)
creeping into one of these modules would make results depend on host
speed and break driver equivalence (streaming == columnar == serving
== fabric), so the modules below are pinned wall-clock-free by AST
inspection.  Wall-clock is legitimately used elsewhere — the CLI's
throughput timers, the sharded driver's worker watchdog, the HTTP ops
surface — which is exactly why those modules are *not* on this list.

The second audit keeps the per-packet body single: across the modules
that drive packets, the slow path (``pipeline.execute``) and the
install (``system.install``) are each reached from exactly one
function, ``PacketKernel.miss`` — a driver that grows its own copy
fails here instead of needing a docstring asking it not to.

The third keeps the telemetry hub's internals its own: outside
``repro/obs`` nothing reads a ``_``-prefixed attribute of a telemetry
object — instrumented code gets counter children through the public
observers (``tss_observer``, ``ltm_observer``) and emits through the
hooks.

The fourth keeps the entry lifecycle folded: under ``repro/cache`` and
``repro/core`` the departure ledger (``stats.evictions +=``,
``on_evict``, ``on_victim``) is written only by
``FlowCache._depart`` and the idle boundary (``… - x.last_used > …``)
compared only by ``FlowCache.evict_idle`` — the next departure reason
cannot bypass the chokepoint.  Each cache's id → entry index is its LRU
order, which equals ``last_used`` order only while every writer is a
``touch`` that moves both together: ``.move_to_end`` is read (called,
or bound for a later call) and ``.last_used`` assigned only inside a
``touch`` (and where an entry gets its first use time: its
constructor, and the insert that files it; a constructor may also bind
the move).

The fifth keeps the §7 mode decision single: ``ModeGovernor`` decides
disjoint↔Megaflow, so ``.set_mode(`` is called nowhere under ``repro``
outside ``core/adaptive.py`` and nothing assigns an ``external``
attribute (the switch that once handed the decision to a second decider
in the controller).  That controller is gone — measured, its placement
knob was a constant and its timeout knob inert or harmful
(``docs/adaptive.md``) — and it stays gone: ``placement`` is
assigned only in ``GigaflowCache.__init__``, nothing but the telemetry
hub's own sweep observer defines an ``on_sweep``, and nothing imports
from a ``controller`` module.

The sixth keeps ``repro bench``'s reports behavioural: in ``gates.py``
the ``time`` module is read only inside ``phase_obs`` and
``phase_shards``, the two phases whose gates are about cost on this
host — a clock anywhere else (a shared timed-run helper, a fabric
stopwatch) would put a host-dependent column back into a report that
is otherwise a function of code + scale + seeds.

The seventh keeps the slow path's two structures single.
``classify/trie.py`` was a per-bit trie and is a sorted index;
``core/partition.py`` ran its DP per call and runs it per shape.  Each
replaced its predecessor in place, so each module defines exactly one
prefix-structure class / one triple-nested DP loop and reads no clock —
a "fast path beside the legacy path" fork (or a self-timing fallback)
fails here.  The per-bit trie lives on as ``tests/reference_trie.py``.

The eighth keeps a seeded run a function of its seeds.  Builtin
``hash`` is salted per interpreter for str and bytes and for nothing
else, so outside ``__hash__`` methods it is called only at the sites
below, each of which hashes ints or tuples of ints; a new site has to be
argued onto the list, and anything keyed by a str goes through
``zlib.crc32`` as ``flow_shard`` and Pipebench's ``tp_src`` do
(``tests/test_hash_seed_independence.py`` is the run-time check).

The ninth keeps the fan-out single.  The sharded engine and the fabric
each once carried their own copy of "derive a hub per part, run, merge"
(and a one-part fork beside it), and the copies drifted; both now go
through ``sim/fanout.py``, so ``.derive(``, ``SimResult.merge(`` and
``MetricsRegistry.merged(`` are called nowhere else under ``repro``.

The tenth keeps idle expiry the paper's one ``max_idle`` timer.  A
per-rule timeout predictor once rode on top of it; measured, it added
misses on the paper's cells and lost to a static timer on Gigaflow even
on the trace built for it (``docs/eviction.md``, "Measured and
deleted").  No module under ``repro`` mentions it, and ``SimConfig``
has exactly the seven fields below.

The eleventh keeps the TSS classifier's state its own.  A plain lookup
finds its winner through the level index and *computes* the walk's
``groups_probed``; that is exact only while ``classify/tss.py`` is the
one module that reads or writes the group table, the walk's probe-order
snapshot and the index — so no other module under ``repro`` touches
those attributes.

The twelfth keeps the slow-path memo inside ``pipeline/``.  A counted
``Pipeline.execute`` answers a flow it already walked at this
generation, and a remembered traversal hands out the slices it already
derived; that is exact only while ``pipeline/`` is the one package that
reads or writes the remembered traversals, the generation they were
walked at and a traversal's derived slices.

The thirteenth keeps the library surface the size of what runs.  A
P4 generator, a JSON snapshot format, a Graphviz export, a line-rate
model and a score of helpers once lived here with only their own tests
calling them.  Every top-level public ``def`` under ``repro``, and
every public method or property of a top-level class, must now be
named somewhere a program lives — the package outside its
``__init__`` re-exports, ``bench/``, ``benchmarks/``, ``examples/``,
``docs/*.md`` — other than its own definition; tests do not count.
A function counts as called where its name occurs as a word.  A method
or property counts as called only where it is read as an attribute
(``.name``) or through ``getattr(…, "name")``: a bare word — a local
variable, a field, a sentence — once hid ``FlowKey.zero`` and
``Wildcard.full``.  A same-named attribute of another class still
counts, and a module's own ``__all__`` does not.  The names on
``UNCALLED_ALLOWED`` are kept on purpose, each with its reason.

The fourteenth keeps the two change records single.  Revalidation skips
the replay of an entry none of whose tables changed since its last
agreeing walk, and a stale fast-path record re-runs only the LTM
lookups whose bucket changed; each is exact only while every change is
recorded.  So the per-table record (``Pipeline._changed_at``) is read
or written nowhere outside ``pipeline/``, whose tables report each rule
change to it, and the per-tag counter (``TagDependency.changes``) is
written nowhere outside ``core/ltm.py``, whose ``LtmTable.insert`` and
``remove`` move it.

The fifteenth keeps building a run in one place.  Sizing a run — flows,
a cache capacity split over K tables, a trace profile, seeds — was once
spelled out by two scale classes, three workload builders and five
caching-system factories, so a new sizing input had to land in each.
Now :class:`~repro.experiments.ExperimentScale` builds every run, so
outside its module nothing under ``repro`` calls a caching-system
constructor, ``Pipebench`` or ``PipebenchConfig`` — apart from the
generator's own ``build_workload`` and the config's own internals.

The sixteenth keeps the cache type behind the cache classes.  The caches
differ only in what an entry is; revalidation once dispatched on
``isinstance`` to one of two revalidators, and the snapshot, the stats
walk and the churn runtime probed caches with ``getattr``.  Every cache
now keeps one :class:`~repro.cache.base.FlowCache` contract, so outside
a cache class's own module nothing under ``repro`` asks
``isinstance(…, <a FlowCache subclass>)``, and nothing calls
``getattr`` / ``hasattr`` over a cache — on an object named for one, or
for an attribute a cache class defines — apart from one named site.

The seventeenth keeps the header layout one constant.  The paper's LTM
key is fixed when the P4 program is compiled, and the program has one
layout, ``repro.flow.fields.DEFAULT_SCHEMA``; a ``schema`` parameter
once ran from every key and mask through the classifier, the tables and
the caches to the simulated systems, with mismatch checks no program
could trip.  So no function or method under ``repro`` takes a
parameter named ``schema``, no class declares a ``schema`` field or
stores a ``.schema`` attribute, and no module other than
``flow/fields.py`` calls ``FieldSchema(``.

The eighteenth keeps one telemetry record per run.  A run's telemetry is
its hub's :class:`~repro.obs.metrics.MetricsRegistry`, which folds shards
and fabric switches by the rule each family declares where it is
registered.  A second record — a digest copied out of the registry onto
``SimResult`` and folded by ``*_MERGE`` rule tables — once duplicated
every count and its merge.  So nothing under ``repro`` declares a
``*_MERGE`` table, and ``SimResult`` has no field named for telemetry.

The nineteenth keeps reads plain.  A property whose body is only
``return self.<attr>`` costs a Python frame per read and buys nothing a
plain attribute under the public name does not; a memoized hit once
opened two such frames (the cache's epoch and the flow's key) beside the
three that do its work.  So no ``@property`` under ``repro``, its
docstring aside, is only ``return self.<attr>``, and an LTM rule's
``identity`` is a slot, not a method.  A property that computes — a
lazy view, a sum over levels — is not trivial.

The twentieth keeps every setting earning its place.  The paper's model
has few free parameters; its calibrations are measured constants.  Thirty
settable values — governor thresholds, slow-path costs, trace-shape and
pool-size knobs, a revalidation cadence, a decode chunk — were once set
by nothing but tests, each a configuration no benchmark or golden
covered.  So every field of the run-shaping config classes must be set
by a call in a program — ``src/`` outside the class's own body,
``bench/``, ``benchmarks/``, ``examples/``, never a test: passed to the
class by keyword, by position or as a key of a ``**{...}`` literal, to
``dataclasses.replace``, or by keyword to a function that forwards its
``**`` keywords to either.  The fields on ``SETTING_ALLOWED`` are kept
unset on purpose, each with its reason.
"""

import ast
import dataclasses
import pathlib
import re
import types

import pytest

import repro
from repro.cache.base import FlowCache
from repro.core import LtmRule
from repro.experiments import ExperimentScale
from repro.metrics import LatencyModel
from repro.serve import ServeConfig
from repro.sim import ChurnConfig, SimConfig, SimResult
from repro.workload import (
    LocalityProfile,
    PipebenchConfig,
    TraceProfile,
)

SRC = pathlib.Path(repro.__file__).resolve().parent

#: Modules whose every decision must be simulated-time only
#: (``sim/engine.py`` is where the packet kernel lives).
AUDITED = [
    "serve.py",
    "sim/churn.py",
    "sim/engine.py",
    "sim/batch.py",
    "sim/fanout.py",
    "net/fabric.py",
    "net/topology.py",
]

#: The kernel's module and every driver that feeds it.
LOOP_MODULES = ["sim/engine.py", "sim/batch.py", "serve.py"]

#: Modules that must never be imported there (wall-clock sources).
FORBIDDEN_MODULES = {"time", "datetime"}


def _violations(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in FORBIDDEN_MODULES:
                    found.append(
                        f"{path.name}:{node.lineno} imports {alias.name}"
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in FORBIDDEN_MODULES:
                found.append(
                    f"{path.name}:{node.lineno} imports from {node.module}"
                )
        elif isinstance(node, ast.Attribute):
            # Catches time.time()/time.monotonic() reached through an
            # aliased module object smuggled in some other way.
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in FORBIDDEN_MODULES
            ):
                found.append(
                    f"{path.name}:{node.lineno} uses "
                    f"{node.value.id}.{node.attr}"
                )
    return found


@pytest.mark.parametrize("relpath", AUDITED)
def test_module_is_wallclock_free(relpath):
    violations = _violations(SRC / relpath)
    assert not violations, (
        "wall-clock leaked into a simulated-time module:\n  "
        + "\n  ".join(violations)
    )


def test_wallclock_audit_sees_a_violation(tmp_path):
    path = tmp_path / "fanout.py"
    path.write_text(
        "import time\n"
        "from datetime import datetime\n"
        "def part(clock):\n"
        "    return time.perf_counter()\n"
    )
    assert _violations(path) == [
        "fanout.py:1 imports time",
        "fanout.py:2 imports from datetime",
        "fanout.py:4 uses time.perf_counter",
    ]


def test_audited_modules_exist():
    for relpath in AUDITED:
        assert (SRC / relpath).is_file(), relpath


def _terminal_name(node):
    """``pipeline`` for both ``pipeline`` and ``self.pipeline``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _functions_touching(owner: str, method: str):
    """Qualified names of functions in the loop modules that mention
    ``<owner>.<method>`` — called on the spot, or hoisted into a local
    and called from there."""
    found = set()

    def visit(node, scope, relpath):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name], relpath)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == method
                and _terminal_name(child.value) == owner
            ):
                found.add(f"{relpath}:{'.'.join(scope) or '<module>'}")
            visit(child, scope, relpath)

    for relpath in LOOP_MODULES:
        path = SRC / relpath
        visit(ast.parse(path.read_text(), filename=str(path)), [], relpath)
    return found


@pytest.mark.parametrize("owner, method", [
    ("pipeline", "execute"),
    ("system", "install"),
])
def test_slow_path_is_reached_from_one_function(owner, method):
    assert _functions_touching(owner, method) == {
        "sim/engine.py:PacketKernel.miss"
    }


#: Names instrumented code binds a telemetry hub to.
TELEMETRY_NAMES = {"tel", "telemetry", "_tel"}


def _private_telemetry_reads(source: str):
    """``(line, "name.attr")`` for every ``_``-prefixed attribute read
    off a name a telemetry hub is bound to."""
    return [
        (node.lineno, f"{_terminal_name(node.value)}.{node.attr}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and _terminal_name(node.value) in TELEMETRY_NAMES
    ]


def test_no_private_telemetry_attribute_outside_obs():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {read}"
        for path in sorted(SRC.rglob("*.py"))
        if "obs" not in path.relative_to(SRC).parts
        for line, read in _private_telemetry_reads(path.read_text())
    ]
    assert not offenders, (
        "private telemetry state read outside repro/obs:\n  "
        + "\n  ".join(offenders)
    )


def test_private_telemetry_audit_sees_a_violation():
    assert _private_telemetry_reads(
        "def f(self):\n"
        "    tel = self.telemetry\n"
        "    a = tel._deltas\n"
        "    b = self.telemetry._name\n"
        "    c = self._tel.registry\n"
    ) == [(3, "tel._deltas"), (4, "telemetry._name")]


#: Where the entry lifecycle lives: the only scopes under
#: ``repro/cache`` and ``repro/core`` allowed to write the departure
#: ledger or compare the idle boundary — and, besides every ``touch``
#: and constructor, to write an entry's use time (the insert that
#: files a Megaflow entry stamps it with the install time).
LIFECYCLE_HOME = {
    # ``apply_hit`` is a hit's touch, through its record's ``touches``;
    # ``FastPathIndex.lookup`` holds the same body inline for a
    # memoized hit.
    "cache/base.py": {
        "FlowCache._depart", "FlowCache.evict_idle", "apply_hit",
    },
    "cache/megaflow.py": {"MegaflowCache.install"},
    "sim/fastpath.py": {"FastPathIndex.lookup"},
}


def _is_idle_age(node):
    """``<anything> - x.last_used``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.right, ast.Attribute)
        and node.right.attr == "last_used"
    )


def _assigned_attrs(node):
    """Names of the attributes an assignment statement writes (``()``
    for any other node)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return ()
    return [t.attr for t in targets if isinstance(t, ast.Attribute)]


def _writes_last_used(node):
    return "last_used" in _assigned_attrs(node)


def _lifecycle_bypasses(source: str, home=frozenset()):
    """``(line, what)`` for every departure-ledger write and idle-age
    comparison in ``source`` outside the ``home`` scopes, and every
    recency write or ``move_to_end`` read outside them, a ``touch`` or
    a constructor."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name])
                continue
            what = None
            if (
                isinstance(child, ast.AugAssign)
                and isinstance(child.target, ast.Attribute)
                and child.target.attr == "evictions"
                and _terminal_name(child.target.value) == "stats"
            ):
                what = "stats.evictions +="
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("on_evict", "on_victim")
            ):
                what = f".{child.func.attr}("
            elif isinstance(child, ast.Compare) and any(
                _is_idle_age(side)
                for side in [child.left, *child.comparators]
            ):
                what = "idle-boundary comparison"
            elif scope[-1:] not in (["touch"], ["__init__"]):
                # Any read, not only a call: a bound move kept for
                # later would move entries from wherever it is called.
                if (
                    isinstance(child, ast.Attribute)
                    and child.attr == "move_to_end"
                ):
                    what = ".move_to_end"
                elif _writes_last_used(child):
                    what = ".last_used ="
            if what is not None and ".".join(scope) not in home:
                found.append((child.lineno, what))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_entry_lifecycle_has_one_home():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {what}"
        for package in ("cache", "core", "sim")
        for path in sorted((SRC / package).rglob("*.py"))
        for line, what in _lifecycle_bypasses(
            path.read_text(),
            LIFECYCLE_HOME.get(path.relative_to(SRC).as_posix(), ()),
        )
    ]
    assert not offenders, (
        "entry departure / idle boundary handled outside "
        "FlowCache._depart / FlowCache.evict_idle, or recency written "
        "outside a touch:\n  " + "\n  ".join(offenders)
    )


def test_entry_lifecycle_audit_sees_a_violation():
    source = (
        "class C:\n"
        "    def evict_idle(self, now, max_idle):\n"
        "        stale = [e for e in self if now - e.last_used > max_idle]\n"
        "        self.stats.evictions += len(stale)\n"
        "        self.telemetry.on_evict(self.name, 'idle', len(stale))\n"
        "    def install(self, now, victim):\n"
        "        tel.on_victim(self.name, 'lru', now - victim.last_used)\n"
        "        older = a.last_used < b.last_used\n"
        "    def lookup(self, entry, now):\n"
        "        entry.last_used = now\n"
        "        self._by_id.move_to_end(entry.rule_id)\n"
        "    def touch(self, entry, now):\n"
        "        entry.last_used = now\n"
        "        self._by_id.move_to_end(entry.rule_id)\n"
        "    def __init__(self, now):\n"
        "        self.last_used = now\n"
        "        self.move_to_recent = self._by_id.move_to_end\n"
        "    def keep(self):\n"
        "        self.later = self._by_id.move_to_end\n"
    )
    assert _lifecycle_bypasses(source) == [
        (3, "idle-boundary comparison"),
        (4, "stats.evictions +="),
        (5, ".on_evict("),
        (7, ".on_victim("),
        (10, ".last_used ="),
        (11, ".move_to_end"),
        (19, ".move_to_end"),
    ]
    assert _lifecycle_bypasses(source, {"C.evict_idle", "C.lookup"}) == [
        (7, ".on_victim("),
        (19, ".move_to_end"),
    ]


#: The one module allowed to switch the partitioner mode.
MODE_HOME = "core/adaptive.py"


def _mode_decider_bypasses(source: str):
    """``(line, what)`` for every ``.set_mode(`` call and every
    assignment to an attribute named ``external``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set_mode"
        ):
            found.append((node.lineno, ".set_mode("))
        else:
            found += [
                (node.lineno, ".external =")
                for attr in _assigned_attrs(node) if attr == "external"
            ]
    return sorted(found)


def test_mode_is_decided_in_one_module():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in _mode_decider_bypasses(path.read_text())
        if what == ".external ="
        or path.relative_to(SRC).as_posix() != MODE_HOME
    ]
    assert not offenders, (
        "partitioner mode switched outside ModeGovernor, or a governor "
        "handed to an external decider:\n  " + "\n  ".join(offenders)
    )


def test_mode_decider_audit_sees_a_violation():
    assert _mode_decider_bypasses(
        "def attach(self, cache):\n"
        "    cache.governor.external = True\n"
        "def on_sweep(self):\n"
        "    self._governor.set_mode(True)\n"
        "    mode = governor.megaflow_mode\n"
    ) == [(2, ".external ="), (4, ".set_mode(")]


#: Where the install-time knobs are set, once — and the one ``on_sweep``
#: that is not a control loop: the hub *observes* an idle sweep (the
#: ``sweep`` event; the benchmark of record's layer tracer wraps it by
#: name).
STEERING_HOME = {
    "core/gigaflow.py": {"GigaflowCache.__init__"},
    "obs/telemetry.py": {"Telemetry.on_sweep"},
}


def _runtime_steering(source: str, home=frozenset()):
    """``(line, what)`` for every assignment to an attribute named
    ``placement``, every ``on_sweep`` definition and every import from
    a ``controller`` module, outside ``home``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            what = None
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = scope + [child.name]
                if child.name == "on_sweep":
                    what = "def on_sweep"
            elif isinstance(child, ast.ImportFrom) and (
                child.module or ""
            ).split(".")[-1] == "controller":
                what = f"from {'.' * child.level}{child.module} import"
            for attr in _assigned_attrs(child):
                if attr == "placement":
                    what = f".{attr} ="
            if what is not None and ".".join(inner) not in home:
                found.append((child.lineno, what))
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def test_cache_knobs_are_fixed_at_construction():
    offenders = [
        f"{relpath}:{line} {what}"
        for path in sorted(SRC.rglob("*.py"))
        for relpath in [path.relative_to(SRC).as_posix()]
        for line, what in _runtime_steering(
            path.read_text(), STEERING_HOME.get(relpath, ())
        )
    ]
    assert not offenders, (
        "a cache knob steered after construction, or a sweep-cadence "
        "control loop:\n  " + "\n  ".join(offenders)
    )


def test_knob_audit_sees_a_violation():
    source = (
        "from ..core.controller import AdaptiveController\n"
        "class GigaflowCache:\n"
        "    def __init__(self, placement):\n"
        "        self.placement = placement\n"
        "class Loop:\n"
        "    def attach(self, cache):\n"
        "        cache.placement = 'earliest'\n"
        "    def on_sweep(self, now, snapshot):\n"
        "        self.cache.placement = 'balanced'\n"
        "        placement = self.cache.placement\n"
    )
    assert _runtime_steering(source, {"GigaflowCache.__init__"}) == [
        (1, "from ..core.controller import"),
        (7, ".placement ="),
        (8, "def on_sweep"),
        (9, ".placement ="),
    ]


#: The two phases of ``repro bench`` that own a clock.
CLOCK_HOME = {"phase_obs", "phase_shards"}


def _clock_reads(source: str, home=frozenset()):
    """``(line, "scope: time.attr")`` for every attribute read off the
    name ``time`` outside the ``home`` functions."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "time"
                and not (scope and scope[0] in home)
            ):
                where = ".".join(scope) or "<module>"
                found.append((child.lineno, f"{where}: time.{child.attr}"))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_bench_clock_has_two_homes():
    offenders = _clock_reads((SRC / "gates.py").read_text(), CLOCK_HOME)
    assert not offenders, (
        "repro.gates reads the clock outside phase_obs / phase_shards:\n  "
        + "\n  ".join(f"gates.py:{line} {what}" for line, what in offenders)
    )


def test_bench_clock_audit_sees_a_violation():
    source = (
        "import time\n"
        "def timed_run(driver, trace):\n"
        "    start = time.perf_counter()\n"
        "    return driver.run(trace), time.perf_counter() - start\n"
        "def phase_obs(scale, out):\n"
        "    def once():\n"
        "        return time.process_time()\n"
        "def phase_net(scale, out):\n"
        "    elapsed = time.perf_counter()\n"
    )
    assert _clock_reads(source, CLOCK_HOME) == [
        (3, "timed_run: time.perf_counter"),
        (4, "timed_run: time.perf_counter"),
        (9, "phase_net: time.perf_counter"),
    ]


#: Module -> the one structure it may define.
SLOW_PATH_STRUCTURES = {
    "classify/trie.py": ("classes", ["PrefixTrie"]),
    "core/partition.py": ("dp bodies", ["_dp_cuts"]),
}


def _classes(source: str):
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]


def _dp_bodies(source: str):
    """Names of the functions holding a loop nested three deep — the
    O(N²·K) table fill, spelled with statements or comprehensions."""
    loops = (
        ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp,
        ast.DictComp,
    )

    def depth(node):
        inner = max((depth(c) for c in ast.iter_child_nodes(node)), default=0)
        return inner + isinstance(node, loops)

    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and depth(node) >= 3
    ]


@pytest.mark.parametrize("relpath", sorted(SLOW_PATH_STRUCTURES))
def test_slow_path_structure_is_single_and_wallclock_free(relpath):
    path = SRC / relpath
    assert not _violations(path)
    kind, expected = SLOW_PATH_STRUCTURES[relpath]
    found = {"classes": _classes, "dp bodies": _dp_bodies}[kind]
    assert found(path.read_text()) == expected, (
        f"{relpath} must define exactly these {kind}: {expected}"
    )


def test_slow_path_structure_audit_sees_a_violation():
    assert _classes(
        "class PrefixIndex: pass\n"
        "class _TrieNode: pass\n"
        "class PrefixTrie:\n"
        "    class Node: pass\n"
    ) == ["PrefixIndex", "_TrieNode", "PrefixTrie", "Node"]
    assert _dp_bodies(
        "def cuts(n):\n"
        "    for k in range(n):\n"
        "        for i in range(n):\n"
        "            while i:\n"
        "                i -= 1\n"
        "def legacy_cuts(n):\n"
        "    return [[[0 for j in range(i)] for i in range(k)] for k in range(n)]\n"
        "def flat(n):\n"
        "    for k in range(n):\n"
        "        for i in range(n):\n"
        "            pass\n"
    ) == ["cuts", "legacy_cuts"]


#: Module -> the functions that may call builtin ``hash``, with what
#: they hash.
HASH_HOME = {
    # (table id, tuple of int field values / canonical int key)
    "workload/pipebench.py": {
        "Pipebench._project", "Pipebench._rule_actions",
    },
    # A FlowKey, whose __hash__ is hash(tuple of ints); the packet hooks
    # inline flow_id (tests/test_obs_catalog.py pins the agreement).
    "obs/trace.py": {"flow_id"},
    "obs/telemetry.py": {
        "Telemetry._bind_packet_hooks.on_fastpath_replay",
        "Telemetry._bind_packet_hooks.on_lookup",
    },
}


def _hash_calls(source: str, home=frozenset()):
    """``(line, scope)`` for every call of the builtin ``hash`` outside
    ``__hash__`` methods and the ``home`` scopes."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name])
                continue
            where = ".".join(scope) or "<module>"
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "hash"
                and scope[-1:] != ["__hash__"]
                and where not in home
            ):
                found.append((child.lineno, where))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_builtin_hash_is_called_only_on_ints():
    offenders = [
        f"{relpath}:{line} {where}"
        for path in sorted(SRC.rglob("*.py"))
        for relpath in [path.relative_to(SRC).as_posix()]
        for line, where in _hash_calls(
            path.read_text(), HASH_HOME.get(relpath, ())
        )
    ]
    assert not offenders, (
        "builtin hash() outside the int-only allowlist (salted for str "
        "and bytes; use zlib.crc32):\n  " + "\n  ".join(offenders)
    )
    # The allowlist names nothing that is not there.
    for relpath, home in HASH_HOME.items():
        called = {w for _, w in _hash_calls((SRC / relpath).read_text())}
        assert called == home, relpath


def test_hash_audit_sees_a_violation():
    source = (
        "class Key:\n"
        "    def __hash__(self):\n"
        "        return hash(self._values)\n"
        "class Pipebench:\n"
        "    def _pilot_flow(self, class_key):\n"
        "        return 1024 + abs(hash(class_key)) % 60000\n"
        "    def _project(self, table, values):\n"
        "        return abs(hash((table.table_id, values)))\n"
        "SALT = hash('svc')\n"
    )
    assert _hash_calls(source, {"Pipebench._project"}) == [
        (6, "Pipebench._pilot_flow"),
        (9, "<module>"),
    ]


#: The one module that derives per-part hubs and folds parts' results.
FANOUT_HOME = "sim/fanout.py"


def _fan_out_calls(source: str):
    """``(line, call)`` for every ``.derive(``, ``SimResult.merge(`` and
    ``MetricsRegistry.merged(`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ):
            continue
        owner = _terminal_name(node.func.value)
        call = f"{owner}.{node.func.attr}("
        if node.func.attr == "derive":
            found.append((node.lineno, ".derive("))
        elif call in ("SimResult.merge(", "MetricsRegistry.merged("):
            found.append((node.lineno, call))
    return found


def test_fan_out_has_one_home():
    offenders = [
        f"{relpath}:{line} {call}"
        for path in sorted(SRC.rglob("*.py"))
        for relpath in [path.relative_to(SRC).as_posix()]
        if relpath != FANOUT_HOME
        for line, call in _fan_out_calls(path.read_text())
    ]
    assert not offenders, (
        "a per-part hub derived or parts merged outside sim/fanout.py:\n  "
        + "\n  ".join(offenders)
    )
    assert _fan_out_calls((SRC / FANOUT_HOME).read_text())


def test_fan_out_audit_sees_a_violation():
    assert _fan_out_calls(
        "def by_role(self, role):\n"
        "    return SimResult.merge(self.results(role))\n"
        "def run(self, parent):\n"
        "    tel = parent.derive('leaf0')\n"
        "    registry = MetricsRegistry.merged([tel.registry])\n"
        "    merged = registry.merge(other)\n"
        "    result = merge_results(parts)\n"
    ) == [(2, "SimResult.merge("), (4, ".derive("),
          (5, "MetricsRegistry.merged(")]


#: Names only the deleted per-rule timeout predictor answered to,
#: joined from halves so that this file does not carry them whole and a
#: search of the tree for any of them finds nothing.
PREDICTOR, CONFIG, MODULE = (
    "timeout_" + "predictor", "Timeout" + "Config", "core." + "timeouts"
)
PREDICTOR_MARKS = (PREDICTOR, CONFIG, MODULE)
#: ``SimConfig``'s fields, in order: one idle timer, no predictor.
SIM_CONFIG_FIELDS = (
    "max_idle", "sweep_interval", "window", "latency", "fast_path",
    "telemetry", "churn",
)


def _predictor_mentions(source: str):
    """``(line, mark)`` for every line of ``source`` naming a
    :data:`PREDICTOR_MARKS` entry, code or prose."""
    return [
        (lineno, mark)
        for lineno, line in enumerate(source.splitlines(), 1)
        for mark in PREDICTOR_MARKS
        if mark in line
    ]


def _field_names(cls):
    return tuple(field.name for field in dataclasses.fields(cls))


def test_idle_expiry_is_one_timer():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {mark}"
        for path in sorted(SRC.rglob("*.py"))
        for line, mark in _predictor_mentions(path.read_text())
    ]
    assert not offenders, (
        "the per-rule timeout predictor is back:\n  " + "\n  ".join(offenders)
    )
    assert _field_names(SimConfig) == SIM_CONFIG_FIELDS


def test_idle_timer_audit_sees_a_violation():
    assert _predictor_mentions(
        f"from ..{MODULE} import {CONFIG}\n"
        "def attach(cache, predictor):\n"
        f"    cache.{PREDICTOR} = predictor\n"
        "    timeout = cache.max_idle\n"
    ) == [(1, CONFIG), (1, MODULE), (3, PREDICTOR)]
    with_predictor = dataclasses.make_dataclass(
        "SimConfig",
        [*SIM_CONFIG_FIELDS[:-1], "timeouts", SIM_CONFIG_FIELDS[-1]],
    )
    assert _field_names(with_predictor) != SIM_CONFIG_FIELDS


#: The classifier's module, and its state no other module may touch:
#: the group table, the level index, the walk state (prefix tries,
#: probe-order snapshot).
TSS_HOME = "classify/tss.py"
TSS_PRIVATE = frozenset({
    "_groups", "_levels", "_ladder", "_ladder_dirty",
    "_tries", "_ordered", "_order_dirty",
})


def _state_uses(source: str, private=TSS_PRIVATE):
    """``(line, ".attr")`` for every use of a ``private`` attribute,
    read or written."""
    return sorted(
        (node.lineno, f".{node.attr}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in private
    )


def test_tss_state_has_one_home():
    offenders = [
        f"{relpath}:{line} {attr}"
        for path in sorted(SRC.rglob("*.py"))
        for relpath in [path.relative_to(SRC).as_posix()]
        if relpath != TSS_HOME
        for line, attr in _state_uses(path.read_text())
    ]
    assert not offenders, (
        "TupleSpaceClassifier state touched outside classify/tss.py:\n  "
        + "\n  ".join(offenders)
    )
    # The list names the classifier's real state.
    assert {
        attr for _, attr in _state_uses((SRC / TSS_HOME).read_text())
    } == {f".{name}" for name in TSS_PRIVATE}


def test_tss_state_audit_sees_a_violation():
    assert _state_uses(
        "def probes(table, bucket):\n"
        "    order = table._classifier._ordered\n"
        "    count = len(bucket._groups)\n"
        "    bucket._levels = None\n"
        "    size = bucket._size\n"
        "    trie = bucket._tries[5]\n"
    ) == [(2, "._ordered"), (3, "._groups"), (4, "._levels"), (6, "._tries")]


#: The slow-path memo's home, and its state no module outside it may
#: touch: the remembered traversals, the generation they were walked
#: at, a remembered traversal's derived slices.
MEMO_HOME = "pipeline/"
MEMO_PRIVATE = frozenset({"_traversal_memo", "_memo_generation", "_slices"})


def test_memo_state_has_one_home():
    offenders = [
        f"{relpath}:{line} {attr}"
        for path in sorted(SRC.rglob("*.py"))
        for relpath in [path.relative_to(SRC).as_posix()]
        if not relpath.startswith(MEMO_HOME)
        for line, attr in _state_uses(path.read_text(), MEMO_PRIVATE)
    ]
    assert not offenders, (
        "slow-path memo state touched outside repro/pipeline:\n  "
        + "\n  ".join(offenders)
    )
    # The list names the memo's real state.
    assert {
        attr
        for path in (SRC / MEMO_HOME).glob("*.py")
        for _, attr in _state_uses(path.read_text(), MEMO_PRIVATE)
    } == {f".{name}" for name in MEMO_PRIVATE}


def test_memo_state_audit_sees_a_violation():
    assert _state_uses(
        "def warm(pipeline, traversal):\n"
        "    filed = pipeline._traversal_memo.get(0)\n"
        "    pipeline._memo_generation = -1\n"
        "    slices = traversal._slices\n"
        "    memo = fastpath._memo\n",
        MEMO_PRIVATE,
    ) == [(2, "._traversal_memo"), (3, "._memo_generation"), (4, "._slices")]


#: The two change records staleness is judged by: the attribute, the
#: one place it may be used, and whether only writes count there.
CHANGE_RECORDS = (
    ("_changed_at", "pipeline/", False),
    ("changes", "core/ltm.py", True),
)


def _record_uses(source: str, attr: str, writes_only: bool):
    """Lines that use (or, with ``writes_only``, assign) ``.attr``."""
    tree = ast.parse(source)
    if writes_only:
        return sorted(
            node.lineno
            for node in ast.walk(tree)
            if attr in _assigned_attrs(node)
        )
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
    )


def test_change_records_have_one_home():
    offenders = [
        f"{relpath}:{line} .{attr}"
        for attr, home, writes_only in CHANGE_RECORDS
        for path in sorted(SRC.rglob("*.py"))
        for relpath in [path.relative_to(SRC).as_posix()]
        if not relpath.startswith(home)
        for line in _record_uses(path.read_text(), attr, writes_only)
    ]
    assert not offenders, (
        "a change record used outside its home:\n  " + "\n  ".join(offenders)
    )
    # The list names real records: each home does use its own.
    for attr, home, writes_only in CHANGE_RECORDS:
        homes = SRC.glob(f"{home}*.py") if home.endswith("/") else [SRC / home]
        assert any(
            _record_uses(path.read_text(), attr, writes_only)
            for path in homes
        ), attr


def test_change_record_audit_sees_a_violation():
    source = (
        "def tamper(pipeline, dependency, record):\n"
        "    last = pipeline._changed_at[3]\n"
        "    seen = dependency.changes\n"
        "    dependency.changes += 1\n"
        "    record.changes = seen\n"
    )
    assert _record_uses(source, "_changed_at", False) == [2]
    assert _record_uses(source, "changes", True) == [4, 5]


#: Public functions and methods no program reaches, each kept for a
#: stated reason.
UNCALLED_ALLOWED = {
    "partition_score": "the brute force tests/test_partition*.py hold "
                       "the DP to",
    "segment_score": "the brute force tests/test_partition*.py hold "
                     "the DP to",
    "replicate_pair": "the multi-seed replication ROADMAP.md's scale "
                      "curve is to run",
    "_MetricsHandler.do_GET": "http.server's hook: the server calls it "
                              "by name for each GET",
    "_MetricsHandler.log_message": "http.server's hook: overridden to "
                                   "keep the ops endpoint quiet",
    "Wildcard.mask_of": "one field's mask by name: how 22 test "
                        "assertions state an un-wildcarded mask; the "
                        "program reads packed masks",
    "Wildcard.exact_fields": "the field-exact wildcard 16 test "
                             "fixtures build; the program builds "
                             "wildcards from traversals",
    "LatencyModel.average_us": "the closed-form hit/miss mix "
                               "tests/test_metrics.py pins the "
                               "backend calibration with",
    "ClassbenchRule.matched_field_count": "the 1-5 matched-field shape "
                                          "tests/test_classbench.py "
                                          "holds generated rules to",
    "TernaryMatch.overlaps": "the one-AND overlap test ROADMAP item 3's "
                             "brute-force dependency-set checker is to "
                             "use as its oracle",
    "TernaryMatch.subsumes": "the subsumption test ROADMAP item 3's "
                             "brute-force dependency-set checker is to "
                             "use as its oracle",
    "Wildcard.covers": "the mask containment ROADMAP item 3's oracle "
                       "holds un-wildcarded cache masks to",
    "Wildcard.intersection": "the mask meet ROADMAP item 3's "
                             "dependency-set checker intersects rule "
                             "masks with",
    "Wildcard.is_disjoint": "the paper's disjointness property (§4.2.2) "
                            "on two wildcards; the partitioner inlines "
                            "it as one field_bits AND",
    "chain_satisfiable": "the brute-force oracle the exact count is "
                         "held to",
    "LtmTable.rules_with_tag": "one tag's bucket: what tests/test_ltm.py "
                               "checks the per-tag split by and the "
                               "brute-force coverage oracle walks",
    "FabricController.restore_link": "the link-restore step of ROADMAP "
                                     "item 3's stateful fuzz (link "
                                     "fail/restore)",
}

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _public_callables(source: str):
    """``(qualified name, name, first line, last line)`` of each
    top-level public ``def`` and of each public method or property of a
    top-level class, decorators included."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            owner, members = f"{node.name}.", node.body
        else:
            owner, members = "", [node]
        for member in members:
            if isinstance(
                member, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not member.name.startswith("_"):
                found.append((
                    owner + member.name,
                    member.name,
                    min([member.lineno]
                        + [d.lineno for d in member.decorator_list]),
                    member.end_lineno,
                ))
    return found


def _without_all(relpath: str, text: str) -> str:
    """``text`` with a Python module's top-level ``__all__``
    assignments blanked out: exporting a name is not calling it."""
    if not relpath.endswith(".py"):
        return text
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            lines[node.lineno - 1:node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1
            )
    return "\n".join(lines)


def _caller_pattern(qualname: str, name: str):
    """What counts as a call: a function's name as a word; a method's or
    property's only as an attribute read or a ``getattr`` string."""
    if "." in qualname:
        return re.compile(
            rf"\.{name}\b|getattr\([^)]*[\"']{name}[\"']"
        )
    return re.compile(rf"\b{name}\b")


def _uncalled(defining: dict, corpus: dict):
    """Names defined in ``defining`` (``{relpath: source}``) that no
    ``corpus`` text (``{relpath: text}``) calls outside their own
    definition and outside any module's ``__all__``."""
    corpus = {
        relpath: _without_all(relpath, text)
        for relpath, text in corpus.items()
    }
    found = []
    for relpath, source in sorted(defining.items()):
        for qualname, name, first, last in _public_callables(source):
            pattern = _caller_pattern(qualname, name)
            lines = corpus[relpath].splitlines()
            own = "\n".join(lines[:first - 1] + lines[last:])
            if not pattern.search(own) and not any(
                pattern.search(text)
                for other, text in corpus.items() if other != relpath
            ):
                found.append(f"{relpath}:{first} {qualname}")
    return found


def _callers_corpus():
    """Every text a caller may live in, by path from the repository
    root: the package outside its ``__init__`` files, the benchmark of
    record, the paper benchmarks, the examples and ``docs/*.md`` —
    never a test."""
    paths = [
        path
        for tree in ("src", "bench", "benchmarks", "examples")
        for path in (ROOT / tree).rglob("*.py")
        if path.name != "__init__.py"
        and "tests" not in path.relative_to(ROOT).parts
    ] + sorted((ROOT / "docs").glob("*.md"))
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for path in paths
    }


def test_every_public_function_has_a_caller():
    corpus = _callers_corpus()
    defining = {
        relpath: text for relpath, text in corpus.items()
        if relpath.startswith("src/")
    }
    found = _uncalled(defining, corpus)
    offenders = [
        entry for entry in found
        if entry.rsplit(" ", 1)[1] not in UNCALLED_ALLOWED
    ]
    assert not offenders, (
        "public functions or methods only tests (or nothing) call — "
        "delete them, "
        "or argue them onto UNCALLED_ALLOWED:\n  " + "\n  ".join(offenders)
    )
    # The allowlist names only functions that are still uncalled.
    assert {entry.rsplit(" ", 1)[1] for entry in found} == set(
        UNCALLED_ALLOWED
    )


def test_uncalled_function_audit_sees_a_violation():
    module = (
        "__all__ = [\n"
        "    \"exported\",\n"
        "    \"used\",\n"
        "]\n"
        "\n"
        "@lru_cache\n"
        "def orphan(x):\n"
        "    return orphan(x - 1) if x else 0\n"
        "\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "def mentioned():\n"
        "    return 2\n"
        "\n"
        "def exported():\n"
        "    return 3\n"
        "\n"
        "def _private():\n"
        "    return used()\n"
    )
    corpus = {
        "pkg/mod.py": module,
        "pkg/other.py": "__all__ = ('exported',)\n__all__ += ['exported']\n",
        "docs/guide.md": "Call `mentioned()` for a two.",
    }
    assert _uncalled({"pkg/mod.py": module}, corpus) == [
        "pkg/mod.py:6 orphan", "pkg/mod.py:16 exported",
    ]


def test_uncalled_method_audit_sees_a_violation():
    module = (
        "class Table:\n"
        "    def lookup(self, key):\n"
        "        return self._find(key)\n"
        "\n"
        "    @property\n"
        "    def histogram(self):\n"
        "        return self.histogram\n"
        "\n"
        "    def _find(self, key):\n"
        "        return key\n"
        "\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    class Nested:\n"
        "        def hidden(self):\n"
        "            return 1\n"
        "\n"
        "def build():\n"
        "    return Table()\n"
    )
    corpus = {
        "pkg/mod.py": module,
        "pkg/user.py": "table.lookup(flow)\nbuild()\n",
    }
    assert _uncalled({"pkg/mod.py": module}, corpus) == [
        "pkg/mod.py:5 Table.histogram",
    ]


def test_uncalled_method_audit_ignores_bare_words():
    """A method named only as a word — a variable, a field, prose — is
    uncalled; one read as an attribute or through ``getattr`` is not."""
    module = (
        "class Key:\n"
        "    @classmethod\n"
        "    def zero(cls):\n"
        "        return cls()\n"
        "\n"
        "    def full(self):\n"
        "        return self\n"
        "\n"
        "    def empty(self):\n"
        "        return self\n"
        "\n"
        "    def packed(self):\n"
        "        return 0\n"
    )
    corpus = {
        "pkg/mod.py": module,
        "pkg/user.py": (
            "zero = 0\n"
            "full = [zero] * 3\n"
            "return getattr(key, 'packed')()\n"
        ),
        "docs/guide.md": "A `zero` key is the full and empty case.",
    }
    assert _uncalled({"pkg/mod.py": module}, corpus) == [
        "pkg/mod.py:2 Key.zero",
        "pkg/mod.py:6 Key.full",
        "pkg/mod.py:9 Key.empty",
    ]
    corpus["pkg/user.py"] += "Key.zero()\nkey.empty()\n"
    assert _uncalled({"pkg/mod.py": module}, corpus) == [
        "pkg/mod.py:6 Key.full",
    ]


#: The one module that knows the header layout.
LAYOUT_HOME = "flow/fields.py"


def _layout_violations(relpath: str, source: str):
    """``schema`` parameters, class fields and stored attributes
    anywhere in ``source``, and ``FieldSchema(`` calls outside
    :data:`LAYOUT_HOME`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            arguments = node.args
            for arg in (
                arguments.posonlyargs + arguments.args
                + arguments.kwonlyargs
                + [a for a in (arguments.vararg, arguments.kwarg) if a]
            ):
                if arg.arg == "schema":
                    found.append((arg.lineno, "schema parameter"))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id == "schema"
                ):
                    found.append((item.lineno, "schema field"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            if any(
                isinstance(t, ast.Attribute) and t.attr == "schema"
                for t in targets
            ):
                found.append((node.lineno, "stores .schema"))
        elif isinstance(node, ast.Call) and relpath != LAYOUT_HOME:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name == "FieldSchema":
                found.append((node.lineno, "FieldSchema("))
    return [f"{relpath}:{line} {what}" for line, what in sorted(found)]


def test_one_header_layout():
    offenders = [
        line
        for path in sorted(SRC.rglob("*.py"))
        for line in _layout_violations(
            path.relative_to(SRC).as_posix(), path.read_text()
        )
    ]
    assert not offenders, (
        "the header layout is repro.flow.fields.DEFAULT_SCHEMA, known to "
        f"{LAYOUT_HOME} alone:\n  " + "\n  ".join(offenders)
    )


def test_one_header_layout_audit_sees_a_violation():
    source = (
        "from ..flow import fields\n"
        "def build(capacity, schema=None):\n"
        "    return fields.FieldSchema(schema)\n"
        "class Cache:\n"
        "    def __init__(self, *, schema):\n"
        "        self.layout = FieldSchema([])\n"
        "        self.schema = self.layout\n"
        "class Spec:\n"
        "    schema: object = None\n"
        "def fine(layout=None):\n"
        "    schema = layout.schema\n"
        "    return schema\n"
    )
    assert _layout_violations("cache/x.py", source) == [
        "cache/x.py:2 schema parameter",
        "cache/x.py:3 FieldSchema(",
        "cache/x.py:5 schema parameter",
        "cache/x.py:6 FieldSchema(",
        "cache/x.py:7 stores .schema",
        "cache/x.py:9 schema field",
    ]
    assert _layout_violations(LAYOUT_HOME, source) == [
        f"{LAYOUT_HOME}:2 schema parameter",
        f"{LAYOUT_HOME}:5 schema parameter",
        f"{LAYOUT_HOME}:7 stores .schema",
        f"{LAYOUT_HOME}:9 schema field",
    ]


#: What builds a run: the caching systems and the workload generator.
RUN_BUILDERS = frozenset({
    "MegaflowSystem", "GigaflowSystem", "HierarchySystem",
    "AdaptiveGigaflowSystem", "Pipebench", "PipebenchConfig",
})
#: The scale's module, which builds every run.
SCALE_HOME = "experiments/common.py"
#: The generator's own calls: the one workload builder, and the config
#: defaulting and resolving itself.
RUN_BUILDER_HOME = {
    "workload/pipebench.py": {
        "build_workload", "Pipebench.__init__", "PipebenchConfig.resolved",
    },
}


def _run_builds(source: str, home=frozenset()):
    """``(line, "Name(")`` for every call of a :data:`RUN_BUILDERS`
    name, bare or as an attribute, outside the ``home`` scopes."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and _terminal_name(child.func) in RUN_BUILDERS
                and ".".join(scope) not in home
            ):
                found.append((child.lineno, f"{_terminal_name(child.func)}("))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_runs_are_built_in_one_place():
    offenders = [
        f"{relpath}:{line} {call}"
        for path in sorted(SRC.rglob("*.py"))
        for relpath in [path.relative_to(SRC).as_posix()]
        if relpath != SCALE_HOME
        for line, call in _run_builds(
            path.read_text(), RUN_BUILDER_HOME.get(relpath, ())
        )
    ]
    assert not offenders, (
        "a run built outside ExperimentScale (experiments/common.py):\n  "
        + "\n  ".join(offenders)
    )
    # The scale builds every caching system, and the allowlist names the
    # generator's real call sites.
    assert {
        call for _, call in _run_builds((SRC / SCALE_HOME).read_text())
    } == {
        "MegaflowSystem(", "GigaflowSystem(", "HierarchySystem(",
        "AdaptiveGigaflowSystem(",
    }
    for relpath, home in RUN_BUILDER_HOME.items():
        source = (SRC / relpath).read_text()
        assert len(_run_builds(source)) > len(_run_builds(source, home))


def test_run_builder_audit_sees_a_violation():
    source = (
        "def make_system(name, capacity):\n"
        "    if name == 'megaflow':\n"
        "        return MegaflowSystem(capacity=capacity)\n"
        "    return sim.GigaflowSystem(table_capacity=capacity // 4)\n"
        "def tp_src(spec, scale):\n"
        "    config = PipebenchConfig(wildcard_tp_src=0.7)\n"
        "    return Pipebench(spec, config).build()\n"
        "def build_workload(spec, **overrides):\n"
        "    return Pipebench(spec, PipebenchConfig(**overrides)).build()\n"
        "def is_gigaflow(system):\n"
        "    return isinstance(system, GigaflowSystem)\n"
    )
    assert _run_builds(source, {"build_workload"}) == [
        (3, "MegaflowSystem("), (4, "GigaflowSystem("),
        (6, "PipebenchConfig("), (7, "Pipebench("),
    ]


def _cache_classes():
    """Every :class:`FlowCache` subclass by name, with the module
    (relative to ``repro``) that defines it."""
    found, todo = {}, [FlowCache]
    while todo:
        for sub in todo.pop().__subclasses__():
            module = sub.__module__.split(".", 1)[1].replace(".", "/")
            found[sub.__name__] = f"{module}.py"
            todo.append(sub)
    return found


CACHE_CLASSES = _cache_classes()


def _cache_attributes():
    """What a cache class defines: its methods, class attributes and
    the ``self.<name>`` it assigns (read from the classes' sources)."""
    names = set()
    for relpath in set(CACHE_CLASSES.values()) | {"cache/base.py"}:
        for node in ast.walk(ast.parse((SRC / relpath).read_text())):
            if not (
                isinstance(node, ast.ClassDef)
                and (node.name in CACHE_CLASSES or node.name == "FlowCache")
            ):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(inner.name)
                elif isinstance(inner, ast.Attribute) and isinstance(
                    inner.ctx, ast.Store
                ):
                    names.add(inner.attr)
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    names.add(stmt.target.id)
                elif isinstance(stmt, ast.Assign):
                    names.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
    return frozenset(name for name in names if not name.startswith("__"))


CACHE_ATTRIBUTES = _cache_attributes()
#: The one site allowed to probe a cache, with its reason.
CACHE_PROBE_HOME = {
    ("cli.py", "cmd_stats"): (
        "the end-of-run revalidation pass takes a hierarchy's Megaflow "
        "level: the hierarchy's Microflow entries are derived, so it has "
        "no replay unit of its own"
    ),
}


def _cache_type_checks(source: str, relpath: str, home=frozenset()):
    """``(line, call)`` for every ``isinstance`` against a cache class
    outside that class's module, and every ``getattr`` / ``hasattr``
    over a cache, outside the ``home`` scopes."""
    found = []

    def names(node):
        parts = node.elts if isinstance(node, ast.Tuple) else [node]
        return [_terminal_name(part) for part in parts]

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and len(child.args) >= 2
                and ".".join(scope) not in home
            ):
                func, (obj, what) = child.func.id, child.args[:2]
                if func == "isinstance":
                    found.extend(
                        (child.lineno, f"isinstance(…, {name})")
                        for name in names(what)
                        if name in CACHE_CLASSES
                        and CACHE_CLASSES[name] != relpath
                    )
                elif func in ("getattr", "hasattr"):
                    attr = what.value if isinstance(
                        what, ast.Constant
                    ) else None
                    if "cache" in (_terminal_name(obj) or "").lower() or (
                        attr in CACHE_ATTRIBUTES
                    ):
                        found.append((child.lineno, f"{func}(…, {attr!r})"))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_cache_type_stays_behind_the_cache_classes():
    homes = {}
    for relpath, scope in CACHE_PROBE_HOME:
        homes.setdefault(relpath, set()).add(scope)
    offenders = [
        f"{relpath}:{line} {call}"
        for path in sorted(SRC.rglob("*.py"))
        for relpath in [path.relative_to(SRC).as_posix()]
        for line, call in _cache_type_checks(
            path.read_text(), relpath, homes.get(relpath, ())
        )
    ]
    assert not offenders, (
        "a cache's kind asked outside the FlowCache contract:\n  "
        + "\n  ".join(offenders)
    )
    # The audit knows the caches, and each allowlisted site still probes.
    assert {
        "MicroflowCache", "MegaflowCache", "CacheHierarchy",
        "GigaflowCache", "AdaptiveGigaflowCache",
    } <= set(CACHE_CLASSES)
    for relpath, scopes in homes.items():
        source = (SRC / relpath).read_text()
        assert len(_cache_type_checks(source, relpath)) == len(scopes)


def test_cache_type_audit_sees_a_violation():
    source = (
        "def resolve(pipeline, cache):\n"
        "    if isinstance(cache, (GigaflowCache, int)):\n"
        "        return 1\n"
        "    return isinstance(cache, core.MegaflowCache)\n"
        "def snapshot(cache):\n"
        "    counts = getattr(cache, 'per_table_counts', None)\n"
        "    return getattr(self.cache, 'name', 'cache')\n"
        "def walk(sub):\n"
        "    return hasattr(sub, 'megaflow')\n"
        "def fine(args, rule):\n"
        "    return getattr(args, 'flows'), getattr(rule, 'rule_id', 0)\n"
    )
    assert _cache_type_checks(source, "obs/snapshot.py") == [
        (2, "isinstance(…, GigaflowCache)"),
        (4, "isinstance(…, MegaflowCache)"),
        (6, "getattr(…, 'per_table_counts')"),
        (7, "getattr(…, 'name')"),
        (9, "hasattr(…, 'megaflow')"),
    ]
    # A class's own module may ask about it; a home scope is skipped.
    assert _cache_type_checks(source, "core/gigaflow.py", {"walk"}) == [
        (4, "isinstance(…, MegaflowCache)"),
        (6, "getattr(…, 'per_table_counts')"),
        (7, "getattr(…, 'name')"),
    ]


def _second_records(source: str):
    """``(line, what)`` for every ``*_MERGE`` rule table a module
    declares, at any scope, and every ``SimResult`` field named for
    telemetry."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            name = _terminal_name(target)
            if name is not None and name.endswith("_MERGE"):
                found.append((node.lineno, f"{name} table"))
        if isinstance(node, ast.ClassDef) and node.name == "SimResult":
            found.extend(
                (member.lineno, f"SimResult.{member.target.id}")
                for member in node.body
                if isinstance(member, ast.AnnAssign)
                and isinstance(member.target, ast.Name)
                and "telemetry" in member.target.id
            )
    return sorted(found)


def test_one_telemetry_record():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line} {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in _second_records(path.read_text())
    ]
    assert not offenders, (
        "a run's telemetry record is its hub's MetricsRegistry, merged by "
        "the rule each family declares where it is registered:\n  "
        + "\n  ".join(offenders)
    )
    assert not [
        field.name for field in dataclasses.fields(SimResult)
        if "telemetry" in field.name
    ]


def test_telemetry_record_audit_sees_a_violation():
    source = (
        "SUMMARY_MERGE = {'cache': 'first'}\n"
        "class ChurnRuntime:\n"
        "    DIGEST_MERGE: dict = {'backlog_peak': 'max'}\n"
        "    def __init__(self):\n"
        "        self.FOLD_MERGE = {}\n"
        "        self.merge = 'sum'\n"
        "        MERGED = 1\n"
        "class SimResult:\n"
        "    packets: int = 0\n"
        "    telemetry: dict = None\n"
        "class Part:\n"
        "    telemetry: object = None\n"
    )
    assert _second_records(source) == [
        (1, "SUMMARY_MERGE table"),
        (3, "DIGEST_MERGE table"),
        (5, "FOLD_MERGE table"),
        (10, "SimResult.telemetry"),
    ]


def _trivial_accessors(source: str):
    """``(line, "Class.name")`` for every ``@property`` whose body,
    docstring aside, is ``return self.<attr>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if not isinstance(member, ast.FunctionDef) or not any(
                isinstance(d, ast.Name) and d.id == "property"
                for d in member.decorator_list
            ):
                continue
            body = member.body
            if (
                isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                body = body[1:]
            if (
                len(body) == 1
                and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Attribute)
                and isinstance(body[0].value.value, ast.Name)
                and body[0].value.value.id == "self"
            ):
                found.append((member.lineno, f"{node.name}.{member.name}"))
    return sorted(found)


def test_no_trivial_accessors():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line} {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in _trivial_accessors(path.read_text())
    ]
    assert not offenders, (
        "properties that only return an attribute of self — make each a "
        "plain attribute under the public name:\n  "
        + "\n  ".join(offenders)
    )
    # The one zero-argument accessor method went the same way: an LTM
    # rule's identity is a slot.
    assert isinstance(LtmRule.__dict__["identity"], types.MemberDescriptorType)


def test_trivial_accessor_audit_sees_a_violation():
    source = (
        "class Key:\n"
        "    @property\n"
        "    def values(self):\n"
        "        return self._values\n"
        "    @property\n"
        "    def packed(self):\n"
        "        \"\"\"The values as one integer.\"\"\"\n"
        "        return self._packed\n"
        "    @property\n"
        "    def masks(self):\n"
        "        masks = self._masks\n"
        "        if masks is None:\n"
        "            masks = self._masks = unpack(self.packed)\n"
        "        return masks\n"
        "    @property\n"
        "    def epoch(self):\n"
        "        return self.left.epoch + self.right.epoch\n"
        "    @property\n"
        "    def port(self):\n"
        "        return self.port_of.value\n"
        "    def identity(self):\n"
        "        return self._identity\n"
        "    @staticmethod\n"
        "    def zero():\n"
        "        return ZERO\n"
        "def outer():\n"
        "    class Nested:\n"
        "        @property\n"
        "        def fields(self):\n"
        "            return self._fields\n"
    )
    assert _trivial_accessors(source) == [
        (3, "Key.values"),
        (6, "Key.packed"),
        (29, "Nested.fields"),
    ]


#: The config classes a run is shaped by.
SETTING_CLASSES = (
    SimConfig, ChurnConfig, ServeConfig, PipebenchConfig, TraceProfile,
    ExperimentScale, LatencyModel, LocalityProfile,
)

#: Fields no program sets, each kept for a stated reason.
SETTING_ALLOWED = {
    "PipebenchConfig.n_src_hosts": "a Pipebench pool size: ROADMAP item "
                                   "1(a) sizes the pools through it",
    "PipebenchConfig.n_services": "a Pipebench pool size: ROADMAP item "
                                  "1(a) sizes the pools through it",
    "PipebenchConfig.n_dst_hosts": "a Pipebench pool size: ROADMAP item "
                                   "1(a) sizes the pools through it",
    "ChurnConfig.switches": "fabric churn targeting, docs/fabric.md's "
                            "documented behaviour, not a tuning value",
}


def _terminal(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _passes(call, name):
    """Whether ``call`` passes ``**name`` on, directly or inside a
    ``**{...}`` literal."""
    for keyword in call.keywords:
        value = keyword.value
        if keyword.arg is not None:
            continue
        if isinstance(value, ast.Name) and value.id == name:
            return True
        if isinstance(value, ast.Dict) and any(
            key is None and isinstance(v, ast.Name) and v.id == name
            for key, v in zip(value.keys, value.values)
        ):
            return True
    return False


def _keywords(call):
    """Names ``call`` passes by keyword, ``**{"name": …}`` included."""
    names = set()
    for keyword in call.keywords:
        if keyword.arg is not None:
            names.add(keyword.arg)
        elif isinstance(keyword.value, ast.Dict):
            names.update(
                key.value for key in keyword.value.keys
                if isinstance(key, ast.Constant)
            )
    return names


def _unset(classes: dict, corpus: dict):
    """``"Class.field"`` for each field of ``classes``
    (``{class name: [field names in order]}``) that no call in
    ``corpus`` (``{relpath: source}``) sets."""
    trees = [ast.parse(source) for source in corpus.values()]
    # A function whose ``**`` keywords reach a class's constructor
    # (or another such function) sets what it is passed.
    forwards = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.args.kwarg:
                rest = node.args.kwarg.arg
                forwards.setdefault(node.name, set()).update(
                    _terminal(call.func) for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _passes(call, rest)
                )
    reaches = {name: set() for name in forwards}
    changed = True
    while changed:
        changed = False
        for name, targets in forwards.items():
            found = {t for t in targets if t in classes}.union(
                *(reaches.get(t, ()) for t in targets)
            )
            if not found <= reaches[name]:
                reaches[name] |= found
                changed = True
    set_fields = set()
    for tree in trees:
        own = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in classes:
                for inner in ast.walk(node):
                    own[id(inner)] = node.name
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = _terminal(call.func)
            keywords = _keywords(call)
            if name in classes and own.get(id(call)) != name:
                fields = classes[name]
                for field in keywords | set(fields[:len(call.args)]):
                    set_fields.add(f"{name}.{field}")
            for owner in (
                classes if name == "replace" else reaches.get(name, ())
            ):
                for field in keywords:
                    set_fields.add(f"{owner}.{field}")
    return [
        f"{name}.{field}"
        for name, fields in classes.items()
        for field in fields
        if f"{name}.{field}" not in set_fields
    ]


def test_every_setting_has_a_setter():
    corpus = {
        relpath: text for relpath, text in _callers_corpus().items()
        if relpath.endswith(".py")
    }
    classes = {
        cls.__name__: [f.name for f in dataclasses.fields(cls)]
        for cls in SETTING_CLASSES
    }
    found = _unset(classes, corpus)
    offenders = [name for name in found if name not in SETTING_ALLOWED]
    assert not offenders, (
        "settings no program sets — make each a module constant, or "
        "argue it onto SETTING_ALLOWED:\n  " + "\n  ".join(offenders)
    )
    # The allowlist names only fields that are still unset.
    assert set(found) == set(SETTING_ALLOWED)


def test_setting_audit_sees_a_violation():
    module = (
        "@dataclass\n"
        "class Knobs:\n"
        "    positional: int = 0\n"
        "    keyword: int = 0\n"
        "    literal: int = 0\n"
        "    forwarded: int = 0\n"
        "    replaced: int = 0\n"
        "    own: int = 0\n"
        "    unset: int = 0\n"
        "\n"
        "    def copy(self):\n"
        "        return Knobs(own=self.own)\n"
        "\n"
        "def build(**overrides):\n"
        "    return Knobs(**{\"literal\": 1, **overrides})\n"
        "\n"
        "def scaled(**kwargs):\n"
        "    return build(**kwargs)\n"
    )
    user = (
        "knobs = mod.Knobs(1, keyword=2)\n"
        "scaled(forwarded=3)\n"
        "dataclasses.replace(knobs, replaced=4)\n"
        "other(unset=5)\n"
    )
    classes = {"Knobs": [
        "positional", "keyword", "literal", "forwarded", "replaced",
        "own", "unset",
    ]}
    corpus = {"pkg/mod.py": module, "pkg/user.py": user}
    assert _unset(classes, corpus) == ["Knobs.own", "Knobs.unset"]
