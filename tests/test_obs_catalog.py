"""The telemetry vocabulary is declared once — and documented to match.

``docs/observability.md`` renders two catalogs, the metric families and
the trace events.  Both are parsed here and compared with what the
code registers (``Telemetry().registry.families()``) and declares
(``repro.obs.trace.EVENTS``), so a family or an event cannot ship
undocumented, and the doc cannot keep a row the code dropped.  The rest
pins what "declared once" means for events: a 14th ``EVENTS`` row is
the only edit a new event needs, and the one flow-id formula.

``docs/adaptive.md``'s constants table is held to the governor's
module constants the same way: one row per numeric constant of
``repro.core.adaptive``, with its value.
"""

import ast
import re
from pathlib import Path

import pytest

from conftest import flow, rewrite
from repro.core import adaptive
from repro.obs import EVENTS, Telemetry, Tracer, trace
from repro.obs.trace import flow_id

DOCS = Path(__file__).resolve().parent.parent / "docs"
DOC = DOCS / "observability.md"


def doc_table(heading, doc=DOC):
    """Rows of the first markdown table under ``## <heading>``, as lists
    of cell strings (header and ``---`` rows dropped)."""
    section = doc.read_text().split(f"## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]
    return rows[2:]


def names(cell):
    """``a, b`` -> ``("a", "b")`` (``—`` or empty -> ``()``)."""
    return tuple(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", cell))


class TestCatalogParity:
    def test_metric_catalog_lists_every_family(self):
        documented = {
            row[0].strip("`"): (row[1], names(row[2]))
            for row in doc_table("Metric catalog")
        }
        registered = {
            family.name: (family.kind, family.label_names)
            for family in Telemetry().registry.families()
        }
        assert documented == registered

    def test_trace_event_schema_lists_every_event_in_code_order(self):
        documented = [
            (row[0].strip("`"), names(row[1]))
            for row in doc_table("Trace-event schema")
        ]
        assert documented == list(EVENTS)


    def test_constants_table_lists_every_governor_constant(self):
        documented = {
            row[0].strip("`"): ast.literal_eval(row[1].strip("`"))
            for row in doc_table("Constants", DOCS / "adaptive.md")
        }
        assert documented == {
            name: value for name, value in vars(adaptive).items()
            if name.isupper() and isinstance(value, (int, float))
        }


class TestDeclaredOnce:
    def test_a_new_row_is_the_only_edit_an_event_needs(self, monkeypatch):
        row = ("miss_cause", ("cache", "flow", "cause"))
        monkeypatch.setattr(trace, "EVENTS", EVENTS + (row,))
        tracer = Tracer(capacity=8)
        code = tracer.code_of("miss_cause")
        assert code == len(EVENTS)
        assert tracer.code_of("lookup_hit") == 0  # old codes pinned
        assert tracer.wants("miss_cause")
        tracer.set_events(["miss_cause"])
        assert tracer.mask == 1 << code
        assert not tracer.wants("lookup_hit")
        tracer.emit(1.5, "lookup_hit", "gigaflow", 7, 1, 1)
        tracer.emit(2.5, "miss_cause", "gigaflow", 0xBEEF, "cold")
        (event,) = tracer.events()
        assert event.to_dict() == {
            "ts": 2.5, "event": "miss_cause", "cache": "gigaflow",
            "flow": "0000beef", "cause": "cold",
        }

    @pytest.mark.parametrize("use", [
        lambda tracer: tracer.code_of("adhoc"),
        lambda tracer: tracer.wants("adhoc"),
        lambda tracer: tracer.set_events(["lookup_hit", "adhoc"]),
        lambda tracer: tracer.emit(0.0, "adhoc", "c"),
    ], ids=["code_of", "wants", "set_events", "emit"])
    def test_an_undeclared_name_raises(self, use):
        tracer = Tracer(capacity=8)
        with pytest.raises(ValueError, match="undeclared trace event 'adhoc'"):
            use(tracer)
        assert tracer.event_filter is None
        assert tracer.mask == -1 and tracer.emitted == 0

    def test_builtin_names_are_the_public_ev_constants(self):
        constants = {
            value for name, value in vars(trace).items()
            if name.startswith("EV_")
        }
        assert constants == {name for name, _fields in EVENTS}


class TestFlowId:
    def test_inlined_formula_agrees_with_flow_id(self):
        """The per-packet hooks inline ``hash(flow) & 0xFFFFFFFF``; it
        must equal :func:`flow_id` — hence ``hash(flow.values)``, the
        cross-process-stable tuple hash — for keys built directly and
        for the copies a set-field makes without rehashing."""
        direct = flow()
        derived = rewrite(flow(tp_dst=80), tp_dst=443)
        assert derived == direct and derived is not direct
        for key in (direct, derived, flow(in_port=2)):
            assert flow_id(key) == hash(key) & 0xFFFFFFFF
            assert flow_id(key) == hash(key.values) & 0xFFFFFFFF
        assert flow_id(derived) == flow_id(direct)
        assert flow_id(None) is None

    def test_traced_run_stamps_flow_id(self):
        """The hot hooks' inlined ids and the cold hooks' ``flow_id``
        land in one stream: every ``flow`` field decodes to the id of a
        pilot flow of the trace."""
        from conftest import seeded_trace, seeded_workload
        from repro.sim import GigaflowSystem, SimConfig, VSwitchSimulator

        workload = seeded_workload(n_flows=40)
        telemetry = Telemetry(tracing=True)
        VSwitchSimulator(
            workload.pipeline,
            GigaflowSystem(num_tables=4, table_capacity=8),
            SimConfig(max_idle=1.0, sweep_interval=0.5, telemetry=telemetry),
        ).run(seeded_trace(workload, duration=3.0))
        pilots = {
            format(flow_id(pilot.flow), "08x") for pilot in workload.pilots
        }
        stamped = {}
        for event in telemetry.tracer.events():
            if "flow" in event.fields:
                stamped.setdefault(event.event, set()).add(
                    event.fields["flow"]
                )
        assert {"lookup_hit", "lookup_miss", "fastpath_invalidate"} <= set(
            stamped
        )
        for kind, ids in stamped.items():
            assert ids <= pilots, kind
