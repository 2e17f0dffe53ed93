"""One declared sweep per figure: :class:`SweepExperiment` and what it derives.

Every number the paper reports is a grid of cells (protocol x cluster size x
condition), each cell one seeded scenario repeated ``runs`` times and reduced
to a row of a table.  A :class:`SweepExperiment` declares exactly that --
the axes, the functions from cell coordinates to the label and to the
scenario, the container the cells are swept into, and the report table --
and everything else is derived here, once: the grid (the axis product,
outermost axis first, so labels, seeds and reports are stable), the
:class:`GridResult` a run returns, the capabilities (read off the
declaration instead of hand-set flags), the archive (chosen by the
container: episodes for a collecting
:class:`~repro.metrics.records.RecordSet`, one ``to_row(label)`` per cell
otherwise; see :mod:`repro.experiments.export`) and the report (rendered from
the :class:`Table`'s columns).

The module imports neither :mod:`repro.experiments.runner` nor
:mod:`multiprocessing`: ``--list`` and the registry never pay for the pool.
"""

from __future__ import annotations

import inspect
import itertools
import typing
from functools import partial
from typing import Callable, Mapping, Sequence

from repro import protocols as protocol_registry
from repro.chaos.plans import build_plan
from repro.common.errors import ConfigurationError
from repro.common.frozen import FrozenDict, value_object
from repro.common.validation import require_unique
from repro.experiments.spec import CAPABILITIES, validate_experiment_name
from repro.metrics.records import RecordSet
from repro.metrics.stats import reduction_percent
from repro.metrics.tables import render_table

__all__ = [
    "Axis",
    "Column",
    "DEFAULT_PLAN",
    "Derived",
    "GridResult",
    "PerProtocol",
    "Reduction",
    "RowHeader",
    "SweepExperiment",
    "Table",
    "percent",
    "validate_sweep_protocols",
]

#: The chaos plan a plan-taking sweep runs when ``--plan`` is not given: the
#: steady-state cost of elections themselves.
DEFAULT_PLAN = "repeated-leader-kill"


def validate_sweep_protocols(protocol_names: Sequence[str]) -> tuple[str, ...]:
    """Check *protocol_names* can run in an experiment sweep.

    Every sweep stabilises a leader before measuring, so beyond being
    registered in :mod:`repro.protocols` each protocol must guarantee
    liveness (``raft-fixed`` livelocks by design and can only abort a sweep).

    Raises:
        ConfigurationError: naming the offending protocol, with the list of
            registered (or sweepable) ones; or the name given twice (it
            would render every column twice over one cell).
    """
    require_unique(protocol_names, "protocols")
    for name in protocol_names:
        # get() rejects an unregistered name with the registered ones.
        if not protocol_registry.get(name).guarantees_liveness:
            sweepable = [
                other
                for other, spec in protocol_registry.items()
                if spec.guarantees_liveness
            ]
            raise ConfigurationError(
                f"protocol {name!r} does not guarantee leader election (it "
                "livelocks by design) and cannot run in an experiment sweep; "
                f"sweepable protocols: {', '.join(sweepable)}"
            )
    return tuple(protocol_names)


# --------------------------------------------------------------------------- #
# The grid
# --------------------------------------------------------------------------- #
@value_object
class Axis:
    """One declared parameter of a sweep.

    With a *coord* the axis is swept: *values* is the tuple of points, one
    grid dimension, and each point reaches ``label`` and ``scenario`` under
    the keyword *coord*.  Without one it is a fixed setting: *values* is the
    single value every cell shares, passed to ``scenario`` (when it takes
    it) under *name*.

    Attributes:
        name: the parameter name ``run_experiment`` accepts as an override
            and the run envelope records (``"sizes"``, ``"cluster_size"``).
            The axis named ``"protocols"`` is the one ``--protocols``
            replaces; it is not an overridable parameter.
        values: the default points (swept) or the default value (fixed).
        quick: the quick-mode replacement for *values*, if any.
        coord: the coordinate keyword of a swept axis (``"size"``).
        narrowed_by: a capability (``"scenario"``) whose value, when
            supplied, narrows this swept axis to that one point.
    """

    name: str
    values: object
    quick: object = None
    coord: str = ""
    narrowed_by: str = ""


@value_object
class GridResult:
    """What every sweep returns: the swept grid and one container per cell.

    Attributes:
        axes: coordinate keyword -> swept points, outermost axis first.
        runs: episodes per cell.
        by_label: label -> filled container, in grid order.
        context: what every cell shares -- the fixed settings, plus the
            built ``plan`` and the ``condition`` name for sweeps whose
            scenario takes them.
        label: the declaration's label function.
    """

    axes: Mapping[str, tuple]
    runs: int
    by_label: Mapping[str, object]
    context: Mapping[str, object]
    label: Callable[..., str]

    def cell(self, **coords: object) -> object:
        """The container of one cell, addressed by its coordinates."""
        return self.by_label[self.label(**coords)]


# --------------------------------------------------------------------------- #
# The report table
# --------------------------------------------------------------------------- #
def percent(fraction: float) -> str:
    """A fraction as a whole percentage (row cells of loss-rate axes)."""
    return f"{fraction:.0%}"


def _statistic(cell: object, path: str) -> object:
    """Follow a dotted *path* from a container, calling what is callable.

    ``"mean_total_ms"`` is ``cell.mean_total_ms()``; ``"total_summary.p99"``
    is ``cell.total_summary().p99``.
    """
    value = cell
    for name in path.split("."):
        value = getattr(value, name)
        if callable(value):
            value = value()
    return value


def _cell_text(value: object, format: str) -> str:
    """A statistic as table text; an undefined one (``None``) renders as ``-``."""
    return "-" if value is None else format.format(value)


#: One expanded table column: its header and the text of a row's cell.
_Expanded = tuple[str, Callable[[Mapping[str, object]], str]]


@value_object
class RowHeader:
    """A swept axis that spans the table's rows: its header and its cell text."""

    coord: str
    header: str
    show: Callable[[object], str] = str


@value_object
class Column:
    """A statistic of the row's cell.

    *value* is a dotted path of container methods/attributes (so the same
    column reads a :class:`MeasurementSet` and an aggregate alike) or a
    module-level function of the cell; ``None`` renders as ``-``.
    """

    header: str
    value: str | Callable[[object], object]
    format: str = "{:.0f}"

    def text(self, cell: object) -> str:
        value = self.value(cell) if callable(self.value) else _statistic(cell, self.value)
        return _cell_text(value, self.format)

    def expand(self, result: GridResult) -> list[_Expanded]:
        return [(self.header, lambda coords: self.text(result.cell(**coords)))]


@value_object
class PerProtocol:
    """Statistics repeated for every swept protocol (protocol-major).

    Headers are prefixed with the protocol's display title, so the table
    follows ``--protocols``.  A sweep comparing something else along another
    axis names that axis's *coord* and the *title* of one of its points.
    """

    columns: tuple[Column, ...]
    coord: str = "protocol"
    title: Callable[[object], str] = protocol_registry.title

    def expand(self, result: GridResult) -> list[_Expanded]:
        def text(column: Column, point: object, coords: Mapping[str, object]) -> str:
            return column.text(result.cell(**{self.coord: point}, **coords))

        return [
            (f"{self.title(point)} {column.header}", partial(text, column, point))
            for point in result.axes[self.coord]
            for column in self.columns
        ]


@value_object
class Reduction:
    """Percentage reduction of the mean election time versus a baseline protocol.

    Present only when both protocols are swept.  With *improved* left empty
    the column repeats for every other swept protocol, ``{protocol}`` in the
    header standing for its display title.
    """

    header: str
    baseline: str
    improved: str = ""

    def expand(self, result: GridResult) -> list[_Expanded]:
        swept = result.axes["protocol"]

        def text(protocol: str, coords: Mapping[str, object]) -> str:
            baseline = result.cell(protocol=self.baseline, **coords).mean_total_ms()
            improved = result.cell(protocol=protocol, **coords).mean_total_ms()
            return f"{reduction_percent(baseline, improved):.1f}%"

        return [
            (
                self.header.format(protocol=protocol_registry.title(protocol)),
                partial(text, protocol),
            )
            for protocol in ([self.improved] if self.improved else swept)
            if self.baseline in swept and protocol in swept and protocol != self.baseline
        ]


@value_object
class Derived:
    """A column computed from the whole result, present when *when* says so.

    *value* is called as ``value(result, **row_coords)``; both callables are
    module-level functions; ``None`` renders as ``-``.
    """

    header: str
    value: Callable[..., object]
    when: Callable[[GridResult], bool]
    format: str = "{:.1f}%"

    def expand(self, result: GridResult) -> list[_Expanded]:
        if not self.when(result):
            return []

        def text(coords: Mapping[str, object]) -> str:
            return _cell_text(self.value(result, **coords), self.format)

        return [(self.header, text)]


@value_object
class Table:
    """A sweep's report: a title, the row axes and the columns.

    *title* is a template formatted with ``runs``, the result's context (the
    fixed settings and, where the sweep has one, the ``plan``, which prints
    as its one-line description), ``last`` (coordinate -> last swept point)
    and ``condition_note`` (``", condition=X"`` under ``--scenario X``, else
    empty).  *rows* lists the swept axes that span the rows, outermost
    first; any other swept axis (the protocols) is spanned by the columns.
    """

    title: str
    rows: tuple[RowHeader, ...]
    columns: tuple[Column | PerProtocol | Reduction | Derived, ...]

    def render(self, result: GridResult) -> str:
        expanded = [pair for column in self.columns for pair in column.expand(result)]
        body = []
        for point in itertools.product(*(result.axes[row.coord] for row in self.rows)):
            coords = {row.coord: value for row, value in zip(self.rows, point)}
            body.append(
                [row.show(value) for row, value in zip(self.rows, point)]
                + [text(coords) for _, text in expanded]
            )
        condition = result.context.get("condition")
        title = self.title.format(
            runs=result.runs,
            last={coord: points[-1] for coord, points in result.axes.items()},
            condition_note=f", condition={condition}" if condition else "",
            **result.context,
        )
        headers = [row.header for row in self.rows] + [header for header, _ in expanded]
        return render_table(headers, body, title=title)


# --------------------------------------------------------------------------- #
# The declaration
# --------------------------------------------------------------------------- #
@value_object
class SweepExperiment:
    """One registered experiment, declared as a grid.

    Attributes:
        name: registry key, CLI name and export file stem (e.g. ``"fig9"``);
            must be free of path syntax.
        title: display label used in the registry table.
        paper_ref: the paper figure/section this experiment reproduces.
        description: one-line summary.
        default_runs: the run count ``run_experiment`` uses when the caller
            does not pass one.
        axes: the declared parameters, swept axes outermost first (this
            order is the grid order, hence the label and seed order).
        label: module-level function from the swept coordinates (by
            keyword) to the cell's label.
        scenario: module-level function from the swept coordinates, plus
            whichever fixed settings it names, to the cell's scenario.  Taking
            ``condition`` makes the sweep ``--scenario``-capable (the named
            network condition, or ``None``); taking ``plan`` makes it
            ``--plan``-capable (the :class:`~repro.chaos.plans.ChaosPlan`
            built for the fixed ``horizon_ms`` axis and the run's seed).  Its
            return annotation names the scenario type.
        container: the per-cell result container class (see
            :mod:`repro.experiments.runner`).  It also decides the archive: a
            :class:`~repro.metrics.records.RecordSet` archives its episodes,
            anything else one ``to_row(label)`` per cell.
        table: the report.
    """

    name: str
    title: str
    paper_ref: str
    description: str
    default_runs: int
    axes: tuple[Axis, ...]
    label: Callable[..., str]
    scenario: Callable[..., object]
    container: type
    table: Table

    def __post_init__(self) -> None:
        validate_experiment_name(self.name)
        # An unarchivable container fails here, not after a sweep.
        container = self.container
        if not (issubclass(container, RecordSet) or hasattr(container, "to_row")):
            raise ConfigurationError(
                f"experiment {self.name!r}: container {container!r} neither "
                "collects episodes (a RecordSet) nor has to_row(label)"
            )

    def _shared_keywords(self) -> set[str]:
        """The scenario function's keywords that are not swept coordinates."""
        return set(inspect.signature(self.scenario).parameters) - {
            axis.coord for axis in self.axes
        }

    # ------------------------------------------------------------------ #
    # Derived: parameters, capabilities, reporter
    # ------------------------------------------------------------------ #
    @property
    def params(self) -> FrozenDict:
        """The overridable parameters and their defaults (today's axes)."""
        return FrozenDict(
            {axis.name: axis.values for axis in self.axes if axis.name != "protocols"}
        )

    @property
    def quick_params(self) -> FrozenDict:
        """The quick-mode overrides of :attr:`params`."""
        return FrozenDict(
            {axis.name: axis.quick for axis in self.axes if axis.quick is not None}
        )

    def resolved_params(
        self, quick: bool = False, **overrides: object
    ) -> dict[str, object]:
        """The parameter set a run with these settings receives.

        Raises:
            ConfigurationError: listing the declared parameters when an
                override names an unknown one.
        """
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ConfigurationError(
                f"experiment {self.name!r} has no parameter(s) "
                f"{', '.join(sorted(repr(key) for key in unknown))}; "
                f"declared: {', '.join(sorted(self.params)) or '(none)'}"
            )
        resolved = dict(self.params)
        if quick:
            resolved.update(self.quick_params)
        resolved.update(overrides)
        return resolved

    @property
    def capabilities(self) -> tuple[str, ...]:
        """The sweep-wide options this declaration understands, in CLI order."""
        keywords = self._shared_keywords()
        narrowing = {axis.narrowed_by for axis in self.axes}
        scenario_type = typing.get_type_hints(self.scenario).get("return")
        understood = {
            "scenario": "condition" in keywords or "scenario" in narrowing,
            "protocols": any(axis.name == "protocols" for axis in self.axes),
            "plan": "plan" in keywords,
            "checkpoint": hasattr(self.container, "from_state"),
            "trace": hasattr(scenario_type, "run_traced"),
        }
        return tuple(option for option in CAPABILITIES if understood[option])

    def reporter(self, result: GridResult) -> str:
        """Render the declared table for *result*."""
        return self.table.render(result)

    # ------------------------------------------------------------------ #
    # Derived: the grid and the run
    # ------------------------------------------------------------------ #
    def build(
        self,
        params: Mapping[str, object],
        seed: int = 0,
        *,
        scenario: str | None = None,
        protocols: Sequence[str] | None = None,
        plan: str | None = None,
    ) -> tuple[dict[str, tuple], dict[str, object], dict[str, object]]:
        """One run's grid: ``(axes, context, scenarios)``.

        *params* is a resolved parameter set (:meth:`resolved_params`); the
        keywords are the supplied capability values.  ``axes`` and
        ``context`` are what the :class:`GridResult` will carry, and
        ``scenarios`` is the label -> scenario table in grid order.  Swept
        protocols are checked for liveness here, once, for every sweep.

        Raises:
            ConfigurationError: for a grid that is not one -- a swept axis
                with no point, or two cells under one label (a point given
                twice, or two points the label function cannot tell apart).
        """
        supplied = {"scenario": scenario, "protocols": protocols}
        context = dict(params)
        axes: dict[str, tuple] = {}
        for axis in self.axes:
            if not axis.coord:
                continue
            points = context.pop(axis.name, axis.values)
            if supplied.get(axis.narrowed_by) is not None:
                points = (supplied[axis.narrowed_by],)
            elif supplied.get(axis.name) is not None:
                points = supplied[axis.name]
            axes[axis.coord] = tuple(points)
            if not axes[axis.coord]:
                raise ConfigurationError(
                    f"experiment {self.name!r}: axis {axis.name!r} is empty; "
                    "a sweep needs at least one point on every axis"
                )
        validate_sweep_protocols(axes.get("protocol", ()))
        keywords = self._shared_keywords()
        if "condition" in keywords:
            context["condition"] = scenario
        if "plan" in keywords:
            context["plan"] = build_plan(plan or DEFAULT_PLAN, context["horizon_ms"], seed)
        shared = {key: value for key, value in context.items() if key in keywords}
        cells: dict[str, dict[str, object]] = {}
        for point in itertools.product(*axes.values()):
            coords = dict(zip(axes, point))
            label = self.label(**coords)
            if label in cells:
                raise ConfigurationError(
                    f"experiment {self.name!r}: label {label!r} names two "
                    f"cells, {cells[label]} and {coords}"
                )
            cells[label] = coords
        scenarios = {
            label: self.scenario(**coords, **shared) for label, coords in cells.items()
        }
        return axes, context, scenarios

    def build_scenarios(self, seed: int = 0, **overrides: object) -> dict[str, object]:
        """The label -> scenario table of the default grid under *overrides*.

        Overrides name axes (``sizes=(8, 16)``, ``cluster_size=3``) or are
        the capability values :meth:`build` takes (``protocols=``,
        ``scenario=``, ``plan=``); *seed* jitters the plan as a run's would.
        """
        supplied = {
            option: overrides.pop(option, None)
            for option in ("scenario", "protocols", "plan")
        }
        return self.build(self.resolved_params(**overrides), seed, **supplied)[2]
