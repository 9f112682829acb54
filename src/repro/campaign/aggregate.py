"""Group campaign results by arm and lay out each arm's headline.

Every experiment kind registers one ``headline(trials)`` (see
:class:`repro.registry.ExperimentDef`): the kind's only definition of
its per-arm statistics.  A headline is a dict of named rates and counts
(``None`` where there is nothing to average) and named sample vectors
(tuples); a rate's name says what it divides by, as in
``soft_per_completed``.  This module groups decoded trials into arms and
lays their headlines out as tables, whether the ``(cell, payload)``
pairs come from an in-memory
:class:`~repro.campaign.runner.CampaignResult` or were loaded back from
a campaign directory written last week.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from repro.campaign.runner import decode_payload
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ArtifactStore
from repro.registry import EXPERIMENTS

PathLike = Union[str, Path]
ResultPairs = Iterable[Tuple[CampaignCell, dict]]


def load_campaign(out_dir: PathLike) -> Tuple[CampaignSpec, List[Tuple[CampaignCell, dict]]]:
    """``(spec, completed pairs)`` from a campaign artifact directory."""
    store = ArtifactStore(out_dir)
    return store.load_spec(), store.load_results()


def group_trials(pairs: ResultPairs, *fields: str) -> Dict[object, list]:
    """Decoded trials grouped by cell ``fields``, arms and trials in grid order.

    One field keys each arm by that cell attribute (``"protocol"``);
    several key it by the tuple of them.
    """
    grouped: Dict[object, list] = {}
    for cell, payload in pairs:
        key = tuple(getattr(cell, name) for name in fields)
        grouped.setdefault(key[0] if len(fields) == 1 else key, []).append(
            decode_payload(cell.experiment, payload)
        )
    return grouped


def headline_table(
    labels: Tuple[str, ...], headlines: Mapping[object, dict], columns
) -> Tuple[List[str], List[list]]:
    """``(headers, rows)``: one row per arm, its key cells then ``columns``.

    ``headlines`` maps each arm's key (one cell, or a tuple of cells, for
    the ``labels`` headers) to its headline; ``columns`` is a sequence of
    ``(header, headline name or callable(headline))`` pairs.
    """
    rows = []
    for key, headline in headlines.items():
        row = list(key) if isinstance(key, tuple) else [key]
        for _, source in columns:
            row.append(source(headline) if callable(source) else headline[source])
        rows.append(row)
    return [*labels, *(header for header, _ in columns)], rows


def summarize_campaign(
    spec: CampaignSpec, pairs: ResultPairs
) -> Tuple[List[str], List[list]]:
    """``(headers, rows)`` for a per-arm summary table of any kind.

    One row per (scenario, protocol, override) arm: the arm's cell count,
    then its kind's headline columns (every rate and count under its own
    name for a kind that declares none).  Feed straight into
    :func:`repro.analysis.tables.format_table`.
    """
    kind = EXPERIMENTS.get(spec.experiment)
    headlines = {
        (*arm, len(trials)): kind.headline(trials)
        for arm, trials in group_trials(
            pairs, "scenario", "protocol", "override_label"
        ).items()
    }
    columns = kind.columns
    if not columns and headlines:
        first = next(iter(headlines.values()))
        columns = [(k, k) for k, v in first.items() if not isinstance(v, tuple)]
    return headline_table(
        ("scenario", "protocol", "override", "cells"), headlines, columns
    )
