"""Hand-built IHR tables for unit tests.

:func:`ihr_dataset` assembles the tables through the production
builders (:func:`repro.bgp.collector.assemble_rib` and
:func:`repro.ihr.pipeline.assemble_ihr`) from plain rows, so a test
states its groups, prefixes, statuses and transits directly.
"""

from __future__ import annotations

import numpy as np

from repro.bgp.collector import Group, assemble_rib
from repro.bgp.policy import RouteClass
from repro.ihr.pipeline import assemble_ihr
from repro.ihr.records import IHRDataset


def ihr_dataset(groups) -> IHRDataset:
    """The tables of ``(origin, visibility, rows, transits)`` groups.

    ``rows`` are a group's ``(prefix, rpki, irr)`` prefixes and
    ``transits`` its ``(asn, hegemony, from_customer)`` transit rows in
    scoring order; a group without transits is in the prefix-origin
    table only.  Visibility becomes that many vantage-point paths, and
    must be at least 1: the tables hold visible groups only.
    """
    rib = assemble_rib(
        range(max(visibility for _, visibility, _, _ in groups)),
        [
            Group(
                origin,
                RouteClass(),
                [prefix for prefix, _, _ in rows],
                {vp: (vp, origin) for vp in range(visibility)},
            )
            for origin, visibility, rows, _ in groups
        ],
    )
    rpki_of = {
        (prefix, origin): rpki
        for origin, _, rows, _ in groups
        for prefix, rpki, _ in rows
    }
    irr_of = {
        (prefix, origin): irr
        for origin, _, rows, _ in groups
        for prefix, _, irr in rows
    }
    transits = [
        (index, *transit)
        for index, (_, _, _, group_transits) in enumerate(groups)
        for transit in group_transits
    ]
    group_ids, asns, hegemony, from_customer = (
        zip(*transits) if transits else ((),) * 4
    )
    return assemble_ihr(
        rib,
        rpki_of,
        irr_of,
        (
            np.array(group_ids, dtype=np.int64),
            np.array(asns, dtype=np.int64),
            np.array(hegemony, dtype=np.float64),
            np.array(from_customer, dtype=bool),
        ),
    )


def tables(dataset: IHRDataset) -> tuple[dict, dict]:
    """A dataset's legend and columns (name → dtype and values), for
    comparing two datasets."""
    return dataset.meta, {
        name: (column.dtype.str, column.tolist())
        for name, column in dataset.arrays.items()
    }
