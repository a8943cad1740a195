"""The Internet Health Report substitute's two tables, as columns.

The paper consumes two IHR-derived tables (§5.3):

* the **prefix-origin dataset** — one row per routed (prefix, origin)
  with its RPKI and IRR statuses and the number of vantage points that
  saw it (origin hegemony is trivially 1): the ``po_*`` columns, in
  visible route-group order;
* the **transit dataset** — for each (prefix, origin), the transit ASes
  on paths toward it with their hegemony scores and whether they learned
  the route from a direct customer.

Every prefix of one (origin, filter-class) route group shares the
group's paths, hence its transit set, so the transit dataset is stored
per group.  The ``tg_*`` columns hold each transit group's origin and
visibility, and the ``po_*`` rows of its prefixes (sliced per group by
``tg_offsets``); ``tr_*`` holds its transits in scoring order (sliced
by ``tr_offsets``).  A row of the paper's transit dataset is one
(prefix row, transit row) pair of a group.

These columns are the one form of the tables: the IHR pipeline and the
live world assemble them (:func:`repro.ihr.pipeline.assemble_ihr`), a
checkpoint stores them and the ``ihr`` digest hashes them as they are,
and the analyses walk them.  Statuses are codes, indexes into
:data:`RPKI_STATUSES` and :data:`IRR_STATUSES`, whose values the meta's
legend (:data:`LEGEND`) records.  :class:`PrefixOriginRecord` is the
decoded row of :meth:`IHRDataset.records_of` and
:meth:`IHRDataset.prefix_origins`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.irr.validation import IRRStatus
from repro.net.prefix import Prefix, prefixes_from_columns
from repro.rpki.rov import RPKIStatus

__all__ = [
    "COLUMNS",
    "IRR_STATUSES",
    "LEGEND",
    "RPKI_STATUSES",
    "PrefixOriginRecord",
    "IHRDataset",
]

#: Status codes: a code is its status's index here.
RPKI_STATUSES: tuple[RPKIStatus, ...] = tuple(RPKIStatus)
IRR_STATUSES: tuple[IRRStatus, ...] = tuple(IRRStatus)

#: The meta every dataset carries: the status values its codes index.
LEGEND = {
    "rpki_values": [status.value for status in RPKI_STATUSES],
    "irr_values": [status.value for status in IRR_STATUSES],
}

#: The stored columns, in the order a checkpoint writes them and the
#: ``ihr`` digest hashes them.
COLUMNS = (
    "po_prefix_hi",
    "po_prefix_lo",
    "po_prefix_len",
    "po_prefix_ver",
    "po_origin",
    "po_rpki",
    "po_irr",
    "po_visibility",
    "tg_origin",
    "tg_visibility",
    "tg_prefix_hi",
    "tg_prefix_lo",
    "tg_prefix_len",
    "tg_prefix_ver",
    "tg_rpki",
    "tg_irr",
    "tg_offsets",
    "tr_asn",
    "tr_hegemony",
    "tr_from_customer",
    "tr_offsets",
)


@dataclass(frozen=True)
class PrefixOriginRecord:
    """One routed (prefix, origin) pair with validation statuses."""

    prefix: Prefix
    origin: int
    rpki: RPKIStatus
    irr: IRRStatus
    #: Number of vantage points that saw the announcement.
    visibility: int

    @property
    def hegemony(self) -> float:
        """Origin hegemony is trivially 1 (every path ends at the origin)."""
        return 1.0


class IHRDataset:
    """The two IHR tables for one snapshot date: a legend and columns.

    ``arrays`` maps each name of :data:`COLUMNS`, in that order, to the
    array it was given; nothing is copied or decoded.
    """

    def __init__(self, meta: dict, arrays: Mapping[str, np.ndarray]):
        self.meta = meta
        self.arrays = {name: arrays[name] for name in COLUMNS}

    def records_of(self, origin: int) -> list[PrefixOriginRecord]:
        """Prefix-origin records originated by one AS."""
        return self._rows(np.flatnonzero(self.arrays["po_origin"] == origin))

    def prefix_origins(self) -> list[PrefixOriginRecord]:
        """Every prefix-origin record, in row order."""
        return self._rows(slice(None))

    def _rows(self, rows) -> list[PrefixOriginRecord]:
        """Decode the prefix-origin rows ``rows`` (indexes or a slice)."""
        columns = self.arrays
        return [
            PrefixOriginRecord(
                prefix=prefix,
                origin=origin,
                rpki=RPKI_STATUSES[rpki],
                irr=IRR_STATUSES[irr],
                visibility=visibility,
            )
            for prefix, origin, rpki, irr, visibility in zip(
                prefixes_from_columns(columns, "po_prefix", rows),
                columns["po_origin"][rows].tolist(),
                columns["po_rpki"][rows].tolist(),
                columns["po_irr"][rows].tolist(),
                columns["po_visibility"][rows].tolist(),
            )
        ]
