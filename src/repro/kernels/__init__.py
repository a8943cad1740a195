"""Columnar numpy kernels for the measurement hot path.

The pipeline's per-world cost is dominated by bulk, per-route work with
no data-dependent control flow: classifying every origination against
the RPKI and the IRR, sweeping routed address space per year, scoring
transit ASes over millions of collector paths, and re-running the same
three-phase propagation over thousands of (origin, filter-class) groups.
Each of those admits a columnar formulation — integer prefix columns,
CSR adjacency, sort-then-reduce groupings — that numpy executes one to
two orders of magnitude faster than the per-object Python loops.

Every kernel sits *behind* an existing API and is the only production
path.  The pure-Python loops it replaced stay next to it as reference
implementations, and each kernel must be **byte-identical** to its
reference: ``tests/test_kernels.py`` calls both directly on generated
inputs and on a built world, and the golden-digest suite pins the
kernels end to end.
"""
