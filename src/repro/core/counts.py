"""The count layer: events -> per-HGrid counts, one Spark query per lattice.

Model error (Eq. 20) needs the MGrid demand series, expression error
(Eq. 7, Alg. 2) the HGrid means alpha, and measured real error (Def. 3)
the HGrid counts of held-out days. All are marginals of the event counts
per (day, slot, HGrid), since each MGrid is exactly m HGrids (§II-A), and
the HGrid id depends only on the fine lattice: grid sizes with the same
``fine_side`` share one table (sides 1-10 at N_side = 16 use four).
Events that cannot be binned raise :class:`ValueError` instead of being
counted in a wrong cell.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.grids import GridSpec, with_grid_ids


class GridCounts:
    """Per-lattice event counts of one city, memoised for its lifetime."""

    def __init__(self, events: DataFrame, *, days: int, slots: int):
        self.events = events
        self.days = days
        self.slots = slots
        self._memo_cells: dict[int, pd.DataFrame] = {}
        self._memo_tensor: dict[GridSpec, np.ndarray] = {}
        self._memo_alphas: dict[tuple, np.ndarray] = {}

    def cells(self, spec: GridSpec) -> pd.DataFrame:
        """The non-zero counts (day, slot, hgrid, cnt) of ``spec``'s fine
        lattice as int columns sorted by (day, slot, hgrid) — the only
        query that turns events into grid counts."""
        if spec.fine_side in self._memo_cells:
            return self._memo_cells[spec.fine_side]
        x, y = F.col("x"), F.col("y")
        in_box = x.between(0.0, spec.width_km) & y.between(0.0, spec.height_km)
        pdf = (
            with_grid_ids(self.events, spec)
            # int, not long, ids and counts: half the bytes collected and kept
            .groupBy("day", "slot", F.col("hgrid").cast("int").alias("hgrid"))
            .agg(
                F.count(F.lit(1)).cast("int").alias("cnt"),
                # null -> otherwise; NaN sorts above every number, so fails between
                F.sum(F.when(in_box, 0).otherwise(1)).cast("int").alias("bad"),
            )
            .toPandas()
        )
        # a NaN (null) day or slot is outside too
        ok = pdf["day"].between(0, self.days - 1) & pdf["slot"].between(0, self.slots - 1)
        if n_bad := int(pdf["cnt"][~ok].sum() + pdf["bad"][ok].sum()):
            raise ValueError(
                f"{n_bad} events cannot be binned: x/y outside the city box or "
                f"null/NaN, or day/slot outside [0, {self.days}) x [0, {self.slots})"
            )
        cells = pdf.drop(columns="bad").sort_values(["day", "slot", "hgrid"])
        cells = cells.reset_index(drop=True)
        self._memo_cells[spec.fine_side] = cells
        return cells

    def tensor(self, spec: GridSpec) -> np.ndarray:
        """Dense ``(days, slots, n)`` MGrid demand tensor (missing
        combinations are 0)."""
        if spec not in self._memo_tensor:
            c = self.cells(spec)
            day, slot = c["day"].to_numpy(np.int64), c["slot"].to_numpy()
            key = (day * self.slots + slot) * spec.n + spec.mgrid_of_hgrid[c["hgrid"]]
            self._memo_tensor[spec] = np.bincount(
                key, weights=c["cnt"], minlength=self.days * self.slots * spec.n
            ).reshape(self.days, self.slots, spec.n)
        return self._memo_tensor[spec]

    def alphas(self, spec: GridSpec, train_days: list[int]) -> np.ndarray:
        """Dense ``(slots, fine_side^2)`` alphas, indexed ``[slot, hgrid]``.

        alpha = events over ``train_days`` divided by their number (days with
        zero events count in the mean); HGrids that saw no event keep alpha
        0, and still carry expression error. Group HGrids by MGrid with
        ``spec.mgrid_of_hgrid``.
        """
        if not train_days:
            raise ValueError("train_days must be non-empty")
        key = (spec.fine_side, tuple(train_days))
        if key not in self._memo_alphas:
            c = self.cells(spec)
            c = c[c["day"].isin(train_days)]
            cells_n = spec.fine_side**2
            flat = c["slot"].to_numpy(np.int64) * cells_n + c["hgrid"].to_numpy()
            total = np.bincount(flat, weights=c["cnt"], minlength=self.slots * cells_n)
            self._memo_alphas[key] = total.reshape(self.slots, cells_n) / len(train_days)
        return self._memo_alphas[key]

    def day_counts(self, spec: GridSpec, slot: int, days: list[int]) -> pd.DataFrame:
        """Actual per-HGrid counts at ``slot`` on each of ``days``: a frame
        (day, hgrid, mgrid, cnt) with zero rows omitted, sorted by (day,
        hgrid); callers reconstruct zeros from the lattice."""
        c = self.cells(spec)
        c = c[(c["slot"] == slot) & c["day"].isin(days)].reset_index(drop=True)
        mgrid = spec.mgrid_of_hgrid[c["hgrid"]].astype(np.int32)
        return c.assign(mgrid=mgrid)[["day", "hgrid", "mgrid", "cnt"]]
