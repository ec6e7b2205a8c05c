"""Architecture loss and component-count comparison.

Compares a Clements-style MZI mesh against a continuously coupled
waveguide array at the same mode count: the mesh pays a fixed per-MZI
loss over depth N, the array only propagation loss over its length.
"""
from __future__ import annotations

from dataclasses import dataclass

from .csvio import write_csv
from .device import count, finite_real

PER_MZI_DB_DEFAULT = 0.2
WA_DB_PER_CM_DEFAULT = 0.1
WA_LENGTH_CM_DEFAULT = 2.4

# The array scheme sees about half the bending sections of an MZI mesh,
# but no per-bend figure is available, so the claim stays qualitative.
BENDING_NOTE = "waveguide array traverses about half the bending sections of an MZI mesh (not quantified)"


@dataclass(frozen=True)
class LossReport:
    n_modes: int
    mzi_count: int
    mzi_depth: int
    clements_loss_db: float
    wa_length_cm: float
    wa_loss_db: float

    def to_text(self) -> str:
        rows = [
            ("modes", str(self.n_modes)),
            ("MZI count", str(self.mzi_count)),
            ("MZI depth", str(self.mzi_depth)),
            ("Clements loss (dB)", f"{self.clements_loss_db:g}"),
            ("WA length (cm)", f"{self.wa_length_cm:g}"),
            ("WA loss (dB)", f"{self.wa_loss_db:g}"),
        ]
        width = max(len(k) for k, _ in rows)
        lines = [f"{k:<{width}}  {v}" for k, v in rows]
        lines.append(f"note: {BENDING_NOTE}")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        write_csv(path, ["n_modes", "mzi_count", "mzi_depth", "clements_loss_db",
                         "wa_length_cm", "wa_loss_db"],
                  [[self.n_modes, self.mzi_count, self.mzi_depth,
                    self.clements_loss_db, self.wa_length_cm, self.wa_loss_db]],
                  int_columns=3)


def clements_loss(
    n_modes: int, per_mzi_db: float = PER_MZI_DB_DEFAULT
) -> tuple[int, int, float]:
    """(mzi_count, depth, total_db) for a universal N-mode MZI mesh."""
    n_modes = count(n_modes, "n_modes", 2)
    # a count past the float range is refused by name, not by the product
    total = (finite_real(n_modes, "n_modes")
             * finite_real(per_mzi_db, "per-MZI loss", 0.0))
    return n_modes * (n_modes - 1) // 2, n_modes, finite_real(
        total, f"Clements loss of {n_modes} modes at {per_mzi_db:g} dB per MZI", 0.0)


def wa_loss(length_cm: float, db_per_cm: float = WA_DB_PER_CM_DEFAULT) -> float:
    """Propagation loss of a waveguide array of the given length."""
    total = finite_real(length_cm, "length", 0.0) * finite_real(db_per_cm, "loss per cm", 0.0)
    return finite_real(total, f"WA loss of {length_cm:g} cm at {db_per_cm:g} dB per cm", 0.0)


def loss_report(
    n_modes: int,
    per_mzi_db: float = PER_MZI_DB_DEFAULT,
    wa_length_cm: float = WA_LENGTH_CM_DEFAULT,
    db_per_cm: float = WA_DB_PER_CM_DEFAULT,
) -> LossReport:
    mzi_count, depth, total = clements_loss(n_modes, per_mzi_db)
    return LossReport(
        n_modes=n_modes,
        mzi_count=mzi_count,
        mzi_depth=depth,
        clements_loss_db=total,
        wa_length_cm=wa_length_cm,
        wa_loss_db=wa_loss(wa_length_cm, db_per_cm),
    )
