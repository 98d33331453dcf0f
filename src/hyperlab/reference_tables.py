"""Fixed reference copies of the classical multiplication tables.

These are hand-embedded transcriptions used to cross-check the generated
structure constants: the 8x8 octonion table and a 16x16 sedenion table.
The sedenion transcription is known to disagree with the doubling recursion
in a handful of cells (it is not even anti-commutative there), so
comparisons against it are reported as diagnostics instead of hard
failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley_dickson import MultiplicationTable

# (sign, index) per cell; row/column order e_0, e_1, ...
OCTONION_TABLE = (
    ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2), (1, 5), (-1, 4), (-1, 7), (1, 6)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1), (1, 6), (1, 7), (-1, 4), (-1, 5)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0), (1, 7), (-1, 6), (1, 5), (-1, 4)),
    ((1, 4), (-1, 5), (-1, 6), (-1, 7), (-1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 5), (1, 4), (-1, 7), (1, 6), (-1, 1), (-1, 0), (-1, 3), (1, 2)),
    ((1, 6), (1, 7), (1, 4), (-1, 5), (-1, 2), (1, 3), (-1, 0), (-1, 1)),
    ((1, 7), (-1, 6), (1, 5), (1, 4), (-1, 3), (-1, 2), (1, 1), (-1, 0)),
)

# Transcribed verbatim, including the cells that break anti-commutativity.
SEDENION_TABLE = (
    ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
     (1, 8), (1, 9), (1, 10), (1, 11), (1, 12), (1, 13), (1, 14), (1, 15)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2), (1, 5), (-1, 4), (-1, 7), (1, 6),
     (1, 9), (-1, 8), (-1, 11), (1, 10), (-1, 13), (1, 12), (1, 15), (-1, 14)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1), (1, 6), (1, 7), (-1, 4), (-1, 5),
     (1, 10), (1, 11), (-1, 3), (-1, 9), (-1, 14), (-1, 15), (1, 12), (1, 13)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0), (1, 7), (-1, 6), (1, 5), (-1, 4),
     (1, 11), (-1, 10), (1, 9), (-1, 8), (-1, 15), (1, 14), (-1, 13), (1, 12)),
    ((1, 4), (-1, 5), (-1, 6), (-1, 7), (-1, 0), (1, 1), (1, 2), (1, 3),
     (1, 12), (1, 13), (1, 14), (1, 15), (-1, 8), (-1, 9), (-1, 10), (-1, 11)),
    ((1, 5), (1, 4), (-1, 7), (1, 6), (-1, 1), (-1, 0), (1, 3), (1, 2),
     (1, 13), (-1, 12), (1, 15), (-1, 14), (1, 9), (-1, 8), (1, 11), (-1, 10)),
    ((1, 6), (1, 7), (1, 4), (-1, 5), (-1, 2), (1, 3), (-1, 0), (-1, 1),
     (1, 14), (-1, 15), (-1, 12), (1, 13), (1, 10), (-1, 11), (-1, 3), (1, 9)),
    ((1, 7), (-1, 6), (1, 5), (1, 4), (-1, 3), (-1, 2), (1, 1), (-1, 0),
     (1, 15), (1, 14), (-1, 13), (-1, 12), (1, 11), (1, 10), (-1, 9), (-1, 8)),
    ((1, 8), (-1, 9), (-1, 10), (-1, 11), (-1, 12), (-1, 13), (-1, 14), (-1, 15),
     (-1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)),
    ((1, 9), (1, 8), (-1, 11), (1, 10), (-1, 13), (1, 12), (1, 15), (-1, 14),
     (-1, 1), (-1, 0), (-1, 3), (1, 2), (-1, 5), (1, 4), (1, 7), (-1, 6)),
    ((1, 10), (1, 11), (1, 3), (-1, 9), (-1, 14), (-1, 15), (1, 12), (1, 13),
     (-1, 2), (1, 3), (-1, 0), (-1, 1), (-1, 6), (-1, 7), (1, 4), (1, 5)),
    ((1, 11), (-1, 10), (1, 9), (1, 8), (-1, 15), (1, 14), (-1, 13), (1, 12),
     (-1, 3), (-1, 2), (1, 1), (-1, 0), (-1, 7), (1, 6), (-1, 5), (1, 4)),
    ((1, 12), (1, 13), (1, 14), (1, 15), (1, 8), (-1, 9), (1, 10), (-1, 11),
     (-1, 4), (1, 5), (1, 6), (1, 7), (-1, 0), (-1, 1), (-1, 2), (-1, 3)),
    ((1, 13), (-1, 12), (1, 15), (-1, 14), (1, 9), (1, 8), (1, 11), (-1, 10),
     (-1, 5), (-1, 4), (1, 7), (-1, 6), (1, 1), (-1, 0), (-1, 3), (-1, 2)),
    ((1, 14), (-1, 15), (-1, 12), (1, 13), (1, 10), (-1, 11), (1, 8), (1, 9),
     (-1, 6), (-1, 7), (-1, 4), (1, 5), (1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 15), (1, 14), (-1, 13), (-1, 12), (1, 11), (1, 10), (-1, 9), (1, 8),
     (-1, 7), (1, 6), (-1, 5), (-1, 4), (1, 3), (1, 2), (-1, 1), (-1, 0)),
)


@dataclass
class TableMismatch:
    row: int
    col: int
    generated: tuple[int, int]
    reference: tuple[int, int]

    def to_json_dict(self) -> dict:
        def fmt(cell):
            k, s = cell
            return f"{'-' if s < 0 else ''}e{k}"

        return {
            "row": self.row,
            "col": self.col,
            "generated": fmt(self.generated),
            "reference": fmt(self.reference),
        }


def compare_with_reference(table: MultiplicationTable, reference) -> list[TableMismatch]:
    mismatches = []
    for p, row in enumerate(reference):
        for q, (sign, k) in enumerate(row):
            gen = table.product(p, q)
            if gen != (k, sign):
                mismatches.append(TableMismatch(p, q, gen, (k, sign)))
    return mismatches


def reference_table_for_level(level: int):
    if level == 3:
        return OCTONION_TABLE
    if level == 4:
        return SEDENION_TABLE
    return None
