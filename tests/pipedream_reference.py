"""The pipe-following reference the tests check pipe dreams against.

trace walks each pipe through the crosses and bumps of a dream, cell by
cell; the package never follows a pipe, and reads a dream's permutation
from its word (pipedream.enumerate_pipe_dreams, blockperm.target_states).
"""

from qcalc.pipedream import PipeDream


def trace(dream: PipeDream) -> tuple:
    """Exit column on the top edge for the pipe entering each row."""
    d = dream.dims.d
    crosses = dream.crosses
    out = []
    for q in range(1, d + 1):
        row, col, side = q, 1, "W"
        while row >= 1:
            cross = (row, col) in crosses
            if side == "W":
                if cross:
                    col += 1  # straight through, still heading east
                else:
                    row -= 1
                    side = "S"
            else:  # entering from the south
                if cross:
                    row -= 1
                else:
                    col += 1
                    side = "W"
        out.append(col)
    return tuple(out)
