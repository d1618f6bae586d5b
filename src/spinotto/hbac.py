"""Heat-bath algorithmic cooling via the partner pairing algorithm.

One cooling run on a (target, compression, reset) register consists of an
initial stage, reset the reset qubit and SWAP it with the target, followed
by ``n`` rounds of

1. reset,
2. SWAP(compression, reset),
3. reset,
4. 3-bit entropy compression (COMP).

Each reset is a marginal replacement against the bath (the reset qubit's
relaxation time enters only the engine time bookkeeping, not the state
update).  The initial stage leaves the target at the reset qubit's bath
polarization ``eps_b``, and every round hands COMP the product state
``(eps_{n-1}, eps_b, eps_b)``, whatever came before.  COMP exchanges
``|011>`` and ``|100>``, so the target follows the exact map
``eps_n = eps_{n-1} (1 - eps_b**2)/2 + eps_b`` toward the limit
``2 eps_b/(1 + eps_b**2)``, past the single-reset (Shannon) bound from the
first round on; the paper's ``eps_{n-1}/2 + eps_b`` drops the ``eps_b**2``
terms.  The exchange moves the same population out of the compression
and reset qubits, so each ends the round at ``eps_b`` less the target's
gain.

A run is therefore the closed form of that map, evaluated for every
round at once: ``eps_n = eps_inf + (eps_b - eps_inf) a**n`` with
``a = (1 - eps_b**2)/2``.  Each polarization is computed directly, never
as the difference of two populations near 1/2, which would cancel about
4.5 digits at NMR polarizations.  Of the input register a run reads only
the target's polarization, which the initial stage's SWAP hands to the
reset qubit (row 0), so that polarization is all ``run_ppa`` takes.
A run is a ``SweepTable`` on the axis ``n_rounds``, the table type the
engines' sweeps return too, with three float columns and no populations.
"""

import math
from functools import cached_property

import numpy as np

from .spinsys import Role, SpinSystem, StateInvariantError, _effective_temperature, _Record, thermal_polarization


_AXIS_UNITS = {"omega_s": " rad/s"}


class NonFiniteCell(StateInvariantError):
    """A non-finite table cell; ``point`` maps each axis name to the cell's index on it."""

    def __init__(self, message: str, point: dict[str, int]):
        super().__init__(message)
        self.point = point


class SweepTable(_Record):
    """A cooling run or cycles of one engine kind over a parameter grid, stored as named read-only columns.

    ``axes`` names the columns that are the grid's axes, such as
    ``("n_rounds", "omega_s")``: each strictly increases and lies along
    its own axis, and ``shape`` holds their lengths.  A table has one row
    per grid point, in row-major order over its axes.  Each column is
    stored at the shape it has: an array that spans at least one axis and
    broadcasts to ``shape`` along the others, so a value that depends on
    one axis only is held once per point of that axis (energies J/mol,
    power W/mol, times s, temperatures K, ``omega_s`` rad/s).  ``column``
    gives a column in row order and ``cell`` one row's value.  The table
    takes the arrays it is given and marks them read-only.  A non-finite
    float cell is a ``NonFiniteCell`` naming its grid point, the first in
    row order.  Tables compare by identity.
    """

    axes: tuple[str, ...]
    engine_kind: str
    columns: dict[str, np.ndarray]

    __match_args__ = ("axes", "engine_kind", "columns")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @np.errstate(over="ignore", invalid="ignore")  # a column's sum may overflow or meet inf - inf
    def __init__(self, axes, engine_kind, columns):
        columns = {name: np.asarray(values) for name, values in columns.items()}
        self.__dict__.update(axes=axes, engine_kind=engine_kind, columns=columns)
        for k, axis in enumerate(self.axes):
            column = self.columns[axis]
            dims = (1,) * (len(self.axes) - column.ndim) + column.shape
            if len(dims) != len(self.axes) or math.prod(dims) != dims[k]:
                raise ValueError(f"axis column {axis} of shape {column.shape} does not lie along axis {k}")
            seq = column.reshape(-1)
            if (seq[1:] <= seq[:-1]).any():
                raise ValueError("sweep axes must be strictly increasing")
        shape = self.shape
        for name, column in self.columns.items():
            if column.shape != shape:
                # each column spans at least one axis and broadcasts along the others
                dims = (1,) * (len(shape) - column.ndim) + column.shape
                fits = len(dims) == len(shape) and all(d in (1, n) for d, n in zip(dims, shape))
                if not (fits and any(d == n for d, n in zip(dims, shape))):
                    raise ValueError(f"incomplete sweep: column {name} of shape {column.shape} does not fit {shape}")
            column.setflags(write=False)
            # a float column whose sum is finite has only finite cells; any other is searched cell by cell
            if column.dtype.kind == "f" and not math.isfinite(column.sum()) and not np.isfinite(column).all():
                first = int(np.argmin(np.isfinite(self._spread(name))))
                point = dict(zip(self.axes, map(int, np.unravel_index(first, shape))))
                where = ", ".join(
                    f"{axis}={self.columns[axis].item(i):.6g}{_AXIS_UNITS.get(axis, '')}" for axis, i in point.items()
                )
                raise NonFiniteCell(
                    f"{self.engine_kind}: {name} is {self.cell(name, first)} at {where or 'the only point'}", point
                )

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.columns[axis].size for axis in self.axes)

    def __len__(self) -> int:
        return math.prod(self.shape)

    @property
    def reports(self) -> "SweepTable":
        # only perfbench/tracer.py reads this, to count cycles; it goes with that tracer
        return self

    def _spread(self, name: str) -> np.ndarray:
        """Column ``name`` as a read-only view of the table's shape; reshaping a full column is 15x cheaper than broadcasting."""
        column = self.columns[name]
        return column.reshape(self.shape) if column.size == len(self) else np.broadcast_to(column, self.shape)

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` with one value per row, in row order."""
        return self._spread(name).reshape(-1)

    def cell(self, name: str, row: int):
        """The value of column ``name`` at ``row``, as a Python scalar, read in place.

        A smaller column is read at the row's index along each of its axes, 0 along its length-1 ones.
        """
        column, size = self.columns[name], len(self)
        if not -size <= row < size:
            return self.column(name).item(row)  # raises the IndexError that reading the column in row order raises
        if column.size == size:
            return column.item(row)
        index = []
        # a negative row's floor divisions give the indices of row + size
        for n, d in zip(reversed(self.shape), reversed(column.shape)):
            row, i = divmod(row, n)
            index.append(i % d)
        return column.item(*reversed(index))

    def argmax_power(self) -> int:
        """Row index of the largest power, the first of equal maxima."""
        return int(np.argmax(self.column("power")))


def cooling_polarizations(eps_b: float, eps_reset0: float, n_rounds: int) -> np.ndarray:
    """Target and reset polarizations after the initial stage and each round, as two rows.

    Row ``n`` of the target is ``eps_inf + (eps_b - eps_inf) a**n``.  The
    reset qubit starts with ``eps_reset0``, the input's target marginal,
    and after round ``n`` holds ``eps_b`` less that round's gain
    ``(eps_b - eps_inf) a**(n-1) (a - 1)``, computed as such rather than
    as the difference of two rows.
    """
    a = (1.0 - eps_b * eps_b) / 2.0
    limit = 2.0 * eps_b / (1.0 + eps_b * eps_b)
    columns = np.zeros((2, n_rounds + 1))
    target, reset = columns
    # eps_b is a tanh, so 0 <= a <= 1/2, and from n = 1075 on a**n <= 2**-1075, which rounds to 0.0
    powers = min(n_rounds, 1074) + 1
    np.power(a, np.arange(powers), out=target[:powers])
    target *= eps_b - limit
    np.multiply(target[:-1], a - 1.0, out=reset[1:])
    np.subtract(eps_b, reset[1:], out=reset[1:])
    reset[0] = eps_reset0
    target += limit
    return columns


def run_ppa(eps_in: float, sys: SpinSystem, field_scale: float, n_rounds: int) -> SweepTable:
    """Run the initial stage plus ``n_rounds`` cooling rounds from the target's polarization ``eps_in``.

    The initial stage hands ``eps_in`` to the reset qubit (row 0); a
    thermal input is ``thermal_marginal_polarization(sys, target,
    field_scale)``.  The table has one row per round, the initial stage
    as row 0, on the axis ``n_rounds``: the target and reset
    polarizations ``eps_target`` and ``eps_reset``, and the target's
    effective spin temperature ``T_eff`` in kelvin, evaluated at
    ``field_scale * omega_T``.  The run stops at the first round whose
    target or reset polarization leaves (0, 1), ``eps_in`` included: such
    a polarization has no spin temperature, and past 1 (or NaN) it is no
    state.  A target so weakly polarized (by a very hot bath) that its
    spin temperature overflows stops the run at round 0 too.  After
    round 0 every register is COMP applied to the product of the previous
    target polarization and two qubits at ``eps_b`` (row 0's target), so
    this also keeps every population of the run positive.
    """
    if n_rounds < 0:
        raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
    target = sys.label_for_role(Role.TARGET)
    columns = cooling_polarizations(shannon_bound(sys, field_scale), float(eps_in), n_rounds)
    inside = (0.0 < columns) & (columns < 1.0)
    if not inside.all():
        # the first bad round, and within it the target before the reset qubit
        index = int(np.argmin(inside.all(axis=0)))
        row = int(np.argmin(inside[:, index]))
        raise StateInvariantError(
            f"round {index}: {('target', 'reset')[row]} polarization {float(columns[row, index])} "
            f"outside (0, 1) at bath temperature {sys.bath_temperature:g} K"
        )
    # the target's polarization only rises, so its spin temperature is
    # largest at row 0, where an overflow to inf shows first; the check
    # above is the only one the column needs (row 0 is the reset qubit's
    # polarization at the same field scale, so a field scale <= 0 fails it)
    with np.errstate(divide="ignore", over="ignore"):
        temperature = _effective_temperature(columns[0], sys.omega(target, field_scale))
    if not np.isfinite(temperature[0]):
        raise StateInvariantError(
            f"round 0: target polarization {float(columns[0, 0])} has no finite spin temperature "
            f"at bath temperature {sys.bath_temperature:g} K"
        )
    eps_target, eps_reset = columns
    rows = {"n_rounds": np.arange(n_rounds + 1), "eps_target": eps_target, "eps_reset": eps_reset, "T_eff": temperature}
    return SweepTable(("n_rounds",), "ppa", rows)


def shannon_bound(sys: SpinSystem, field_scale: float) -> float:
    """Reset-qubit thermal polarization: the closed-system cooling ceiling."""
    label = sys.label_for_role(Role.RESET)
    return thermal_polarization(sys.omega(label, field_scale), sys.bath_temperature)
