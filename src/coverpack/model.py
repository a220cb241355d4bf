"""Problem instances for covering/packing integer programs.

An instance bundles nonnegative data (A, B, a, b, c, d) describing

    minimize    c . x
    subject to  A x >= a      (covering rows, m of them)
                B x <= b      (packing rows, r of them)
                0 <= x <= d   (multiplicity bounds; d_j may be unbounded)
                x integer.

All entries are exact ``fractions.Fraction`` values.  Instances are
immutable after construction and safe to share across threads; every
operation here is a pure function of its inputs.

The canonical interchange format is a UTF-8 JSON document::

    {"A": [[...]], "a": [...], "B": [[...]], "b": [...],
     "c": [...], "d": [..., null, ...]}

``B``/``b`` may be omitted (no packing rows).  ``d`` entries of ``null``
mean unbounded.  Numbers are plain decimals or strings "p/q" for exact
rationals; a decimal exponent is bounded by ``sys.get_int_max_str_digits()``.

The readers build their tuples from lists, not iterators: ``tuple`` of an
iterator of unknown length over-allocates and resizes, and CPython keeps
each resized tuple on the free list of its size, so a process that reads
many instances would keep growing.

Candidate solutions are ``IntegerVector`` and ``FractionalVector``, tuples
whose constructors check each entry.  The package's reports live here too,
``SolveReport`` and ``ViolationReport``, with ``report_dict``, their one JSON form.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm
from operator import attrgetter, mul
from typing import Sequence

#: Sentinel for a missing multiplicity bound (d_j = infinity).
UNBOUNDED = None

ZERO = Fraction(0)

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


class CoverpackError(Exception):
    """Base class for all errors raised by this package, one subclass per failure class.

    A check on a public function's arguments, made before it does its work,
    raises ``InstanceError``; a check on its own result, ``GuaranteeError``.
    """


class InfeasibleError(CoverpackError):
    """The program has no solution, proved by a checked certificate or a search."""


class LimitError(CoverpackError):
    """A budget ran out first: simplex pivots, cut rounds or oracle points.

    Also raised where a rounding's floats fail: a width's scale factor rounds
    to 1.0, or a width, a scale factor or a scaled point overflows a float.
    """


class InstanceError(CoverpackError):
    """Bad input: instance data, or arguments outside a function's preconditions."""


class ParseError(InstanceError):
    """Instance document is not well formed."""


class GuaranteeError(CoverpackError):
    """A solver's own result broke a guarantee it proves; an internal fault."""


#: The Fractions of 0..255, shared by every vector read from ints: a small int costs no new object.
_SMALL = tuple(map(Fraction, range(256)))


def as_fraction(value, where: str = "value") -> Fraction:
    """Coerce an int, Fraction, float, or 'p/q'/decimal string exactly."""
    if type(value) is Fraction:  # before the ABC isinstance checks below
        return value
    if isinstance(value, bool) or value is None:
        raise InstanceError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return _SMALL[value] if 0 <= value < len(_SMALL) else Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (str, float)):
        try:
            return _rational(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:  # nan, 1/0, inf
            raise InstanceError(f"{where}: cannot read {value!r} as a rational") from exc
    raise InstanceError(f"{where}: unsupported number type {type(value).__name__}")


def as_sequence(values, name: str, n: int | None = None):
    """``values`` if it is a sequence of n entries, any number if n is None; no str, dict or set.

    Its entries are not read (a set has no order to read them in); ``InstanceError`` otherwise.
    """
    if isinstance(values, (str, dict, set, frozenset)) or not hasattr(values, "__len__"):
        raise InstanceError(f"{name}: expected a sequence, got {type(values).__name__}")
    if n is not None and len(values) != n:
        raise InstanceError(f"{name} has {len(values)} entries, expected {n}")
    return values


def as_vector(values, name: str, n: int | None = None) -> tuple[Fraction, ...]:
    """A vector argument: a sequence by ``as_sequence``, each entry by ``as_fraction``.

    The entry types are read once: all ``Fraction``s pass as they are, and
    all ints (not bools) of 0..255 map to shared Fractions; either way there
    is no call per entry.  The text ``name[j]`` that names a bad entry is
    built only for it.
    """
    values = as_sequence(values, name, n)
    kinds = set(map(type, values))
    if kinds <= {Fraction}:
        return tuple(values)
    if kinds == {int} and min(values) >= 0 and max(values) < len(_SMALL):
        return tuple(list(map(_SMALL.__getitem__, values)))
    out = []
    for v in values:
        try:
            out.append(v if type(v) is Fraction else as_fraction(v))  # a Fraction: no call
        except InstanceError:
            as_fraction(v, f"{name}[{len(out)}]")  # raises again, naming the entry
    return tuple(out)


def as_shape(rows, name: str, n: int):
    """``rows`` if it is a sequence of sequences of n entries each; the entries are not read."""
    for i, row in enumerate(as_sequence(rows, name)):
        if type(row) not in (tuple, list) or len(row) != n:  # the name is built only here
            as_sequence(row, f"{name}[{i}]", n)
    return rows


def nonnegative(values, name: str):
    """``values``, rationals; ``InstanceError`` names the first negative entry.

    A rational has its numerator's sign, read by ``_parts``.
    """
    if min(_parts(values), default=0) < 0:
        j = next(j for j, v in enumerate(values) if v < 0)
        raise InstanceError(f"{name}[{j}] = {values[j]} is negative")
    return values


def as_bounds(values, name: str, n: int) -> tuple[Fraction | None, ...]:
    """n bounds by ``as_vector``, each None (no bound) or a nonnegative rational."""
    finite = [ZERO if v is None else v for v in as_sequence(values, name, n)]
    read = nonnegative(as_vector(finite, name), name)
    return tuple([None if v is None else u for v, u in zip(values, read)])


def as_int(value, where: str, minimum: int | None = None) -> int:
    """An int that is not a bool, at least ``minimum`` if given; ``InstanceError`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        need = "an int" if minimum is None else f"an int >= {minimum}"
        raise InstanceError(f"{where} = {value!r} must be {need}")
    return value


def as_epsilon(value, where: str = "epsilon") -> Fraction:
    """An epsilon, or a density, by ``as_fraction``, in (0, 1]; ``InstanceError`` otherwise."""
    eps = as_fraction(value, where)
    if not (0 < eps <= 1):
        raise InstanceError(f"{where} {eps} outside (0, 1]")
    return eps


def _rational(value: str | float) -> Fraction:
    """Fraction(value), refusing more decimal digits than the int-string limit (0: none).

    A decimal exponent over the limit is refused before any number is built,
    and so is a result whose numerator or denominator has more digits than
    the limit, since no message or report could print it.
    """
    limit = sys.get_int_max_str_digits()
    if limit and isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        if e and abs(int(exponent)) > limit:
            raise ValueError(f"the exponent of {value!r} exceeds {limit} in magnitude")
    out = Fraction(value)
    big = max(abs(out.numerator), out.denominator)
    # an int below 2**(3 * limit) < 10**limit has at most `limit` digits
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(f"{value!r} has more than {limit} decimal digits")
    return out


def dot(u: Sequence[Fraction], v: Sequence) -> Fraction:
    """u . v for ints and Fractions: one integer sum over the two ``integers`` denominators."""
    (U, Du), (V, Dv) = integers(u), integers(v)
    return Fraction(sum(map(mul, U, V)), Du * Dv)


def integers(values) -> tuple[list[int], int]:
    """Rationals or ints over their least common denominator D, by ``_parts``: (values * D, D)."""
    nums, dens = _parts(values, True)
    D = lcm(*dens)
    return (nums if D == 1 else list(map(mul, nums, map(D.__floordiv__, dens)))), D


def _parts(values, denominators: bool = False):
    """A vector's numerators, or with ``denominators`` (numerators, denominators).

    A vector that starts with a ``Fraction`` is read through the slots
    ``_numerator`` and ``_denominator`` that ``Fraction`` declares, by a
    list display each, with no Python-level call per entry: CPython 3.11
    and later specialize a slot read in a display to a direct load, about
    twice as fast as ``map(attrgetter(...))``.  Any other vector, or one with
    an entry that has no slots (an int or a bool: ``AttributeError``), is
    read through the public properties, which raise for a float, None or a
    string as they always did; its numerators alone come as a lazy ``map``,
    read (and raising) where they are used.
    """
    if values and type(values[0]) is Fraction:
        try:
            nums = [v._numerator for v in values]
            return (nums, [v._denominator for v in values]) if denominators else nums
        except AttributeError:
            pass
    if not denominators:
        return map(_numerator, values)
    dens = list(map(_denominator, values))  # first: a bad entry raises as integers always did
    return list(map(_numerator, values)), dens


def scale_rows(rows) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each ``(coeffs, rhs)`` as ``((*coeffs, rhs) * D, D)`` by ``integers``."""
    return tuple([(tuple(S), D) for S, D in (integers((*coeffs, rhs)) for coeffs, rhs in rows)])


@dataclass(frozen=True)
class CpipInstance:
    """A covering/packing integer program (A, B, a, b, c, d)."""

    A: Matrix
    a: Vector
    B: Matrix
    b: Vector
    c: Vector
    d: tuple[Fraction | None, ...]

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def r(self) -> int:
        return len(self.b)

    def beta(self) -> Vector:
        """Row sums of the packing matrix."""
        return tuple(sum(row, ZERO) for row in self.B)

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Covering rows, then packing rows, each ``(row, rhs)`` by ``scale_rows``; built once."""
        return scale_rows((*zip(self.A, self.a), *zip(self.B, self.b)))

    @classmethod
    def from_data(cls, A, a, c, d, B=(), b=()) -> "CpipInstance":
        """Validate raw (possibly mixed int/str/float) data and build an instance."""
        cf = nonnegative(as_vector(c, "c"), "c")
        n = len(cf)
        if n == 0:
            raise InstanceError("instance has no variables")

        def rows(M, name):  # one read and one sign pass over each row
            return tuple([
                nonnegative(as_vector(row, f"{name}[{i}]", n), f"{name}[{i}]")
                for i, row in enumerate(as_sequence(M, name))
            ])

        Af, Bf = rows(A, "A"), rows(B, "B")
        af = nonnegative(as_vector(a, "a", len(Af)), "a")
        bf = nonnegative(as_vector(b, "b", len(Bf)), "b")
        return cls(A=Af, a=af, B=Bf, b=bf, c=cf, d=as_bounds(d, "d", n))


class FractionalVector(tuple):
    """Nonnegative rational candidate solution: a tuple, each entry an int or a ``Fraction``.

    Any other entry is read by ``as_fraction`` and stored as what it reads.
    """

    def __new__(cls, values):
        values = super().__new__(cls, as_sequence(values, "x"))
        if {type(v) for v in values} - {int, Fraction}:  # at C speed
            read = [
                v if type(v) in (int, Fraction) else as_fraction(v, f"x[{j}]")
                for j, v in enumerate(values)
            ]
            values = super().__new__(cls, read)
        return nonnegative(values, "x")

    # the entries as a plain tuple; perfbench/workloads.py, perfbench/spans.py and tests read it
    values = property(tuple)


class IntegerVector(tuple):
    """Nonnegative integer candidate solution: a tuple, each entry by ``as_int``'s rule, >= 0."""

    def __new__(cls, values):
        values = super().__new__(cls, as_sequence(values, "x"))
        if {type(v) for v in values} - {int} or min(values, default=0) < 0:  # at C speed
            for j, v in enumerate(values):
                as_int(v, f"x[{j}]", 0)
        return values

    values = property(tuple)  # the entries as a plain tuple, as in FractionalVector


def normalize_width(inst: CpipInstance) -> CpipInstance:
    """Lower covering coefficients so no entry exceeds its row demand.

    Each A_ij becomes min(A_ij, a_i); rows with a_i = 0 are vacuous and
    removed outright (keeping them would force the width to 0); each
    finite d_j becomes floor(d_j), since integer x_j <= d_j iff
    x_j <= floor(d_j).  The set of integer solutions is unchanged.

    The rows are compared as integers (``int_rows``): a row with no entry
    above its demand is kept as the same tuple, and the result's
    ``int_rows`` are built from the input's, not read again.
    """
    A, a, rows = [], [], []
    for row, ai, (S, D) in zip(inst.A, inst.a, inst.int_rows):
        demand = S[-1]
        if demand <= 0:
            continue
        if max(S) > demand:  # min(A_ij, a_i), over the lcm of the new row's denominators
            row = tuple([v if s <= demand else ai for v, s in zip(row, S)])
            S = [min(s, demand) for s in S]
            g = gcd(D, *S)
            S, D = tuple([s // g for s in S]), D // g
        A.append(row)
        a.append(ai)
        rows.append((S, D))
    d = tuple([
        v if v is None or (type(v) is Fraction and v.denominator == 1) else Fraction(floor(v))
        for v in inst.d
    ])
    out = CpipInstance(A=tuple(A), a=tuple(a), B=inst.B, b=inst.b, c=inst.c, d=d)
    vars(out)["int_rows"] = (*rows, *inst.int_rows[inst.m :])  # where cached_property keeps it
    return out


def is_width_normalized(inst: CpipInstance) -> bool:
    """True iff every row is demanded, no entry exceeds its demand and d is integral.

    The rows are read as integers, whose last entry is the demand (``int_rows``).
    """
    return all(v is None or v.denominator == 1 for v in inst.d) and all(
        S[-1] > 0 and max(S) == S[-1] for S, _ in inst.int_rows[: inst.m]
    )


def number_out(v):
    """JSON form of an exact number: an int, or "p/q"; other values pass through."""
    if type(v) is not Fraction and not isinstance(v, Fraction):  # the ABC check last
        return v
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class ViolationReport:
    """Per-family constraint violations of a candidate integer solution.

    Multiplicity is reported against both contracts: the strict bound
    x <= d and the relaxed bound x <= ceil((1+eps) d).  Packing is checked
    against the slackened bound (1+eps) b + beta, where beta holds the row
    sums of B.
    """

    covering: tuple[tuple[int, Fraction], ...]
    packing_relaxed: tuple[tuple[int, Fraction], ...]
    multiplicity_strict: tuple[tuple[int, Fraction], ...]
    multiplicity_relaxed: tuple[tuple[int, Fraction], ...]

    @property
    def ok_bicriteria(self) -> bool:
        return not (self.covering or self.packing_relaxed or self.multiplicity_relaxed)

    @property
    def ok_strict(self) -> bool:
        return not (self.covering or self.packing_relaxed or self.multiplicity_strict)


@dataclass(frozen=True)
class SolveReport:
    """Everything a run learned: cost, lower bounds, ratios, checks, config echo."""

    mode: str
    cost: Fraction | None = None
    fopt: Fraction | None = None
    fopt_kc: Fraction | None = None
    opt: Fraction | None = None
    ratio_cost_fopt: float | None = None
    epsilon: Fraction | None = None
    K: int | None = None
    L: Fraction | None = None
    seed: int | None = None
    rng: str | None = None
    x: tuple[int, ...] | None = None
    violations: ViolationReport | None = None
    guarantees_ok: bool | None = None
    pinned: tuple[int, ...] | None = None
    pin_sets_seen: tuple[tuple[int, ...], ...] | None = None
    cut_rows_added: int | None = None
    lp_rounds: int | None = None
    oracle_bounds: tuple[int, ...] | None = None
    oracle_space: int | None = None
    status: str = "OPTIMAL"
    elapsed_s: float | None = None

    # not a field, so in no output: a failed certificate raises; perfbench/workloads.py reads it
    certificate_ok = True


def report_dict(report) -> dict:
    """The JSON object of any report dataclass, its fields in order.

    ``None`` fields are left out, ``L`` is a float, exact numbers go through
    ``number_out``, and tuples and nested reports become lists and objects.
    """
    return {
        f.name: float(v) if f.name == "L" else _json_value(v)
        for f in fields(report)
        if (v := getattr(report, f.name)) is not None
    }


def _json_value(v):
    if isinstance(v, tuple):
        return [_json_value(item) for item in v]
    if is_dataclass(v):
        return report_dict(v)
    return number_out(v)


def _load_json(doc: str):
    """Decode JSON with exact numbers; any undecodable document is a ParseError."""
    try:
        return json.loads(doc, parse_float=_rational)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long number, too deep a nesting
        raise ParseError(f"unreadable document: {exc}") from exc


def parse_instance(doc: str) -> CpipInstance:
    """Parse an instance document (see module docstring for the format).

    Each field is read by ``CpipInstance.from_data``; its ``InstanceError`` is a ``ParseError``.
    """
    raw = _load_json(doc)
    if not isinstance(raw, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(raw) - {"A", "a", "B", "b", "c", "d"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    for field in ("A", "a", "c"):
        if field not in raw:
            raise ParseError(f"missing required field {field!r}")
    try:
        if "d" not in raw:  # every variable unbounded, once c is read as a sequence
            raw["d"] = [None] * len(as_sequence(raw["c"], "c"))
        inst = CpipInstance.from_data(**raw)
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc
    if inst.m == 0:
        raise ParseError("field A must contain at least one covering row")
    return inst


def parse_solution(doc: str, n: int) -> IntegerVector:
    """Read a solution document ``{"x": [...]}`` exactly: n nonnegative integers.

    ``x`` is read by ``as_vector`` and ``IntegerVector``, and their errors are ``ParseError``.
    """
    n = as_int(n, "n", 0)
    raw = _load_json(doc)
    if not isinstance(raw, dict) or "x" not in raw:
        raise ParseError('a solution is an object with an "x" field')
    try:
        x = as_vector(raw["x"], "x", n)
        return IntegerVector([int(v) if v.denominator == 1 else v for v in x])
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(inst: CpipInstance) -> str:
    """Render an instance as a canonical document; exact round-trip."""
    obj = {
        "A": list(map(_numbers_out, inst.A)),
        "a": _numbers_out(inst.a),
        "c": _numbers_out(inst.c),
        "d": [number_out(v) for v in inst.d],
    }
    if inst.r > 0:
        obj["B"] = list(map(_numbers_out, inst.B))
        obj["b"] = _numbers_out(inst.b)
    return json.dumps(obj)


def _numbers_out(values) -> list:
    """``number_out`` of each entry, read by ``_parts``; all denominators 1: the numerators."""
    nums, dens = _parts(values, True)
    if set(dens) <= {1}:
        return nums
    return [p if q == 1 else f"{p}/{q}" for p, q in zip(nums, dens)]
