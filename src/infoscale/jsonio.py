"""JSON file formats for distributions, observables, chains, interactions,
and model specifications.

Files are UTF-8.  Every error names its file: invalid JSON (with its line
and column), bytes that are not UTF-8, a field of the wrong type, a number
beyond the float range (a JSON integer such as 1 followed by 400 zeros), and
a value that the built object rejects.

A file is read in pieces of ``_CHUNK`` characters and parsed as it is
read, by the stdlib's C scanner, so it is never held whole, neither as
bytes nor as text.  A chain's ``rows`` go straight into one preallocated
n x n float64 matrix, one row at a time, so a large chain never exists as
a list of Python floats.  Input that the streamed reader does not take (a
``rows`` value that is not a square matrix of numbers, a byte-order mark,
a duplicate key, invalid JSON, trailing data, bytes that are not UTF-8)
is parsed again from the whole file by ``json.loads``, so its value, its
checks and their messages are the same.

This module imports only ``json``, ``pathlib``, ``typing`` and ``errors``.
Each loader imports the module that builds its object when it is called:
reading a distribution, a chain or an interaction loads numpy and its own
layer, and reading a model specification loads ``exact_models`` but not
numpy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DimensionError, NormalizationError, ParameterError, StructureError

if TYPE_CHECKING:
    import numpy as np

    from .divergences import DiscreteDistribution, Observable
    from .exact_models import ModelSpec
    from .gibbs import Interaction
    from .markov import TransitionMatrix


_CHUNK = 1 << 16  # characters read from a file at a time
_scan_once = json.JSONDecoder().scan_once  # the stdlib's C scanner where it has one
_skip_space = json.decoder.WHITESPACE.match


class _Fallback(Exception):
    """Input that the streamed reader does not take: the whole-file parse decides."""


class _Stream:
    """An open text file parsed as it is read: ``text[pos:]`` is read and not
    yet parsed, and each read drops what is parsed."""

    def __init__(self, file):
        self.file, self.text, self.pos = file, "", 0

    def _more(self) -> bool:
        """Read on; False at the end of the file.  A piece is ``_CHUNK``
        characters, or as long as the unparsed text where that is longer, so
        the rescans of a value longer than a piece cost O(its length) in all."""
        piece = self.file.read(max(_CHUNK, len(self.text) - self.pos))
        if not piece:
            return False
        self.text, self.pos = self.text[self.pos:] + piece, 0
        return True

    def peek(self) -> str:
        """The next character after whitespace, "" at the end of the file."""
        while True:
            self.pos = _skip_space(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos:self.pos + 1]

    def take(self, char: str) -> bool:
        """Whether ``char`` comes next after whitespace; if so, it is read."""
        if self.peek() != char:
            return False
        self.pos += 1
        return True

    def expect(self, char: str) -> None:
        if not self.take(char):
            raise _Fallback

    def value(self):
        """The JSON value after whitespace.  One that ends where the read
        text ends may go on (a number cut mid-digit), so it counts only at the
        end of the file; one that does not scan is read on, and at the end of
        the file left to the whole-file parse."""
        self.peek()
        while True:
            try:
                value, end = _scan_once(self.text, self.pos)
            except (StopIteration, json.JSONDecodeError):
                if not self._more():
                    raise _Fallback from None
                continue
            if end < len(self.text) or not self._more():
                self.pos = end
                return value


def _read_matrix(stream: _Stream) -> np.ndarray:
    """A JSON array of n > 0 arrays of n numbers (booleans are not numbers),
    read one row at a time into one preallocated float64 matrix, which is
    returned read-only; any other value raises ``_Fallback``."""
    import numpy as np

    def numbers() -> list:
        """The next row: a nonempty JSON array of numbers."""
        if stream.peek() != "[":
            raise _Fallback
        row = stream.value()
        if not row or not set(map(type, row)) <= {int, float}:
            raise _Fallback
        return row

    stream.expect("[")
    row = numbers()
    try:
        matrix = np.empty((len(row), len(row)))
    except MemoryError:  # a long first row of a file that is not square
        raise _Fallback from None
    for i in range(len(matrix)):
        if i:
            stream.expect(",")
            row = numbers()
            if len(row) != len(matrix):
                raise _Fallback
        matrix[i] = row  # OverflowError past the float range
    stream.expect("]")
    matrix.setflags(write=False)
    return matrix


def _read_object(stream: _Stream, matrix: str | None) -> dict:
    """The file's top-level object, its field ``matrix`` by :func:`_read_matrix`;
    anything but one object with distinct keys raises ``_Fallback``."""
    stream.expect("{")
    data = {}
    if not stream.take("}"):
        while True:
            if stream.peek() != '"':
                raise _Fallback
            key = stream.value()
            if key in data:
                raise _Fallback
            stream.expect(":")
            data[key] = _read_matrix(stream) if key == matrix else stream.value()
            if stream.take("}"):
                break
            stream.expect(",")
    if stream.peek():
        raise _Fallback
    return data


def _load_json(path, matrix: str | None = None) -> dict:
    """The top-level object of the UTF-8 JSON file ``path``, streamed; the
    field named ``matrix``, if given, is read as a square float64 matrix.
    Input the streamed reader does not take is parsed whole by
    ``json.loads``, which gives the same value or raises the error (naming
    the file, and the line and column of invalid JSON)."""
    try:
        with open(path, encoding="utf-8") as file:
            return _read_object(_Stream(file), matrix)
    except (_Fallback, ValueError, OverflowError):  # also bytes that are not UTF-8
        pass
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past the digit limit of int()
        raise ParameterError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"{path}: expected a JSON object at the top level")
    return data


def _require(data: dict, field: str, path) -> object:
    if field not in data:
        raise ParameterError(f"{path}: missing required field {field!r}")
    return data[field]


def _has_boolean(value) -> bool:
    """Whether a JSON boolean sits in ``value``, a number or nested lists of them."""
    if not isinstance(value, list):
        return isinstance(value, bool)
    types = set(map(type, value))
    return bool in types or (list in types and any(map(_has_boolean, value)))


def _numbers(path, field: str, make, data: dict, **kwargs):
    """``make(data[field], **kwargs)``; a non-numeric field, or a value the
    constructor rejects (weights that do not sum to 1, a reducible chain),
    names its file."""
    value = _require(data, field, path)
    try:
        if _has_boolean(value):
            raise TypeError("a JSON boolean is not a number")
        return make(value, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{path}: field {field!r} must hold numbers: {exc}") from exc
    except (NormalizationError, DimensionError, StructureError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _reject_unknown(data: dict, known: tuple[str, ...], where: str) -> None:
    """A key outside ``known`` is a typo that would silently run a default."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ParameterError(f"{where}: unknown field(s) {', '.join(map(repr, unknown))}")


def _float(value) -> float:
    """``float(value)``, except that a JSON boolean is not a number."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """``value`` as an int; a fraction or a non-finite number raises ValueError."""
    if not _float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def load_distribution(path, *, renormalize: bool = False) -> DiscreteDistribution:
    """Read ``{"weights": [...]}``."""
    from .divergences import DiscreteDistribution

    data = _load_json(path)
    _reject_unknown(data, ("weights",), str(path))
    return _numbers(path, "weights", DiscreteDistribution, data, renormalize=renormalize)


def load_observable(path) -> Observable:
    """Read ``{"values": [...]}``."""
    from .divergences import Observable

    data = _load_json(path)
    _reject_unknown(data, ("values",), str(path))
    return _numbers(path, "values", Observable, data)


def load_chain(path) -> TransitionMatrix:
    """Read ``{"rows": [[...], ...], "labels": [...]}``, labels (strings or numbers)
    optional; the rows are read one at a time into the chain's matrix."""
    from .markov import TransitionMatrix

    data = _load_json(path, "rows")
    _reject_unknown(data, ("rows", "labels"), str(path))
    labels = data.get("labels", [])
    if not (isinstance(labels, list) and all(type(x) in (str, int, float) for x in labels)):
        raise ParameterError(f"{path}: field 'labels' must be a list of strings or numbers")
    return _numbers(path, "rows", TransitionMatrix, data, labels=data.get("labels"))


def load_interaction(path) -> Interaction:
    """Read an interaction specification.

    Format: ``{"d": 1, "clusters": [{"offsets": [[0], [1]],
    "type": "pair_product", "coeff": -0.5}, ...]}``.  Cluster types
    ``pair_product``, ``field``, and ``product`` all denote
    coefficient-times-product-of-spins couplings; coefficients include the
    inverse temperature and must be finite.  Optional ``"spins"`` overrides
    the default states (-1, +1) with two or more finite states.  Every error
    names the file.
    """
    from .gibbs import Interaction, SpinCluster, spin_product_cluster

    data = _load_json(path)
    _reject_unknown(data, ("d", "spins", "clusters"), str(path))
    try:
        dimension = _integer(_require(data, "d", path))
        spins = tuple(_float(s) for s in data.get("spins", (-1.0, 1.0)))
        clusters: list[SpinCluster] = []
        for i, spec in enumerate(_require(data, "clusters", path)):
            if not isinstance(spec, dict):
                raise ParameterError(f"{path}: cluster {i} must be a JSON object")
            _reject_unknown(spec, ("offsets", "type", "coeff"), f"{path}: cluster {i}")
            kind = spec.get("type", "product")
            if kind not in ("product", "pair_product", "field"):
                raise ParameterError(f"{path}: cluster {i} has unknown type {kind!r}")
            if "offsets" not in spec or "coeff" not in spec:
                raise ParameterError(f"{path}: cluster {i} needs 'offsets' and 'coeff'")
            try:
                offsets = [[_float(v) for v in offset] for offset in spec["offsets"]]
                clusters.append(spin_product_cluster(offsets, _float(spec["coeff"])))
            except (ParameterError, DimensionError) as exc:
                raise type(exc)(f"{path}: cluster {i}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{path}: malformed interaction field: {exc}") from exc
    try:
        return Interaction(dimension=dimension, clusters=tuple(clusters), spin_states=spins)
    except (ParameterError, DimensionError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


_MODEL_FIELDS = {
    "ising1d": ("kind", "beta", "J", "h"),
    "ising2d": ("kind", "beta", "J", "branch"),
    "meanfield": ("kind", "beta", "J", "h", "d", "branch"),
}


def model_from_dict(data: dict, source: str = "<model>") -> ModelSpec:
    """The model that a spec such as ``{"kind": "meanfield", "beta": 1.0, "J": 2.0}``
    names.  ``beta`` is required; the other fields default as in the
    parameter classes."""
    from .exact_models import Ising1DParams, Ising2DParams, MeanFieldParams

    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_FIELDS:
        raise ParameterError(
            f"{source}: model kind must be 'ising1d', 'ising2d' or 'meanfield', got {kind!r}"
        )
    _reject_unknown(data, _MODEL_FIELDS[kind], f"{source}: {kind} model")
    try:
        if kind == "ising1d":
            return Ising1DParams(
                beta=_float(data["beta"]), J=_float(data.get("J", 1.0)),
                h=_float(data.get("h", 0.0)),
            )
        if kind == "ising2d":
            return Ising2DParams(
                beta=_float(data["beta"]), J=_float(data.get("J", 1.0)),
                branch=data.get("branch", "plus"),
            )
        return MeanFieldParams(
            beta=_float(data["beta"]), J=_float(data.get("J", 1.0)),
            h=_float(data.get("h", 0.0)), d=_integer(data.get("d", 1)),
            branch=data.get("branch", "upper"),
        )
    except KeyError as exc:
        raise ParameterError(f"{source}: missing model field {exc}") from exc
    except ParameterError as exc:
        raise ParameterError(f"{source}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{source}: malformed model field: {exc}") from exc


def load_model(path) -> ModelSpec:
    """Read a model spec like ``{"kind": "ising1d", "beta": 1.0, "J": 1.0, "h": 0.0}``."""
    return model_from_dict(_load_json(path), source=str(path))
