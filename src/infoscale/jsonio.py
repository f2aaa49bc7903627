"""JSON file formats for distributions, observables, chains, interactions,
and model specifications.

Files are UTF-8.  Every error names its file: invalid JSON (with its line
and column), bytes that are not UTF-8, a field of the wrong type, a number
beyond the float range (a JSON integer such as 1 followed by 400 zeros), and
a value that the built object rejects.

A chain's ``rows`` are read one row at a time into one float64 matrix, so
a large chain never exists as a list of Python floats; a ``rows`` value that
is not a matrix of numbers parses as any other value does, so its checks
and their messages are the same.

This module imports only ``json``, ``pathlib``, ``typing`` and ``errors``.
Each loader imports the module that builds its object when it is called:
reading a distribution, a chain or an interaction loads numpy and its own
layer (a chain also ``array``), and reading a model specification loads
``exact_models`` but not numpy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DimensionError, NormalizationError, ParameterError, StructureError

if TYPE_CHECKING:
    from .divergences import DiscreteDistribution, Observable
    from .exact_models import ModelSpec
    from .gibbs import Interaction
    from .markov import TransitionMatrix


_scan_once = json.JSONDecoder().scan_once  # the stdlib's C scanner where it has one
_skip_space = json.decoder.WHITESPACE.match


def _load_json(path, scan_value=None) -> dict:
    """The top-level object of the UTF-8 JSON file ``path``.  ``scan_value``,
    if given, parses each of the object's values in place of ``_scan_once``
    (same signature: ``(text, idx) -> (value, end)``)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    try:
        start = _skip_space(text, 0).end()
        if scan_value is None or not text.startswith("{", start):
            data = json.loads(text)
        else:
            data, end = json.decoder.JSONObject((text, start + 1), True, scan_value, None, None)
            end = _skip_space(text, end).end()
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past the digit limit of int()
        raise ParameterError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"{path}: expected a JSON object at the top level")
    return data


def _scan_matrix(text: str, idx: int):
    """``_scan_once(text, idx)``, except that an array of equally long arrays
    of numbers (booleans are not numbers) becomes a float64 matrix,
    read one row at a time: each row is scanned to a list, checked and
    appended to one growing array of doubles, so no list of Python floats
    per entry is ever built.  Anything else, a row that does not scan or an
    entry beyond the float range, is left to ``_scan_once`` from ``idx``,
    which returns the same value or raises the same error as ``json.loads``."""
    if text.startswith("[", idx):
        from array import array

        values, rows, width = array("d"), 0, 0
        end = _skip_space(text, idx + 1).end()
        while text.startswith("[", end):
            try:
                row, end = _scan_once(text, end)
                ragged = rows and len(row) != width
                if ragged or not set(map(type, row)) <= {int, float}:
                    break
                values.extend(row)
            except (ValueError, OverflowError):
                break
            rows, width = rows + 1, len(row)
            end = _skip_space(text, end).end()
            if text.startswith("]", end):
                import numpy as np

                return np.frombuffer(values).reshape(rows, width), end + 1
            if not text.startswith(",", end):
                break
            end = _skip_space(text, end + 1).end()
    return _scan_once(text, idx)


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
    optional; the rows are read one at a time (:func:`_scan_matrix`)."""
    from .markov import TransitionMatrix

    data = _load_json(path, _scan_matrix)
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
