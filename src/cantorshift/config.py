"""Map-file parsing and the budget overrides from the environment.

Map configuration is a JSON document:

    {
      "coefficients": [["-6", "0"], ["0", "0"], ["1", "0"]],
      "disk_center": ["0", "0"],
      "disk_radius": "4",
      "horizon": 20
    }

Coefficients are [real, imaginary] decimal strings in ascending powers,
monic leading coefficient required.  ``disk_radius`` may be "auto", which
selects the escape radius of the polynomial.  Budget overrides can come
from the environment: CANTORSHIFT_MAX_BOXES and CANTORSHIFT_MAX_RESOLUTION.
"""

from __future__ import annotations

import json
import os

from .maps import DomainDisk, PolynomialMap, escape_radius, parse_exact

ENV_MAX_BOXES = "CANTORSHIFT_MAX_BOXES"
ENV_MAX_RESOLUTION = "CANTORSHIFT_MAX_RESOLUTION"


def env_budget_overrides():
    """(max_boxes, max_resolution) overrides from the environment, if set."""
    boxes = os.environ.get(ENV_MAX_BOXES)
    res = os.environ.get(ENV_MAX_RESOLUTION)
    return (int(boxes) if boxes else None, int(res) if res else None)


def _is_pair(value):
    return isinstance(value, list) and len(value) == 2


def load_map_config(path: str):
    """Read a map configuration file.

    Returns (PolynomialMap, DomainDisk, horizon, shrink) where ``shrink``
    is the optional radius factor (exact decimal in (0, 1), or None) to
    apply once when the domain boundary touches the preimage closure.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a map config must be a JSON object")
    try:
        coeffs = data["coefficients"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing 'coefficients'") from exc
    if not isinstance(coeffs, list) or not all(map(_is_pair, coeffs)):
        raise ValueError(f"{path}: 'coefficients' must be a list of [re, im] pairs")
    pmap = PolynomialMap(coeffs)
    center = data.get("disk_center", ["0", "0"])
    if not _is_pair(center):
        raise ValueError(f"{path}: 'disk_center' must be an [re, im] pair")
    radius = data.get("disk_radius", "auto")
    if radius == "auto":
        disk = DomainDisk(center, escape_radius(pmap))
    else:
        disk = DomainDisk(center, radius)
    horizon = data.get("horizon", 20)
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ValueError(f"{path}: 'horizon' must be an integer")
    if horizon <= 0:
        raise ValueError(f"{path}: horizon must be positive")
    shrink = data.get("shrink_on_contact")
    if shrink is not None:
        shrink = parse_exact(shrink)
        if not 0 < shrink < 1:
            raise ValueError(f"{path}: shrink_on_contact must be in (0, 1)")
    return pmap, disk, horizon, shrink
