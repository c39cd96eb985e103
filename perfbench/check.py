"""Output check of one run's raw per-decision CSV.

At the default seed the CSV must match the pinned sha256.  At any seed it
must hold one row per decision, finite values, non-negative instantaneous
regret, zero regret for `oracle_best`, and click-through rates in [0, 1].
"""

import csv
import hashlib
import math

NUMERIC = {"reward", "inst_regret", "cum_regret", "ma_reward_100", "cum_ctr"}


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def invariant_errors(path, expected_rows):
    """Reasons the CSV at `path` breaks the invariants; empty when it holds."""
    errors = []
    rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in enumerate(csv.DictReader(fh), start=2):
            rows += 1
            try:
                values = {k: float(row[k]) for k in NUMERIC if k in row}
            except (TypeError, ValueError):
                errors.append(f"line {line}: value is not a number")
                continue
            if not all(math.isfinite(v) for v in values.values()):
                errors.append(f"line {line}: non-finite value")
            elif values.get("inst_regret", 0.0) < 0.0:
                errors.append(f"line {line}: negative inst_regret")
            elif row["agent"] == "oracle_best" and values["inst_regret"] != 0.0:
                errors.append(f"line {line}: oracle_best has regret")
            elif not 0.0 <= values.get("cum_ctr", 0.0) <= 1.0:
                errors.append(f"line {line}: cum_ctr outside [0, 1]")
            if len(errors) >= 5:
                break
    if not errors and rows != expected_rows:
        errors.append(f"{rows} rows, expected {expected_rows}")
    return errors


def check_raw_csv(path, expected_rows, pinned=None):
    """(sha256, errors) of the run's raw CSV.

    `pinned` is the digest the CSV must have, or None where no digest is
    pinned for this seed.
    """
    digest = sha256_file(path)
    errors = invariant_errors(path, expected_rows)
    if pinned is not None and digest != pinned:
        errors.append(f"sha256 {digest} differs from pinned {pinned}")
    return digest, errors
