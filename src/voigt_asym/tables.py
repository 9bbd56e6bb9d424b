"""Frozen expected values for the two built-in regression tables.

Every cell here is an output this package must reproduce, stored at the
precision it is printed at by ``voigt-asym table1`` / ``table2``. None of
these numbers is an input to any computation: the table commands recompute
each cell from scratch and, under --check, diff the result against this
module at a tolerance of one unit in the last stored digit. The test suite
additionally recomputes each cell through the independent exact-remainder
routes, so a regression in either the expansions or the oracles shows up as
a mismatch against this file.

Cell layout, both tables: four value columns per row, ordered
(hat-K at the first angle, hat-L at the first angle,
 hat-K at the second angle, hat-L at the second angle) for table 1, and
(eq41 hat-K error, eq41 hat-L error, eq42 hat-K error, eq42 hat-L error)
for table 2. ``None`` marks a cell that is identically zero and printed as
a dash (hat-L vanishes on the x = 0 axis).
"""

from __future__ import annotations

import math

# --- table 1: remainder values at r = 3.5, m = 12 (alpha = 1/4) -----------
# first angle theta/pi = 0.1 evaluated with the non-uniform estimate (eq41),
# second angle theta/pi = 0.375 with the uniform estimate (eq42); rows are
# the number of retained correction terms, foot is the exact remainder
TABLE1_R = "3.5"
TABLE1_M = 12
TABLE1_SIG = 9
TABLE1_ANGLES = ("0.1", "0.375")

TABLE1_ROWS = {
    # k_terms: (Khat@0.1, Lhat@0.1, Khat@0.375, Lhat@0.375)
    1: ("+1.77219153e-7", "+5.45424470e-7", "-1.30341265e-6", "-7.12131744e-8"),
    2: ("+1.73069912e-7", "+5.51113801e-7", "-1.30412205e-6", "-7.19080750e-8"),
    3: ("+1.73151197e-7", "+5.50673634e-7", "-1.30410921e-6", "-7.18533969e-8"),
    4: ("+1.73163893e-7", "+5.50694322e-7", "-1.30410846e-6", "-7.18527877e-8"),
    5: ("+1.73161147e-7", "+5.50694282e-7", "-1.30410848e-6", "-7.18528623e-8"),
}

# exact remainders (recomputable via oracle.remainder_exact)
TABLE1_FOOT = ("+1.73161445e-7", "+5.50694067e-7", "-1.30410848e-6", "-7.18528635e-8")

# --- table 2: relative errors of both estimates at r = 6, m = 36 ----------
# alpha = 1/2, three correction terms retained in each estimate
TABLE2_R = "6"
TABLE2_M = 36
TABLE2_K_TERMS = 3
TABLE2_SIG = 4
TABLE2_ANGLES = ("0", "0.10", "0.20", "0.30", "0.40", "0.45", "0.48")

TABLE2_ROWS = {
    # theta/pi: (eq41 K, eq41 L, eq42 K, eq42 L) relative errors
    "0":    ("1.107e-6", None,       "5.785e-7", None),
    "0.10": ("1.331e-6", "2.861e-6", "4.063e-8", "4.523e-7"),
    "0.20": ("1.782e-5", "6.846e-6", "3.325e-7", "9.146e-8"),
    "0.30": ("2.274e-4", "3.882e-5", "2.082e-7", "9.980e-9"),
    "0.40": ("1.282e-3", "6.554e-3", "2.215e-8", "3.897e-8"),
    "0.45": ("3.111e-1", "1.298e-1", "5.132e-8", "5.343e-9"),
    "0.48": ("5.120e0",  "1.434e1",  "4.116e-8", "1.647e-9"),
}


def tolerance_last_digit(value_str: str, sig: int) -> float:
    """One unit in the last of ``sig`` printed significant digits."""
    v = abs(float(value_str))
    if v == 0:
        raise ValueError("tolerance undefined for a zero cell")
    return 10.0 ** (math.floor(math.log10(v)) - (sig - 1))
