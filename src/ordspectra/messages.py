"""Frozen user-facing availability messages.

These strings are part of the external contract (tests assert byte
equality); never edit them without bumping the interface version.
"""

LEVEL_ONLY_2 = "This quality level is not available. Please set the quality level to 2."

LEVEL_1_OR_2 = "This quality level is not available. Please set the quality level to 1 or 2."

LEVEL_1_2_OR_3 = "This quality level is not available. Please set the quality level to 1, 2 or 3."

COMBO_A = (
    "This combination of quality levels is not available. "
    "Please set the quality levels to (2,1), (2,2) or (2,3)."
)

COMBO_BC = (
    "This combination of quality levels is not available. "
    "Please set the quality levels to (1,1), (1,2), (2,1) or (2,2)."
)

COMBO_D = (
    "This combination of quality levels is not available. "
    "Please set the quality levels to (1,1), (1,2), (1,3), (2,1), (2,2) or (2,3)."
)

#: the refusal of a level outside each tuple of accepted levels
LEVELS = {(2,): LEVEL_ONLY_2, (1, 2): LEVEL_1_OR_2, (1, 2, 3): LEVEL_1_2_OR_3}

#: the refusal of a pair outside each (omega levels, omicron levels) product
COMBOS = {((2,), (1, 2, 3)): COMBO_A, ((1, 2), (1, 2)): COMBO_BC,
          ((1, 2), (1, 2, 3)): COMBO_D}

TYPE_1_2_3_OR_4 = "This type is not available. Please set the type to 1, 2, 3 or 4."
