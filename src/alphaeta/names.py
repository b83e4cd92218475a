"""The names the CLI offers as choices, in a module that needs only the standard library.

cipher, receivers and keyrate import their tables from here, so each list of
names (and the largest M of the ciphertext body) is defined once and the CLI
can check its flags without loading numpy or any engine.
"""

MAX_M = 1 << 15  # the 2M point indices of the ciphertext body must fit a u16

MAPPINGS = ("alternating", "plain")

# receiver kinds, in the order of receivers.BER_LAWS
RECEIVER_KINDS = ("optimal", "phase", "homodyne", "heterodyne")

# Eve strategy -> the receiver kind whose law she reaches once the basis is
# revealed: a deferred strategy stores its continuous outcome and loses nothing
# by deciding later.  None: she never learns the basis ("nearest-point" snaps a
# phase outcome to the closest of all 2M points).  "none" (no eavesdropper) is
# not a strategy.
EVE_STRATEGIES = {
    "phase-deferred": "phase",
    "heterodyne-deferred": "heterodyne",
    "nearest-point": None,
}

# the strategies with a closed-form BER: those that learn the basis afterwards
KEYRATE_EVE_STRATEGIES = tuple(name for name, kind in EVE_STRATEGIES.items() if kind)
