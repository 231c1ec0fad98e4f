"""REP006 fixture: a dead engine flag, absent from the flag matrix.

Lives under a ``marketplace/`` directory because REP006 scopes itself to
the marketplace package — engine speed flags are the ones bound by the
eight-way bit-identity matrix.
"""


class ToyEngine:
    def __init__(self, use_turbo_mode: bool = True) -> None:
        # Stored but never branched on, and `use_turbo_mode` appears in
        # no flag-matrix test: both halves of REP006 fire.
        self.use_turbo_mode = use_turbo_mode
