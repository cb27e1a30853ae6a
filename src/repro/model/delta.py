"""Former home of the incremental move evaluator, kept as an empty name.

Local search scores whole neighbourhoods with one batched kernel call
(:mod:`repro.baselines.local_search`), so nothing evaluates single moves any
more.  perfbench (``perfbench/tracing.py``) still looks up
``DeltaEvaluator.preview`` here by name; no program code calls it.
"""


class DeltaEvaluator:
    """Placeholder for perfbench's tracing hook; never instantiated."""

    def preview(self, move):
        raise NotImplementedError("local search scores moves with repro.model.batch")
