"""Ledger-backed planning: calibration re-ranks, counts never change.

The cost ledger may only ever change *which* exact method the planner
picks — every exact method returns the same count, so a ledger-backed
``method="auto"`` must stay bit-identical to every explicit method.
These tests pin that equivalence plus the calibration mechanics:
observed/predicted ratios flow from ``execute_plan`` back into the next
``rank()``, and a misleading prediction gets corrected by measurement.
"""

import pytest

from repro.core.counts import BicliqueQuery
from repro.graph.generators import power_law_bipartite, random_bipartite
from repro.graph.stats import graph_fingerprint
from repro.obs import CostLedger
from repro.plan import Planner, execute_plan
from repro.query import GraphSession

GRAPHS = {
    "random": random_bipartite(30, 25, 120, seed=3),
    "power-law": power_law_bipartite(40, 30, 200, seed=5),
}
QUERIES = [BicliqueQuery(2, 2), BicliqueQuery(3, 2), BicliqueQuery(2, 3)]


class TestCountsUnchanged:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_ledger_backed_auto_bit_identical_to_explicit(self,
                                                          graph_name):
        graph = GRAPHS[graph_name]
        bare = GraphSession(graph)
        led = GraphSession(graph, ledger=CostLedger())
        for query in QUERIES:
            for _ in range(2):    # second pass ranks with observations
                assert led.count(query, method="auto",
                                 backend="fast").count \
                    == bare.count(query, method="auto",
                                  backend="fast").count
            for method in ("Basic", "BCL", "BCLP", "GBL", "GBC"):
                explicit = led.count(query, method=method, backend="fast")
                auto = led.count(query, method="auto", backend="fast")
                assert auto.count == explicit.count, (graph_name, query,
                                                      method)


class TestCalibration:
    def test_execution_feeds_the_planner_ratio(self):
        graph = GRAPHS["random"]
        session = GraphSession(graph, ledger=CostLedger())
        query = QUERIES[0]
        session.count(query, method="auto", backend="fast")
        planner = Planner(graph, session=session,
                          ledger=session.ledger)
        ranked = planner.rank(query, backend="fast")
        calibrated = [p for p in ranked
                      if p.calibrated_seconds is not None]
        assert calibrated, "no candidate learned from the measured run"
        chosen = calibrated[0]
        assert chosen.observed_seconds is not None
        assert "ledger-calibrated" in chosen.reason

    def test_measured_costs_override_a_wrong_prediction(self):
        # plant history claiming GBC runs 1000x faster than predicted
        # and every rival 1000x slower: the calibrated ranking must put
        # GBC first regardless of what the static model says
        graph = GRAPHS["power-law"]
        query = BicliqueQuery(3, 2)
        fp = graph_fingerprint(graph)
        ledger = CostLedger()
        baseline = Planner(graph).rank(query, backend="fast")
        for plan in baseline:
            ratio = 1e-3 if plan.method == "GBC" else 1e3
            ledger.record(fp, query.p, query.q, plan.method, plan.backend,
                          plan.predicted_seconds * ratio,
                          predicted_seconds=plan.predicted_seconds)
        ranked = Planner(graph, ledger=ledger).rank(query, backend="fast")
        assert ranked[0].method == "GBC"
        assert ranked[0].calibrated_seconds == pytest.approx(
            ranked[0].predicted_seconds * 1e-3, rel=0.3)

    def test_predict_uses_the_calibrated_cost(self):
        graph = GRAPHS["random"]
        query = QUERIES[0]
        fp = graph_fingerprint(graph)
        bare = Planner(graph)
        raw = bare.predict(query, "GBC", backend="fast")
        ledger = CostLedger()
        ledger.record(fp, query.p, query.q, "GBC", "fast", raw * 10.0,
                      predicted_seconds=raw)
        assert Planner(graph, ledger=ledger).predict(
            query, "GBC", backend="fast") == pytest.approx(raw * 10.0,
                                                           rel=0.05)

    def test_explicit_plan_execution_records_without_a_ratio(self):
        # explicit plans carry no prediction: the cell exists (observed
        # seconds are still useful) but cannot calibrate anything
        graph = GRAPHS["random"]
        query = QUERIES[0]
        ledger = CostLedger()
        session = GraphSession(graph, ledger=ledger)
        session.count(query, method="GBC", backend="fast")
        cell = ledger.lookup(session.fingerprint, query.p, query.q,
                             "GBC", "fast")
        assert cell is not None
        assert cell.ratio is None

    def test_bclp_records_the_wait_not_its_model(self):
        # BCLP's headline is a modelled 16-thread makespan; the ledger
        # must learn what the caller waited, the currency BCLP's cost
        # hook predicts, or calibration would price it at the model
        graph = GRAPHS["power-law"]
        query = BicliqueQuery(3, 2)
        session = GraphSession(graph, ledger=CostLedger())
        result = session.count(query, method="BCLP", backend="fast")
        cell = session.ledger.lookup(session.fingerprint, query.p,
                                     query.q, "BCLP", "fast")
        waited = result.extras["measurement_wall_seconds"]
        assert result.wall_seconds < waited
        assert cell.last_observed >= waited
