import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    accepted_batches,
    bruteforce_atoms,
    reference_honest_atom_counts,
    reference_portfolio_blocks,
    reference_portfolio_selection,
    reference_sq_verifier,
    reference_stale_atom_counts,
    true_atom_probs,
)

from pacverify import sq
from pacverify.core import DiscreteDistribution, child_rng
from pacverify.harness import ProtocolViolation, run_interaction
from pacverify.sq import (
    AtomSwapSqProver,
    HonestSqProver,
    PortfolioAlgorithm,
    Query,
    QueryBatch,
    SqAlgorithm,
    SqProtocolConfig,
    StaleSqProver,
    atoms_of,
    induced_evaluations,
    iteration_count,
    make_sq_prover,
    make_sq_verifier,
    portfolio_baseline,
    portfolio_holdout_loss,
    portfolio_population_loss,
    simulate_algorithm,
    simulation_sample_cost,
    sq_gap_sweep,
    verifier_iteration,
    zipf_distribution,
)


def portfolio_verifier(dist, cfg, N, n, num_blocks=None):
    return make_sq_verifier(dist, PortfolioAlgorithm(N, n, num_blocks), cfg, portfolio_holdout_loss)


def batch_from_rows(rows):
    return QueryBatch(tuple(Query(np.array(r, dtype=np.int8)) for r in rows))


class TestAtoms:
    def test_single_nonconstant_query_two_atoms(self):
        assert atoms_of(batch_from_rows([[1, 0, 1]])).size == 2

    def test_constant_query_one_atom(self):
        assert atoms_of(batch_from_rows([[1, 1, 1]])).size == 1

    def test_two_overlapping_queries_four_atoms(self):
        # domain {0,1,2,3}: 1_{0,1} and 1_{1,2} separate every element
        ap = atoms_of(batch_from_rows([[1, 1, 0, 0], [0, 1, 1, 0]]))
        assert ap.size == 4
        assert len(set(ap.signature)) == 4

    @given(st.integers(1, 5), st.integers(2, 16), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce_and_bounds(self, n_queries, domain, seed):
        rng = child_rng(seed)
        mat = rng.integers(0, 2, size=(n_queries, domain))
        ap = atoms_of(batch_from_rows(mat))
        assert ap.size == bruteforce_atoms(mat)
        assert ap.size <= min(2 ** n_queries, domain)

    @given(st.integers(1, 4), st.integers(2, 12), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_refinement_monotone(self, n_queries, domain, seed):
        rng = child_rng(seed)
        mat = rng.integers(0, 2, size=(n_queries + 1, domain))
        assert atoms_of(batch_from_rows(mat)).size >= atoms_of(batch_from_rows(mat[:-1])).size


class TestQueryBatch:
    """A batch is an immutable value: validated, copied and stacked once."""

    @pytest.mark.parametrize("build", [
        lambda: Query([0.5, 1.0]),                   # truncates to [0 1] under an int8 cast
        lambda: Query(np.array([256, 1])),           # wraps to [0 1]
        lambda: Query(np.array([257, 0])),           # wraps to [1 0]
        lambda: Query([[0, 1], [1]]),                # ragged
        lambda: Query(np.array([[0, 1], [1, 0]])),   # 2-D
        lambda: QueryBatch(()),                      # empty batch
    ], ids=["half", "256", "257", "ragged", "2d", "empty-batch"])
    def test_malformed_table_or_batch_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_batch_copies_its_input(self):
        rows = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.int8)
        sources = [row.copy() for row in rows]
        batch = QueryBatch(tuple(Query(row) for row in sources))
        signature = atoms_of(batch).signature.copy()
        for row in sources:
            row[:] = 1 - row
        assert np.array_equal(batch.matrix(), rows)
        assert np.array_equal([q.values for q in batch.queries], rows)
        assert np.array_equal(atoms_of(batch).signature, signature)
        assert batch.key == batch_from_rows(rows).key

    def test_equality_and_hash_go_by_identity(self):
        a, b = batch_from_rows([[1, 0, 1]]), batch_from_rows([[1, 0, 1]])
        assert a == a and a != b and a.key == b.key
        assert a.queries[0] == a.queries[0] and a.queries[0] != b.queries[0]
        assert len({a, b, a, *a.queries, *b.queries}) == 4

    def test_matrix_is_read_only_and_built_once(self):
        batch = batch_from_rows([[1, 0, 1], [0, 1, 1]])
        m = batch.matrix()
        assert m is batch.matrix()
        assert m.dtype == np.int8 and m.shape == (2, 3)
        with pytest.raises(ValueError):
            m[0, 0] = 0
        with pytest.raises(ValueError):
            batch.queries[0].values[0] = 0


class TestInducedEvaluations:
    def test_union_of_atoms_adds_masses(self):
        # three singleton atoms with masses .5/.3/.2; query 0 covers two of them
        batch = batch_from_rows([[1, 0, 1], [0, 1, 1]])
        ap = atoms_of(batch)
        assert ap.size == 3
        atom_masses = np.zeros(3)
        atom_masses[ap.signature] = [0.5, 0.3, 0.2]
        v = induced_evaluations(ap, atom_masses)
        assert v[0] == pytest.approx(0.7)
        assert v[1] == pytest.approx(0.5)

    def test_full_domain_query_is_one(self):
        batch = batch_from_rows([[1, 1, 1], [1, 0, 0]])
        ap = atoms_of(batch)
        p = np.array([0.4, 0.6]) if ap.size == 2 else np.full(ap.size, 1 / ap.size)
        v = induced_evaluations(ap, p)
        assert v[0] == pytest.approx(1.0)

    @given(st.integers(1, 5), st.integers(2, 32), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_exact_masses_reproduce_exact_expectations(self, n_queries, domain, seed):
        rng = child_rng(seed)
        mat = rng.integers(0, 2, size=(n_queries, domain))
        probs = rng.random(domain)
        probs /= probs.sum()
        dist = DiscreteDistribution(probs)
        batch = batch_from_rows(mat)
        ap = atoms_of(batch)
        v = induced_evaluations(ap, true_atom_probs(ap, dist))
        exact = mat.astype(float) @ probs
        assert np.abs(v - exact).max() <= 1e-12


class TestHonestProverEstimates:
    def test_sample_inside_one_atom(self):
        ap = atoms_of(batch_from_rows([[1, 0, 0], [0, 1, 0]]))
        counts = ap.atom_counts(np.array([10, 0, 0]))
        expected = np.zeros(ap.size)
        expected[ap.signature[0]] = 10
        assert (counts == expected).all()

    def test_counts_to_frequencies(self):
        ap = atoms_of(batch_from_rows([[1, 1, 0, 0], [0, 1, 1, 0]]))
        counts = ap.atom_counts(np.array([5, 3, 2, 0]))
        assert counts.sum() == 10
        assert sorted(counts / 10, reverse=True)[:3] == [0.5, 0.3, 0.2]

    def test_large_sample_concentrates(self):
        dist = zipf_distribution(32)
        cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=8)
        ap = atoms_of(PortfolioAlgorithm(32, 4, num_blocks=8).batch)
        true_p = true_atom_probs(ap, dist)
        worst = 0.0
        for i in range(30):
            prover = HonestSqProver(dist, cfg)
            reply = prover.respond({"atoms": ap.signature.tolist()}, child_rng(13, i))
            claimed = np.array(reply["counts"]) / cfg.m_p
            worst = max(worst, float(np.abs(claimed - true_p).sum()))
        # comfortably inside the inner test radius tau/(2 sqrt s)
        assert worst <= cfg.tau / (2 * np.sqrt(cfg.s))


class TestWireFormat:
    """Verifier messages carry the atom partition; provers aggregate over it."""

    @given(st.integers(1, 6), st.integers(1, 40), st.sampled_from([0.05, 0.07, 0.3]),
           st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_replies_match_query_matrix_references(self, n_queries, domain, tau, seed):
        rng = child_rng(seed)
        mat = rng.integers(0, 2, size=(n_queries, domain))
        probs = rng.random(domain) + 1e-3
        dist = DiscreteDistribution(probs / probs.sum())
        cfg = SqProtocolConfig.default(tau=tau, epsilon=0.1, delta=0.2, s=64)
        payload = {"atoms": atoms_of(batch_from_rows(mat)).signature.tolist()}

        honest = HonestSqProver(dist, cfg).respond(payload, child_rng(seed, 1))
        element_counts = child_rng(seed, 1).multinomial(cfg.m_p, dist.probs)
        assert honest == {"counts": reference_honest_atom_counts(mat, element_counts).tolist(),
                          "denominator": cfg.m_p}

        stale = StaleSqProver(dist, cfg).respond(payload, child_rng(seed, 2))
        assert stale == {"counts": reference_stale_atom_counts(mat, cfg.m_p).tolist(),
                         "denominator": cfg.m_p}

    def test_transcript_verifier_lines_carry_the_partition(self):
        dist = zipf_distribution(16)
        cfg = SqProtocolConfig.default(tau=0.1, epsilon=0.2, delta=0.2, s=8)
        signature = atoms_of(PortfolioAlgorithm(16, 2, num_blocks=8).batch).signature
        t = run_interaction(portfolio_verifier(dist, cfg, 16, 2, 8), HonestSqProver(dist, cfg), 5)
        lines = t.to_jsonl().splitlines()
        docs = [json.loads(line) for line in lines]
        payloads = [doc["payload"] for doc in docs if doc.get("sender") == "verifier"]
        assert [p["iteration"] for p in payloads] == list(range(cfg.T))
        for payload in payloads:
            assert set(payload) == {"iteration", "batch", "atoms"}
            assert payload["batch"] == 1
            assert len(payload["atoms"]) == 16
            assert all(type(a) is int for a in payload["atoms"])
            assert payload["atoms"] == signature.tolist()


class TestAmplification:
    def test_iteration_count_example(self):
        assert iteration_count(0.1, 0.2) == 240

    def test_failure_bound_example(self):
        # T tries at per-try success epsilon/8 all miss with probability <= delta/4
        T = iteration_count(0.1, 0.2)
        bound = (1.0 - 0.1 / 8.0) ** T
        assert bound == pytest.approx(0.0494, abs=5e-3)
        assert bound <= 0.2 / 4.0


class TestConfig:
    @pytest.mark.parametrize("s,budgets", [(1, (9_587, 1_973, 6_400)),
                                           (16, (38_346, 1_973, 1_638_400)),
                                           (256, (153_382, 1_973, 419_430_400))])
    def test_derived_budgets_pinned(self, s, budgets):
        # every SQ report at these parameters reads these budgets
        cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=s)
        assert (cfg.m_v, cfg.m_v_holdout, cfg.m_p) == budgets
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, m_p=1)

    @pytest.mark.parametrize("constants", [{"c_v": 0.0}, {"c_p": 0.0}, {"c_p": -1.0}])
    def test_nonpositive_constant_refused(self, constants):
        with pytest.raises(ValueError):
            SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=16, **constants)

    @pytest.mark.parametrize("name,value", [("tau", 1.5), ("tau", 0.0), ("tau", float("nan")),
                                            ("epsilon", -0.1), ("epsilon", 1.0),
                                            ("delta", 1.5), ("delta", 0.0)])
    def test_out_of_unit_range_refused(self, name, value):
        # tau is the tester's outer radius, and 1 - epsilon * delta / (4b) its confidence
        params = {"tau": 0.05, "epsilon": 0.1, "delta": 0.2} | {name: value}
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            SqProtocolConfig.default(s=16, **params)

    def test_budget_of_two_to_the_53_refused(self):
        # here m_p would be 2**53, where parse_counts' float64 read rounds a claimed
        # count of 2**53 + 1 down to 2**53; below it, every rounded count exceeds m_p
        with pytest.raises(OverflowError, match=r"below 2\*\*53"):
            SqProtocolConfig.default(tau=0.5, epsilon=0.5, delta=0.5, s=1, c_p=2.0**51)


class TestZipfDistribution:
    def test_extreme_exponents_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # k**a underflows to 0 from k = 2 on, so the normalised weights are NaN
            with pytest.raises(ValueError):
                zipf_distribution(64, a=-1000)
            # k**a overflows from k = 3 on, leaving those items weight 0
            dist = zipf_distribution(64, a=1000)
            assert dist.probs[0] == 1.0 and not dist.probs[2:].any()


class TestPortfolioAlgorithm:
    def test_point_mass_selects_the_item(self):
        dist = DiscreteDistribution([1.0, 0.0, 0.0, 0.0])
        alg = PortfolioAlgorithm(4, 1, num_blocks=4)
        sel = simulate_algorithm(alg, dist, child_rng(0))
        assert sel == [0]
        assert portfolio_population_loss(sel, dist) == pytest.approx(0.0)

    def test_uniform_loss_matches_symmetry(self):
        dist = DiscreteDistribution.uniform(64)
        alg = PortfolioAlgorithm(64, 8)
        sel = simulate_algorithm(alg, dist, child_rng(0))
        assert portfolio_population_loss(sel, dist) == pytest.approx(1 - 8 / 64)

    def test_batch_cap_raises(self):
        class EndlessAlgorithm(SqAlgorithm):
            batch = batch_from_rows([[1, 0, 0, 0]])
            steps = 0

            def reset(self, rng):
                pass

            def step(self, evaluations):
                self.steps += 1
                return ("batch", self.batch)

        alg = EndlessAlgorithm()
        with pytest.raises(RuntimeError, match="batch cap"):
            simulate_algorithm(alg, DiscreteDistribution.uniform(4), child_rng(0))
        assert alg.steps == sq.MAX_BATCHES + 1

    def test_requires_headroom(self):
        with pytest.raises(ValueError):
            PortfolioAlgorithm(8, 5)

    def test_batch_and_selection_match_reference_rule(self):
        # a third of the instances on the uneven layouts 10/4 and 60/12; three
        # quarters with integer evaluations, half of them multiples of the
        # block size, so that per-item estimates tie within and across sizes
        for i in range(2400):
            rng = child_rng(61, i)
            if i % 3 == 0:
                N, num_blocks = ((10, 4), (60, 12))[i % 2]
            else:
                N = int(rng.integers(2, 81))
                num_blocks = int(rng.integers(1, N + 1))
            n = int(rng.integers(0, N // 2 + 1))
            blocks = reference_portfolio_blocks(N, num_blocks)
            sizes = np.array([len(b) for b in blocks], dtype=float)
            evaluations = [rng.random(num_blocks), rng.integers(0, 3, num_blocks) * 1.0,
                           rng.integers(0, 3, num_blocks) * sizes,
                           rng.integers(0, 2, num_blocks) * sizes][i % 4]

            alg = PortfolioAlgorithm(N, n, num_blocks)
            rows = np.zeros((num_blocks, N), dtype=np.int8)
            for j, block in enumerate(blocks):
                rows[j, block] = 1
            alg.reset(None)
            kind, batch = alg.step(None)
            assert kind == "batch" and np.array_equal(batch.matrix(), rows)
            assert alg.step(evaluations) == (
                "output", reference_portfolio_selection(blocks, evaluations.tolist(), n))


class _DirectChannel:
    """Bypass the harness: route verifier asks straight to a prover object."""

    def __init__(self, prover, rng):
        self.prover = prover
        self.rng = rng

    def ask(self, payload):
        return self.prover.respond(payload, self.rng)


class TestVerifierIteration:
    def setup_method(self):
        self.dist = zipf_distribution(64)
        self.cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=16)

    def run_iter(self, prover, alg=None, cfg=None, partitions=None):
        cfg = cfg or self.cfg
        rng = child_rng(41)
        counts_v = rng.multinomial(cfg.m_v, self.dist.probs)
        channel = _DirectChannel(prover, child_rng(42))
        alg = alg or PortfolioAlgorithm(64, 8)
        partitions = {} if partitions is None else partitions
        return verifier_iteration(counts_v, alg, channel, cfg, 0, child_rng(43), partitions)

    def test_single_pass_returns_algorithm_output(self):
        result = self.run_iter(HonestSqProver(self.dist, self.cfg))
        assert isinstance(result, list) and len(result) == 8

    def test_far_claim_rejected(self):
        class FarProver(HonestSqProver):
            def respond(self, payload, rng):
                reply = super().respond(payload, rng)
                counts = np.array(reply["counts"])
                shift = int(round(4 * self.cfg.tau * self.cfg.m_p))  # TV = 2 tau
                counts[np.argmax(counts)] -= shift
                counts[np.argmin(counts)] += shift
                return {"counts": [int(c) for c in counts], "denominator": reply["denominator"]}

        with pytest.raises(ProtocolViolation, match="identity tester"):
            self.run_iter(FarProver(self.dist, self.cfg))

    def test_batch_bound_rejects(self):
        class ChattyAlgorithm(PortfolioAlgorithm):
            def step(self, evaluations):
                self._sent = False  # keep re-sending the batch forever
                return ("batch", self.batch)

        with pytest.raises(ProtocolViolation, match="batch bound"):
            self.run_iter(HonestSqProver(self.dist, self.cfg), alg=ChattyAlgorithm(64, 8))

    def test_one_atom_batch_is_tested_and_accepted(self, monkeypatch):
        tester, verdicts = sq.test_from_counts, []

        def recorded(*args):
            verdicts.append(tester(*args))
            return verdicts[-1]

        monkeypatch.setattr(sq, "test_from_counts", recorded)
        cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=1)
        result = self.run_iter(HonestSqProver(self.dist, cfg), alg=PortfolioAlgorithm(64, 8, 1),
                               cfg=cfg)
        assert result == list(range(8))
        assert [(v.accept, v.statistic, v.samples_used) for v in verdicts] == [
            (True, -cfg.m_v, cfg.m_v)]

    def test_honest_one_atom_claim_accepted_on_one_sample(self):
        # m_v = m_p = 1: the statistic is -1, and the threshold 2e-18 - 1 rounds to -1
        cfg = SqProtocolConfig.default(tau=1e-9, epsilon=0.5, delta=0.5, s=1,
                                       c_v=1e-20, c_p=1e-20)
        assert (cfg.m_v, cfg.m_p) == (1, 1)
        dist = zipf_distribution(8)
        verifier = make_sq_verifier(dist, PortfolioAlgorithm(8, 2, 1), cfg, portfolio_holdout_loss)
        t = run_interaction(verifier, HonestSqProver(dist, cfg), 0)
        assert t.outcome.hypothesis == [0, 1]

    def test_memoised_partition_is_read_only(self):
        partitions = {}
        self.run_iter(HonestSqProver(self.dist, self.cfg), partitions=partitions)
        (ap,) = partitions.values()
        with pytest.raises(ValueError):
            ap.signature[0] = 1
        with pytest.raises(ValueError):
            ap.atom_query_values[0, 0] = 1

    def test_partition_size_guard(self):
        cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=4)
        with pytest.raises(ProtocolViolation, match="partition bound"):
            self.run_iter(HonestSqProver(self.dist, cfg), cfg=cfg)  # PS=16 > s=4


class _CountingAtoms:
    """Replaces ``sq.atoms_of`` for one test and counts its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = sq.atoms_of

        def counted(batch):
            self.calls += 1
            return original(batch)

        monkeypatch.setattr(sq, "atoms_of", counted)


class _RefiningAlgorithm(SqAlgorithm):
    """Two adaptive batches on a 16-item domain: the masses of four blocks of
    four items, then the masses of the four items of one block, the
    heaviest-looking block shifted by an offset drawn at reset. The second
    batch is a new object in every simulation, so only its content tells
    equal versions apart. Outputs the two heaviest-looking items."""

    def __init__(self):
        self.blocks = np.arange(16).reshape(4, 4)
        self.first = batch_from_rows(np.arange(16) // 4 == np.arange(4)[:, None])
        self.refined = []  # the block refined in each simulation

    def reset(self, rng):
        self.offset = int(rng.integers(4))
        self.stage = 0

    def step(self, evaluations):
        self.stage += 1
        if self.stage == 1:
            return ("batch", self.first)
        if self.stage == 2:
            self.block_masses = np.asarray(evaluations)
            j = (int(np.argmax(evaluations)) + self.offset) % 4
            self.refined.append(j)
            return ("batch", batch_from_rows(np.arange(16) == self.blocks[j][:, None]))
        item_masses = np.repeat(self.block_masses / 4, 4)
        item_masses[self.blocks[self.refined[-1]]] = evaluations
        return ("output", sorted(np.argsort(-item_masses, kind="stable")[:2].tolist()))


class TestPartitionMemo:
    """One verifier run computes each distinct batch's partition once."""

    def setup_method(self):
        self.dist = zipf_distribution(16)
        self.cfg = SqProtocolConfig.default(tau=0.1, epsilon=0.2, delta=0.2, s=8, b=2)

    def run(self, verifier, seed=5):
        return run_interaction(verifier, HonestSqProver(self.dist, self.cfg), seed)

    def test_atoms_of_runs_once_per_trial(self, monkeypatch):
        counter = _CountingAtoms(monkeypatch)
        verifier = portfolio_verifier(self.dist, self.cfg, 16, 2, 8)  # one verifier, many trials
        for trials, seed in enumerate((5, 6), start=1):
            t = self.run(verifier, seed)
            assert t.outcome.kind == "hypothesis"
            assert counter.calls == trials

    def test_fresh_equal_batch_hits_the_memo(self, monkeypatch):
        class FreshBatchPortfolio(PortfolioAlgorithm):
            def step(self, evaluations):
                kind, value = super().step(evaluations)
                if kind == "batch":
                    value = QueryBatch(tuple(Query(q.values.copy()) for q in value.queries))
                return kind, value

        counter = _CountingAtoms(monkeypatch)
        verifier = make_sq_verifier(self.dist, FreshBatchPortfolio(16, 2, num_blocks=8),
                                    self.cfg, portfolio_holdout_loss)
        t = self.run(verifier)
        assert counter.calls == 1
        expected = self.run(portfolio_verifier(self.dist, self.cfg, 16, 2, 8))
        assert t.to_jsonl() == expected.to_jsonl()

    def test_adaptive_batches_get_their_own_partitions(self, monkeypatch):
        counter = _CountingAtoms(monkeypatch)
        alg = _RefiningAlgorithm()
        t = self.run(make_sq_verifier(self.dist, alg, self.cfg, portfolio_holdout_loss))
        assert t.outcome.kind == "hypothesis"
        assert len(alg.refined) == self.cfg.T
        assert len(set(alg.refined)) >= 2
        assert counter.calls == 1 + len(set(alg.refined))

        payloads = [doc["payload"] for doc in map(json.loads, t.to_jsonl().splitlines())
                    if doc.get("sender") == "verifier"]
        assert [p["batch"] for p in payloads] == [1, 2] * self.cfg.T
        for p, j in zip(payloads[1::2], alg.refined):
            atoms = np.array(p["atoms"])
            inside = atoms[alg.blocks[j]]
            outside = np.delete(atoms, alg.blocks[j])
            assert len(set(inside)) == 4 and len(set(outside)) == 1
            assert not set(inside) & set(outside)

        reference = self.run(reference_sq_verifier(self.dist, _RefiningAlgorithm(), self.cfg,
                                                   portfolio_holdout_loss))
        assert t.to_jsonl() == reference.to_jsonl()

    @pytest.mark.parametrize("name", sorted(sq.SQ_PROVERS))
    def test_wide_batch_transcripts_match_reference(self, name):
        # N = num_blocks = 256: 256 singleton atoms, as in the wide benchmark spec
        dist = zipf_distribution(256)
        cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=256)
        transcripts = [
            run_interaction(build(dist, PortfolioAlgorithm(256, 64, 256), cfg,
                                  portfolio_holdout_loss),
                            make_sq_prover(name, dist, cfg), seed=9).to_jsonl()
            for build in (make_sq_verifier, reference_sq_verifier)]
        assert transcripts[0] == transcripts[1]


class TestProtocol2:
    def test_honest_end_to_end(self):
        dist = zipf_distribution(64)
        cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=16)
        t = run_interaction(portfolio_verifier(dist, cfg, 64, 8), HonestSqProver(dist, cfg), 71)
        assert t.outcome.kind == "hypothesis"
        base = portfolio_baseline(dist, 64, 8)
        assert portfolio_population_loss(t.outcome.hypothesis, dist) <= base + cfg.epsilon

    def test_constant_candidates_argmin_is_that_candidate(self):
        dist = zipf_distribution(16)
        cfg = SqProtocolConfig.default(tau=0.1, epsilon=0.2, delta=0.2, s=8)
        t = run_interaction(portfolio_verifier(dist, cfg, 16, 2, 8), HonestSqProver(dist, cfg), 5)
        assert t.outcome.kind == "hypothesis"
        # deterministic algorithm + reused samples: every iteration agrees
        assert t.outcome.hypothesis == simulate_algorithm(
            PortfolioAlgorithm(16, 2, num_blocks=8), dist, child_rng(0))

    def test_one_algorithm_instance_serves_every_simulation(self):
        class CountingPortfolio(PortfolioAlgorithm):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.resets = 0
                self.batches = []

            def reset(self, rng):
                self.resets += 1
                super().reset(rng)

            def step(self, evaluations):
                kind, value = super().step(evaluations)
                if kind == "batch":
                    self.batches.append(value)
                return kind, value

        dist = zipf_distribution(16)
        cfg = SqProtocolConfig.default(tau=0.1, epsilon=0.2, delta=0.2, s=8)
        alg = CountingPortfolio(16, 2, num_blocks=8)
        verifier = make_sq_verifier(dist, alg, cfg, portfolio_holdout_loss)
        t = run_interaction(verifier, HonestSqProver(dist, cfg), seed=5)
        assert alg.resets == cfg.T
        assert len(alg.batches) == cfg.T
        assert all(batch is alg.batch for batch in alg.batches)
        expected = run_interaction(portfolio_verifier(dist, cfg, 16, 2, 8),
                                   HonestSqProver(dist, cfg), 5)
        assert t.outcome.hypothesis == expected.outcome.hypothesis
        assert t.to_jsonl() == expected.to_jsonl()

    def test_small_iteration_count_config(self):
        import math

        dist = zipf_distribution(16)
        cfg = SqProtocolConfig.default(tau=0.1, epsilon=0.9, delta=0.9, s=8)
        assert cfg.T == math.ceil(8 * np.log(4 / 0.9) / 0.9)
        t = run_interaction(portfolio_verifier(dist, cfg, 16, 2, 8), HonestSqProver(dist, cfg), 5)
        assert t.outcome.kind == "hypothesis"

    def test_malicious_provers_are_safe(self):
        dist = zipf_distribution(64)
        cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=16)
        base = portfolio_baseline(dist, 64, 8)
        for name in ("mass-shift", "atom-swap", "stale"):
            t = run_interaction(portfolio_verifier(dist, cfg, 64, 8),
                                make_sq_prover(name, dist, cfg), 81)
            if t.outcome.kind == "hypothesis":
                assert portfolio_population_loss(t.outcome.hypothesis, dist) <= base + cfg.epsilon

    def test_holdout_loss_from_counts(self):
        counts = np.array([5, 3, 2, 0])
        assert portfolio_holdout_loss([0, 1], counts, 10) == pytest.approx(0.2)


class TestOracleChannelInvariant:
    def test_induced_values_within_l1_of_exact(self):
        # whenever the accepted claim is L1-close to the truth, every induced
        # evaluation is within that distance of the exact expectation
        dist = zipf_distribution(64)
        cfg = SqProtocolConfig.default(tau=0.05, epsilon=0.1, delta=0.2, s=16)
        violations = 0
        for i in range(200):
            rng = child_rng(91, i)
            counts_v = rng.multinomial(cfg.m_v, dist.probs)
            prover = HonestSqProver(dist, cfg)
            channel = _DirectChannel(prover, child_rng(92, i))
            accepted = accepted_batches(counts_v, PortfolioAlgorithm(64, 8), channel,
                                        cfg, 0, child_rng(93, i), {})
            for ap, claimed, evaluations in accepted:
                p = true_atom_probs(ap, dist)
                l1 = float(np.abs(claimed - p).sum())
                err = float(np.abs(evaluations - induced_evaluations(ap, p)).max())
                if l1 <= cfg.tau and err > cfg.tau:
                    violations += 1
        assert violations == 0


class TestGapSweep:
    def test_cost_formulas(self):
        assert simulation_sample_cost(4, 0.05, 0.2) == int(np.ceil((4 + np.log(5)) / 0.0025))

    def test_slopes_small_sweep(self):
        report = sq_gap_sweep(ds=(4, 16, 64), tau=0.1, epsilon=0.2, delta=0.2, seed=2)
        assert 0.4 <= report["verifier_cost_slope"] <= 0.6
        assert 0.8 <= report["simulation_cost_slope"] <= 1.2
        assert all(r["accepted"] for r in report["rows"])
