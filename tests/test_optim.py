from __future__ import annotations

import contextlib
import copy
import tracemalloc

import numpy as np
import pytest

from confopt import gp, optim
from confopt.gp import gp_fit
from confopt.optim import (
    OPTIMIZERS,
    BestConfigSession,
    Observation,
    RandomIncSession,
    SpaceExhausted,
    create_optimizer,
)
from confopt.space import Configuration, ParameterSpec, SearchSpace


def make_space(level_counts, granularity=1):
    return SearchSpace(
        tuple(
            ParameterSpec(f"p{i}", 0, (n - 1) * granularity, granularity)
            for i, n in enumerate(level_counts)
        )
    )


def quadratic_score(space, optimum=None):
    """Utility = squared distance to the optimum in normalized space."""
    target = (
        np.full(space.dimension, 0.5)
        if optimum is None
        else space.to_normalized(optimum)
    )

    def score(config):
        delta = space.to_normalized(config) - target
        return float(delta @ delta)

    return score


def drive(session, score, *, metric=None):
    """Ask/tell until budget or space runs out; returns observations."""
    history = []
    while session.told < session.budget:
        try:
            batch = session.ask()
        except SpaceExhausted:
            break
        observations = []
        for config in batch:
            value = score(config)
            slis = {} if metric is None else {metric: value}
            observations.append(
                Observation(
                    config=config,
                    slis=slis,
                    utility=value,
                    feasible=value < 1.0,
                    eval_index=len(history) + len(observations) + 1,
                )
            )
        session.tell(observations)
        history.extend(observations)
    return history


def obs(config, utility, index=1):
    return Observation(
        config=config, slis={}, utility=utility, feasible=utility < 1.0, eval_index=index
    )


class TestSessionProtocol:
    def test_ask_tell_alternate(self):
        session = create_optimizer("random", make_space([3, 3]), 6, 2, seed=0)
        batch = session.ask()
        with pytest.raises(RuntimeError, match="not been told"):
            session.ask()
        session.tell([obs(c, 1.0, i + 1) for i, c in enumerate(batch)])
        session.ask()

    def test_tell_of_unasked_config_rejected(self):
        space = make_space([3, 3])
        session = create_optimizer("random", space, 6, 2, seed=0)
        session.ask()
        with pytest.raises(ValueError, match="not asked"):
            session.tell([obs(Configuration((2, 2)), 1.0), obs(Configuration((1, 1)), 1.0)])

    def test_partial_tell_rejected(self):
        session = create_optimizer("random", make_space([3, 3]), 6, 2, seed=0)
        batch = session.ask()
        with pytest.raises(ValueError, match="missing"):
            session.tell([obs(batch[0], 1.0)])

    def test_budget_enforced(self):
        space = make_space([4, 4])
        session = create_optimizer("random", space, 4, 3, seed=0)
        first = session.ask()
        assert len(first) == 3
        session.tell([obs(c, 1.0) for c in first])
        second = session.ask()
        assert len(second) == 1  # clipped to remaining budget
        session.tell([obs(c, 1.0) for c in second])
        with pytest.raises(RuntimeError, match="budget"):
            session.ask()

    def test_best_updates_strictly_with_first_seen_ties(self):
        space = make_space([3, 3])
        session = create_optimizer("exhaustive", space, 9, 3, seed=0)
        b1 = session.ask()
        session.tell([obs(b1[0], 0.4), obs(b1[1], 0.4), obs(b1[2], 201.0)])
        config, utility = session.best_so_far
        assert utility == 0.4 and config == b1[0]
        b2 = session.ask()
        session.tell([obs(b2[0], 0.9), obs(b2[1], 0.1), obs(b2[2], 0.4)])
        config, utility = session.best_so_far
        assert utility == 0.1 and config == b2[1]

    def test_create_optimizer_unknown_name(self):
        with pytest.raises(ValueError, match="bayesian-ei"):
            create_optimizer("simulated-annealing", make_space([2, 2]), 4, 2, 0)

    def test_parameter_validation(self):
        space = make_space([2, 2])
        with pytest.raises(ValueError):
            create_optimizer("random", space, 0, 2, 0)
        with pytest.raises(ValueError):
            create_optimizer("random", space, 4, 0, 0)


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
class TestAllOptimizers:
    def test_proposals_on_grid_and_fresh(self, name):
        # moat derives its grid from a uniform level count
        levels = [4, 4, 4] if name == "moat" else [4, 3, 2]
        space = make_space(levels, granularity=5)
        budget = 20 if name != "moat" else 16
        session = create_optimizer(name, space, budget, 4, seed=3)
        score = quadratic_score(space)
        history = drive(session, score, metric="p99_latency_ms")
        assert history
        settings = [o.config.settings for o in history]
        for s in settings:
            space.validate(Configuration(s))
        if name != "moat":  # screening replays trajectory crossings verbatim
            assert len(set(settings)) == len(settings)

    def test_deterministic_given_seed(self, name):
        space = make_space([4, 4, 4] if name == "moat" else [4, 3, 2])
        budget = 16 if name == "moat" else 12
        score = quadratic_score(space)
        runs = []
        for _ in range(2):
            session = create_optimizer(name, space, budget, 4, seed=11)
            history = drive(session, score, metric="p99_latency_ms")
            runs.append([o.config.settings for o in history])
        assert runs[0] == runs[1]

    def test_seed_changes_stochastic_sequences(self, name):
        if name == "exhaustive":
            pytest.skip("deterministic by construction")
        space = make_space([6, 6, 6])
        seqs = []
        for seed in (0, 1):
            session = create_optimizer(name, space, 12, 4, seed=seed)
            history = drive(session, quadratic_score(space))
            seqs.append([o.config.settings for o in history])
        assert seqs[0] != seqs[1]


class TestRandomSearch:
    def test_covers_space_exactly_at_full_budget(self):
        space = make_space([2, 2, 2])
        session = create_optimizer("random", space, 8, 3, seed=5)
        history = drive(session, lambda c: 0.5)
        assert len(history) == 8
        assert {o.config.settings for o in history} == {
            c.settings for c in space.iter_configurations()
        }

    def test_exhaustion_signalled(self):
        space = make_space([2, 2])
        session = create_optimizer("random", space, 10, 4, seed=5)
        drive(session, lambda c: 0.5)
        assert session.told == 4
        with pytest.raises(SpaceExhausted):
            session.ask()


class TestRandomInc:
    def find_identity_seed(self, k):
        for seed in range(100):
            if list(np.random.default_rng(seed).permutation(k)) == list(range(k)):
                return seed
        raise AssertionError("no identity permutation in range")

    def test_identity_permutation_order(self):
        space = make_space([2, 2])
        seed = self.find_identity_seed(2)
        session = RandomIncSession(space, 4, 4, seed)
        batch = session.ask()
        # first dimension in permuted order varies fastest
        assert [c.settings for c in batch] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_starts_at_all_min(self):
        space = make_space([3, 3, 3])
        for seed in range(5):
            session = RandomIncSession(space, 3, 3, seed)
            assert session.ask()[0].settings == (0, 0, 0)

    def test_full_budget_is_exhaustive(self):
        space = make_space([3, 2, 2])
        session = create_optimizer("randominc", space, 12, 5, seed=9)
        history = drive(session, lambda c: 0.5)
        assert len(history) == 12
        assert len({o.config.settings for o in history}) == 12

    def test_prefix_property(self):
        """A short run visits exactly the first configs of the long run."""
        space = make_space([4, 4])
        long = drive(create_optimizer("randominc", space, 16, 4, 3), lambda c: 0.0)
        short = drive(create_optimizer("randominc", space, 6, 3, 3), lambda c: 0.0)
        assert [o.config.settings for o in short] == [
            o.config.settings for o in long
        ][:6]


class TestExhaustive:
    def test_odometer_order(self):
        space = make_space([2, 3])
        session = create_optimizer("exhaustive", space, 6, 4, seed=0)
        history = drive(session, lambda c: 0.5)
        assert [o.config.settings for o in history] == [
            c.settings for c in space.iter_configurations()
        ]

    def test_matches_brute_force_argmin(self):
        space = make_space([5, 4, 3])
        score = quadratic_score(space, Configuration((3, 1, 2)))
        session = create_optimizer("exhaustive", space, space.size, 7, seed=0)
        drive(session, score)
        best_config, best_utility = session.best_so_far
        expected = min(space.iter_configurations(), key=score)
        assert best_config == expected
        assert best_utility == score(expected)

    def test_budget_beyond_size_stops_cleanly(self):
        space = make_space([2, 2])
        session = create_optimizer("exhaustive", space, 100, 8, seed=0)
        history = drive(session, lambda c: 0.5)
        assert len(history) == 4


class TestBestConfig:
    def test_first_batch_is_latin_hypercube(self):
        """With n samples over n levels every sample gets a distinct level."""
        space = make_space([6, 6])
        session = BestConfigSession(space, 36, 6, seed=2)
        batch = session.ask()
        for dim in range(2):
            levels = [c.settings[dim] for c in batch]
            assert sorted(levels) == [0, 1, 2, 3, 4, 5]

    def test_improvement_narrows_bounds(self):
        space = make_space([6, 6])
        session = BestConfigSession(space, 36, 6, seed=2)
        batch = session.ask()
        session.tell([obs(c, float(i == 2), i + 1) for i, c in enumerate(batch)])
        # batch improved (first tell); bounds must now span at most 3 of
        # the 6 one-level intervals per dimension
        for lo, hi in session._bounds:
            assert hi - lo <= 2

    def test_non_improvement_backtracks(self):
        space = make_space([6, 6])
        session = BestConfigSession(space, 36, 6, seed=2)
        batch = session.ask()
        session.tell([obs(c, 0.5, i + 1) for i, c in enumerate(batch)])
        batch = session.ask()
        session.tell([obs(c, 0.9, i + 1) for i, c in enumerate(batch)])
        assert session._bounds == [(0, 5), (0, 5)]

    def test_finds_optimum_on_smooth_surface(self):
        space = make_space([6, 6, 6])
        optimum = Configuration((4, 2, 1))
        score = quadratic_score(space, optimum)
        session = BestConfigSession(space, 120, 6, seed=0)
        drive(session, score)
        best_config, _ = session.best_so_far
        assert best_config == optimum

    def test_tiny_space_is_exhausted_after_its_last_configuration(self):
        space = make_space([2, 2])
        session = BestConfigSession(space, 100, 3, seed=0)
        asked = []
        for _ in range(2):
            batch = session.ask()
            session.tell([obs(c, 0.5, len(asked) + i + 1) for i, c in enumerate(batch)])
            asked.extend(batch)
        everything = [c.settings for c in space.iter_configurations()]
        assert sorted(c.settings for c in asked) == everything
        with pytest.raises(SpaceExhausted):
            session.ask()


class TestBayesianEI:
    def test_cold_start_accepts_tiny_history(self):
        space = make_space([4, 4])
        session = create_optimizer("bayesian-ei", space, 8, 4, seed=1)
        batch = session.ask()
        assert len(batch) == 4
        session.tell([obs(c, 0.5, i + 1) for i, c in enumerate(batch)])
        assert len(session.ask()) == 4

    def test_outperforms_random_on_smooth_surface(self):
        space = make_space([6, 6, 6])
        optimum = Configuration((4, 2, 1))
        score = quadratic_score(space, optimum)
        bo_hits = rnd_hits = 0
        for seed in range(10):
            bo = create_optimizer("bayesian-ei", space, 48, 6, seed=seed)
            drive(bo, score)
            bo_hits += bo.best_so_far[0] == optimum
            rnd = create_optimizer("random", space, 48, 6, seed=seed)
            drive(rnd, score)
            rnd_hits += rnd.best_so_far[0] == optimum
        assert bo_hits > rnd_hits
        assert bo_hits >= 7

    def test_exhausts_small_space(self):
        space = make_space([2, 2])
        session = create_optimizer("bayesian-ei", space, 100, 3, seed=0)
        history = drive(session, quadratic_score(space))
        assert len(history) == 4
        assert len({o.config.settings for o in history}) == 4

    @pytest.mark.parametrize("seed", [0, 5])
    def test_grid_proposals_match_refitting_from_scratch(self, seed, monkeypatch):
        space = make_space([7, 6, 5])
        score = quadratic_score(space, Configuration((5, 1, 3)))
        priors, models = [], []

        def extending_fit(inputs, targets, prior=None):
            priors.append(prior)
            models.append(gp_fit(inputs, targets, prior=prior))
            return models[-1]

        monkeypatch.setattr(optim, "gp_fit", extending_fit)
        extended = drive(create_optimizer("bayesian-ei", space, 60, 5, seed=seed), score)
        assert priors == [None] + models[:-1]
        monkeypatch.setattr(optim, "gp_fit", lambda inputs, targets, prior=None: gp_fit(inputs, targets))
        refitted = drive(create_optimizer("bayesian-ei", space, 60, 5, seed=seed), score)
        assert [o.config for o in extended] == [o.config for o in refitted]

    def test_grid_rounds_carry_only_the_running_variance(self, monkeypatch):
        """One grid object serves every BO round, and each fit takes over
        its prior's running sum of V², N floats covering the prior's rows."""
        space = make_space([7, 6, 5])
        handed = []

        def extending_fit(inputs, targets, prior=None):
            model = gp_fit(inputs, targets, prior=prior)
            handed.append((prior, model._grid_variance))
            return model

        monkeypatch.setattr(optim, "gp_fit", extending_fit)
        session = create_optimizer("bayesian-ei", space, 40, 5, seed=3)
        drive(session, quadratic_score(space))
        assert handed[0] == (None, None) and len(handed) > 2
        for prior, state in handed[1:]:
            assert state is prior._grid_variance
            assert state.grid is session._grid and state.rows == len(prior.inputs)
            assert state.sq_sum.shape == (space.size,)
        assert session._model._grid_variance.rows == 35

    def test_grid_bo_memory_stays_linear_in_the_grid(self):
        """150 evaluations on the 65,536-point grid: the state a model hands
        to the next is N floats, and the traced peak stays far below one
        n×N array (78.6 MB at n = 150)."""
        space = make_space([4] * 8)
        session = create_optimizer("bayesian-ei", space, 150, 6, seed=4)
        tracemalloc.start()
        try:
            drive(session, quadratic_score(space))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state = session._model._grid_variance
        assert state.grid is session._grid and state.rows == 144
        assert state.sq_sum.size + sum(map(len, state.grid.levels)) == space.size + 32
        assert peak < 32 * 2**20

    def test_top_picks_match_a_stable_sort_with_ties(self):
        scores = np.random.default_rng(0).integers(0, 5, size=200).astype(float)
        for n in (1, 3, 40, 199, 200, 250):
            expected = np.argsort(-scores, kind="stable")[:n]
            assert optim._top(scores, n).tolist() == expected.tolist()

    def test_rounds_restore_blas_thread_counts(self, monkeypatch):
        controls = gp._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS library in this process")
        before = [get() for get, _ in controls]
        inside = []

        def counting_fit(inputs, targets, prior=None):
            inside.append([get() for get, _ in controls])
            return gp_fit(inputs, targets, prior=prior)

        space = make_space([7, 6, 5])
        session = create_optimizer("bayesian-ei", space, 30, 5, seed=2)
        monkeypatch.setattr(optim, "gp_fit", counting_fit)
        score = quadratic_score(space)
        session.tell([obs(c, score(c), i + 1) for i, c in enumerate(session.ask())])
        session.ask()
        assert inside == [[1] * len(controls)]
        assert [get() for get, _ in controls] == before

        def failing_fit(inputs, targets, prior=None):
            raise np.linalg.LinAlgError("round failed")

        monkeypatch.setattr(optim, "gp_fit", failing_fit)
        session = create_optimizer("bayesian-ei", space, 30, 5, seed=2)
        session.tell([obs(c, score(c), i + 1) for i, c in enumerate(session.ask())])
        with pytest.raises(np.linalg.LinAlgError):
            session.ask()
        assert [get() for get, _ in controls] == before

    @pytest.mark.parametrize(
        "levels, budget", [([7, 6, 5], 60), ([6] * 12, 18)], ids=["grid", "sampled"]
    )
    def test_proposals_do_not_depend_on_the_thread_cap(self, levels, budget, monkeypatch):
        space = make_space(levels)
        score = quadratic_score(space)
        capped = drive(create_optimizer("bayesian-ei", space, budget, 6, seed=3), score)
        monkeypatch.setattr(optim, "one_blas_thread", contextlib.nullcontext)
        uncapped = drive(create_optimizer("bayesian-ei", space, budget, 6, seed=3), score)
        assert [o.config for o in capped] == [o.config for o in uncapped]

    def test_large_space_candidates_stay_sane(self):
        # 12 dims x 6 levels > 1e5, exercising the sampled-candidate path
        space = make_space([6] * 12)
        session = create_optimizer("bayesian-ei", space, 18, 6, seed=4)
        history = drive(session, quadratic_score(space))
        assert len(history) == 18
        assert len({o.config.settings for o in history}) == 18


    def test_sampled_candidates_match_the_per_candidate_construction(self):
        """Candidate ranks and coordinates past GRID_LIMIT equal ranking each
        drawn row and neighbour through ``space.rank`` and normalizing
        ``config_at(rank)``, first occurrences in order; a pinned axis too."""
        pinned = ParameterSpec("pinned", 7, 7, 1, allow_single_level=True)
        space = SearchSpace((pinned,) + make_space([6] * 11, granularity=5).parameters)
        session = create_optimizer("bayesian-ei", space, 24, 6, seed=2)
        drive(session, quadratic_score(space))
        counts = [p.level_count for p in space.parameters]
        draws = copy.deepcopy(session.rng).integers(
            counts, size=(session.SAMPLED_CANDIDATES, len(counts))
        )
        generated = [space.rank(row) for row in draws]
        for told in session.history:
            indices = list(space.indices_of(told.config))
            for dim in range(space.dimension):
                for step in (-1, 1):
                    j = indices[dim] + step
                    if 0 <= j < counts[dim]:
                        generated.append(space.rank(indices[:dim] + [j] + indices[dim + 1 :]))
        expected = list(dict.fromkeys(r for r in generated if r not in session._asked))

        ranks, points = session._candidates()
        assert ranks == expected
        assert all(type(rank) is int for rank in ranks)
        reference = np.array([space.to_normalized(space.config_at(r)) for r in expected])
        assert np.array_equal(points, reference)


class TestMoat:
    def test_budget_to_trajectories(self):
        space = make_space([6, 6, 6])
        session = create_optimizer("moat", space, 17, 4, seed=0)
        # 17 // (3 + 1) = 4 trajectories, 16 evaluations
        history = drive(session, quadratic_score(space), metric="p99_latency_ms")
        assert len(history) == 16

    def test_too_small_budget_rejected(self):
        space = make_space([6, 6, 6])
        with pytest.raises(ValueError, match="trajectory"):
            create_optimizer("moat", space, 3, 4, seed=0)

    @pytest.mark.parametrize(
        "levels, p", [([6, 6], None), ([3, 2, 5, 2], 4)], ids=["uniform", "mixed"]
    )
    def test_proposes_the_screening_design(self, levels, p):
        from confopt.screening import run_screening

        space = make_space(levels, granularity=10)
        r, seed = 5, 21
        session = create_optimizer(
            "moat", space, r * (space.dimension + 1), 4, seed=seed, p=p
        )
        proposed = [o.config for o in drive(session, quadratic_score(space))]
        outcome = run_screening(space, quadratic_score(space), r=r, p=p, seed=seed)
        assert proposed == [c for c, _ in outcome.evaluations]


# Proposal streams as ranks, recorded before sessions proposed ranks
# themselves: a change to any draw, tie-break or fallback order shows here.
# "mixed" has a pinned parameter and is driven to exhaustion (scan
# fallbacks); "wide" (6**12 configurations) takes BO's sampled path.
# "pinned-grid" and "toystore" pin BO's grid path, recorded while it still
# predicted through V = L⁻¹K(X, grid): a grid with a pinned axis whose two
# kernel factors both have several points, and the 4**8 study grid.
STREAM_SPACES = {
    "mixed": (
        SearchSpace(
            (
                ParameterSpec("a", 0, 2, 1),
                ParameterSpec("pinned", 5, 5, 1, allow_single_level=True),
                ParameterSpec("b", 0, 30, 10),
                ParameterSpec("c", 0, 1, 1),
            )
        ),
        24,
        5,
        {"moat": {"p": 4}},
    ),
    "wide": (make_space([6] * 12), 26, 4, {}),
    "pinned-grid": (
        SearchSpace(
            (
                ParameterSpec("a", 0, 3, 1),
                ParameterSpec("pinned", 7, 7, 1, allow_single_level=True),
                ParameterSpec("b", 0, 20, 10),
                ParameterSpec("c", 0, 3, 1),
                ParameterSpec("d", 0, 4, 1),
                ParameterSpec("e", 0, 1, 1),
            )
        ),
        60,
        5,
        {},
    ),
    "toystore": (make_space([4] * 8), 60, 6, {}),
}
PINNED_STREAMS = {
    ('pinned-grid', 'bayesian-ei', 3): [
        362, 460, 184, 100, 194, 186, 182, 304, 64, 174, 296, 294, 306, 176, 144,
        336, 216, 226, 346, 324, 172, 292, 6, 396, 388, 140, 260, 150, 20, 30, 302,
        38, 78, 185, 295, 305, 175, 173, 177, 307, 293, 183, 145, 135, 215, 315, 55,
        65, 195, 415, 345, 347, 343, 165, 285, 299, 189, 259, 269, 297,
    ],
    ('pinned-grid', 'bayesian-ei', 11): [
        35, 324, 221, 119, 404, 284, 444, 282, 286, 402, 164, 294, 162, 174, 166,
        304, 184, 306, 302, 182, 254, 264, 134, 144, 224, 186, 64, 314, 194, 66,
        424, 348, 340, 470, 358, 296, 292, 176, 172, 268, 260, 140, 250, 380, 270,
        92, 94, 90, 100, 96, 417, 287, 419, 285, 247, 413, 455, 445, 403, 325,
    ],
    ('toystore', 'bayesian-ei', 3): [
        49214, 1428, 41054, 23087, 54957, 50129, 38573, 59053, 54941, 54958, 54701,
        55981, 38637, 38569, 38509, 22189, 39597, 42669, 42665, 38505, 39593, 22185,
        38585, 38568, 26281, 23209, 43689, 42601, 39529, 22121, 27241, 43625, 27305,
        26217, 23145, 43621, 42661, 39589, 38501, 39525, 26213, 42597, 27301, 22182,
        22181, 38566, 43686, 23141, 26278, 23206, 27238, 42598, 43669, 26282, 42646,
        27286, 39574, 27221, 43606, 39510,
    ],
    ('toystore', 'bayesian-ei', 11): [
        3496, 18312, 65234, 28103, 9982, 61549, 11719, 28107, 24007, 27847, 2472,
        3752, 1448, 2456, 18856, 2473, 6568, 2476, 18857, 22952, 6569, 22953, 22948,
        18853, 22949, 22697, 22889, 22969, 23017, 21929, 21925, 21865, 22885, 21861,
        38313, 22890, 21866, 38309, 22886, 38249, 21862, 38245, 21926, 38246, 39273,
        39269, 21930, 38250, 39334, 39338, 39270, 38310, 39274, 38314, 39593, 23206,
        39321, 39589, 39337, 26021,
    ],
    ('mixed', 'bayesian-ei', 3): [
        16, 1, 20, 2, 10, 12, 8, 14, 6, 21, 15, 7, 17, 13, 5, 11, 23, 22, 0, 9, 3, 19,
        4, 18,
    ],
    ('mixed', 'bayesian-ei', 11): [
        1, 13, 16, 3, 9, 15, 11, 21, 5, 7, 17, 4, 14, 2, 6, 22, 12, 20, 10, 23, 8, 0,
        18, 19,
    ],
    ('mixed', 'bestconfig', 3): [
        17, 9, 6, 10, 4, 20, 8, 12, 16, 18, 0, 14, 1, 2, 3, 5, 15, 7, 11, 13, 19, 21,
        22, 23,
    ],
    ('mixed', 'bestconfig', 11): [
        0, 19, 8, 12, 7, 18, 14, 10, 20, 22, 1, 6, 17, 9, 4, 2, 5, 3, 16, 11, 13, 15,
        21, 23,
    ],
    ('mixed', 'exhaustive', 3): [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23,
    ],
    ('mixed', 'exhaustive', 11): [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23,
    ],
    ('mixed', 'moat', 3): [
        16, 17, 17, 9, 13, 2, 10, 10, 11, 15, 4, 5, 1, 1, 9, 18, 22, 14, 14, 15,
    ],
    ('mixed', 'moat', 11): [
        6, 7, 7, 3, 11, 0, 8, 12, 12, 13, 15, 14, 10, 2, 2, 12, 12, 8, 16, 17,
    ],
    ('mixed', 'random', 3): [
        16, 1, 20, 2, 10, 5, 0, 15, 11, 9, 23, 3, 13, 6, 7, 8, 19, 4, 22, 18, 14, 17,
        21, 12,
    ],
    ('mixed', 'random', 11): [
        1, 13, 16, 3, 9, 7, 21, 6, 14, 19, 23, 15, 0, 12, 22, 8, 20, 5, 17, 11, 2, 18,
        4, 10,
    ],
    ('mixed', 'randominc', 3): [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23,
    ],
    ('mixed', 'randominc', 11): [
        0, 1, 8, 9, 16, 17, 2, 3, 10, 11, 18, 19, 4, 5, 12, 13, 20, 21, 6, 7, 14, 15,
        22, 23,
    ],
    ('wide', 'bayesian-ei', 3): [
        1463454872, 1220708121, 882303453, 1383731245, 882303669, 883983069, 519506397,
        942769629, 942769413, 882303237, 892381149, 882303454, 882303273, 882295461,
        942769449, 942761637, 942761673, 882295497, 942769448, 942761636, 872217801,
        1245092553, 880615881, 932683977, 880335945, 942481737,
    ],
    ('wide', 'bayesian-ei', 11): [
        44681345, 1120021203, 960481527, 2112911918, 597684471, 960482823, 958801911,
        960481521, 962161143, 960480231, 960489303, 960481563, 962159847, 962161107,
        960480195, 962161149, 962159811, 1324958163, 1323277251, 1324956903, 962159595,
        962159812, 952082115, 962160027, 952082331, 942004419,
    ],
    ('wide', 'bestconfig', 3): [
        1797077601, 1159170935, 368689392, 218716117, 2151131443, 1673905522,
        1383229382, 1306686711, 1794772917, 1311326227, 1685846641, 1384909172,
        1443687992, 1322756943, 1384915651, 1324441705, 1669586850, 782682297,
        1171548865, 303076199, 224392164, 1517351060, 1427944907, 746880843, 1512533016,
        1073524852,
    ],
    ('wide', 'bestconfig', 11): [
        1910991492, 678826021, 881375, 1327510647, 1208318683, 640918280, 891935625,
        2032622524, 590537799, 1013514175, 703026307, 944602226, 944602009, 944602442,
        1005068403, 1005068185, 17138469, 1573385800, 1423751304, 589570945, 1293541820,
        1558293052, 702655005, 966630, 542122638, 1350706090,
    ],
    ('wide', 'exhaustive', 3): [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25,
    ],
    ('wide', 'exhaustive', 11): [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25,
    ],
    ('wide', 'moat', 3): [
        1463454872, 1464294680, 1464290792, 1464150824, 1464151472, 1469190320,
        380799152, 380799260, 380799263, 380775935, 562174463, 562174481, 592407569,
        940256049, 2028647217, 2027807409, 2027784081, 2027784189, 2027784171,
        2027784168, 2027780280, 1997547192, 1997407224, 2002446072, 1821047544,
        1821048192,
    ],
    ('wide', 'moat', 11): [
        44681345, 49720193, 49720190, 19487102, 1107878270, 1107878378, 1107878396,
        1107879044, 1289277572, 1288437764, 1288414436, 1288418324, 1288278356,
        1248471422, 1429869950, 1429729982, 1430569790, 1430593118, 1425554270,
        1425554252, 1425553604, 337162436, 337166324, 337166327, 337166435, 306933347,
    ],
    ('wide', 'random', 3): [
        1463454872, 1220708121, 882303453, 1383731245, 337989466, 1220411937, 450628881,
        260198328, 1425823297, 1393399723, 1518852361, 698717579, 1358555335,
        1550847251, 1447911888, 638400243, 586303809, 1717714552, 1626384194, 846954064,
        312041761, 1263697689, 585481350, 86636347, 2139552655, 1309855253,
    ],
    ('wide', 'random', 11): [
        44681345, 1120021203, 960481527, 2112911918, 1991541162, 1614156630, 2058643519,
        891019110, 371325828, 670253857, 734101879, 1820688787, 1492150331, 1886837960,
        1978533236, 1893405598, 2095068476, 1016657658, 1392210743, 917187313, 31784451,
        121300614, 56802984, 1750754320, 1368538573, 3757887,
    ],
    ('wide', 'randominc', 3): [
        0, 1, 2, 3, 4, 5, 1296, 1297, 1298, 1299, 1300, 1301, 2592, 2593, 2594, 2595,
        2596, 2597, 3888, 3889, 3890, 3891, 3892, 3893, 5184, 5185,
    ],
    ('wide', 'randominc', 11): [
        0, 10077696, 20155392, 30233088, 40310784, 50388480, 6, 10077702, 20155398,
        30233094, 40310790, 50388486, 12, 10077708, 20155404, 30233100, 40310796,
        50388492, 18, 10077714, 20155410, 30233106, 40310802, 50388498, 24, 10077720,
    ],
}


@pytest.mark.parametrize("label, name, seed", sorted(PINNED_STREAMS))
def test_proposal_streams_are_pinned(label, name, seed):
    space, budget, batch, options = STREAM_SPACES[label]
    session = create_optimizer(name, space, budget, batch, seed, **options.get(name, {}))
    history = drive(session, quadratic_score(space))
    ranks = [space.rank(space.indices_of(o.config)) for o in history]
    assert ranks == PINNED_STREAMS[label, name, seed]
