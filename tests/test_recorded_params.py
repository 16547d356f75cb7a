"""Every checked runner records its keyword hyperparameters in its
RunRecord: the value the call gave, else the default, and the value the
runner resolved for a default of None."""

import inspect

import numpy as np
import pytest

from evoscm import (
    SearchSpace,
    ToyThresholdEnv,
    aco_run,
    default_policy_grammar,
    ga_run,
    gp_evolve,
    run_eldt,
)

SIZE = 4


def space():
    return SearchSpace(kind="binary", size=SIZE, maximize=True, budget=5,
                       score=lambda x, rng: float(np.sum(x)))


def eldt(**params):
    env = ToyThresholdEnv()
    return run_eldt(env, 4, 0, default_policy_grammar(env.spec), **params)


# runner, a call of it at a tiny budget, and one hyperparameter it is given
CASES = {
    "eldt": (run_eldt, eldt, ("mutation_prob", 0.2)),
    "gp": (gp_evolve, lambda **p: gp_evolve(ToyThresholdEnv(), 4, 0, **p), ("max_depth", 3)),
    "ga": (ga_run, lambda **p: ga_run(space(), 0, **p), ("swap_prob", 0.5)),
    "aco": (aco_run, lambda **p: aco_run(space(), 0, **p), ("rho", 0.3)),
}


def keywords(runner) -> dict:
    return {name: p.default for name, p in inspect.signature(runner).parameters.items()
            if p.kind is p.KEYWORD_ONLY}


@pytest.mark.parametrize("algo", CASES)
def test_records_the_budget_and_every_keyword(algo):
    runner, call, (name, value) = CASES[algo]
    rec = call(**{name: value})
    defaults = keywords(runner)
    assert set(rec.params) == {"budget"} | set(defaults)
    assert rec.params[name] == value
    for other, default in defaults.items():
        if other != name and default is not None:
            assert rec.params[other] == default, other


@pytest.mark.parametrize("given, recorded", [(None, 1 / SIZE), (0.7, 0.7)])
def test_ga_records_the_flip_probability_it_used(given, recorded):
    assert ga_run(space(), 0, flip_prob=given).params["flip_prob"] == recorded
    if given is None:
        assert ga_run(space(), 0).params["flip_prob"] == recorded


@pytest.mark.parametrize("algo", ["eldt", "gp"])
@pytest.mark.parametrize("given, recorded", [(None, 3), (2, 2)])
def test_policy_searches_record_the_episodes_per_eval_they_used(algo, given, recorded):
    call = CASES[algo][1]
    # the toy environment is stochastic, so the default is 3 episodes
    assert call(episodes_per_eval=given).params["episodes_per_eval"] == recorded
    if given is None:
        assert call().params["episodes_per_eval"] == recorded
