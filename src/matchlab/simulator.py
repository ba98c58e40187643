"""Event-driven continuous-time simulation of search on a platform.

Two aggregate exponential clocks drive a replication: meeting calls at rate
``rho / 2`` per unmatched agent and divorces at rate ``alpha`` per standing
match.  Only unmatched agents search, so a meeting call picks its caller
uniformly over the unmatched agents.  (A call drawn over all agents would
leave the state as it is whenever it fell on a matched agent; dropping such
null events changes neither the chain's generator nor the distribution of
any statistic, Gillespie 1977.)  The caller draws a partner node from their
kernel row and meets a uniform *unmatched* agent of that node (the caller
never meets itself); the meeting fails when no such agent exists.  The
match forms exactly when output covers both reservation wages.  Drawing
partners from the unmatched pool is what makes the per-node steady state
solve the flow-balance condition ``alpha (1 - u) = rho u`` on assortative
platforms exactly, with no population-size bias; an availability lottery
over all agents would instead equate divorce inflow with a quadratic-in-``u``
outflow.

While matched, an agent of node ``i`` paired with node ``j`` accrues flow
``(f(x_i, x_j) + w_i - w_j) / 2``; unmatched agents accrue nothing.
Statistics are collected after ``burn_in``: per-node unmatched fractions
(one less the node's matched agent-time over its agent-time, the matched
time summed over the match spans inside the window), tallies, and the
discounted payoff ``r * integral e^{-r (t - burn_in)} flow dt`` per agent,
averaged per node in two ways:

* over every agent of the node (``mean_discounted_payoff_by_node``).  The
  agents start ``burn_in`` from the stationary mix, so this estimates the
  mean flow ``(1 - u_i) * E[flow | matched]``; ``r`` cancels out of it.  On an
  assortative platform it is ``(1 - u_i) f(x_i, x_i) / 2``.
* over the agents that are unmatched at ``burn_in``
  (``mean_search_payoff_by_node``).  This estimates ``r`` times the value of
  an unmatched agent, the value of search that a reservation wage prices.
  On an assortative platform an unmatched agent meets a partner at hazard
  ``h = rho`` (its own calls plus the calls of its node's other unmatched
  agents, which pick it one time in their number), the hazard
  ``alpha (1 - u) / u`` that the flow balance implies, so the statistic
  estimates ``h phi / (r + alpha + h)`` with ``phi = f(x_i, x_i) / 2``.  An
  agent alone in its node's unmatched pool cannot meet anyone; matches and
  divorces move agents in pairs, so with an even ``agents_per_node`` that
  never happens.

Replications run on seeds spawned from the master seed via
``numpy.random.SeedSequence(seed).spawn(replications)``, each on its own
generator, so they may run in worker processes (``simulate(..., jobs=N)``);
their results are merged in replication order, never in completion order.
Identical seed and config reproduce the event stream and every statistic
bit for bit, for any number of workers.  Each replication takes its draws
from its own generator in blocks of 65 536: standard exponentials for the
waiting times, uniforms for the event type (and with it the caller or the
dissolving match), the partner node and the partner within that node's
pool.  A block is refilled exactly when a draw finds it spent, so the
sequence of block requests follows the events.  That order, and the
floating-point operations that turn draws into events, are part of the
reproducibility contract: a change to either moves every simulation
artifact, and ``tests/test_simulator.py`` pins digests of the event stream.
(numpy does not promise ``Generator`` streams across its own versions,
NEP 19.)
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .core import (
    Platform,
    ProductionFunction,
    SearchParams,
    acceptance,
    ordered_map,
)

__all__ = ["SimConfig", "SimOutcome", "simulate", "pooled_deviations",
           "check_discount_window"]

_BLOCK = 1 << 16  # random draws fetched per refill


@dataclass(frozen=True)
class SimConfig:
    """Population size, time window and replication plan for one experiment."""

    agents_per_node: int = 100
    horizon: float = 500.0
    burn_in: float = 50.0
    seed: int = 12345
    replications: int = 1
    collect_events: bool = False

    def __post_init__(self):
        if self.agents_per_node < 1:
            raise ValueError("agents_per_node must be at least 1")
        if not (0.0 <= self.burn_in < self.horizon and math.isfinite(self.horizon)):
            raise ValueError("need a finite horizon > burn_in >= 0")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class SimOutcome:
    """Replication-averaged statistics of a simulation run.

    Standard errors are across replications (zero for a single replication).
    Tallies are totals over all replications and count only the post-burn-in
    window.  Meeting calls come from unmatched agents only, and each ends in
    exactly one failure (no unmatched partner in the drawn node), rejection
    or match; ``meeting_count`` tallies every call once per participant, so
    it is ``2 * (match_formation_count + failed_meeting_count +
    rejected_meeting_count)``.

    ``mean_discounted_payoff_by_node`` averages the r-scaled discounted payoff
    over every agent of a node and estimates ``(1 - u_i)`` times the mean
    matched flow.  ``mean_search_payoff_by_node`` averages it over the agents
    unmatched at ``burn_in`` and estimates ``r`` times the value of an
    unmatched agent; a replication in which no agent of the node is unmatched
    at ``burn_in`` does not enter that node's mean or standard error, and a
    node with no such agent in any replication reads NaN.  Excluded nodes
    read zero payoffs.
    """

    unmatched_fraction_by_node: np.ndarray
    se_unmatched_by_node: np.ndarray
    mean_discounted_payoff_by_node: np.ndarray
    se_payoff_by_node: np.ndarray
    mean_search_payoff_by_node: np.ndarray
    se_search_payoff_by_node: np.ndarray
    match_formation_count: int
    divorce_count: int
    meeting_count: int
    failed_meeting_count: int
    rejected_meeting_count: int
    seed: int
    replications: int
    event_log: tuple = ()


def simulate(platform: Platform, f: ProductionFunction, params: SearchParams,
             w: np.ndarray, cfg: SimConfig, *, jobs: int = 1) -> SimOutcome:
    """Run the event simulation and collect steady-state statistics.

    ``w`` is the equilibrium wage vector of the platform (full grid length);
    it fixes the acceptance rule and the matched flow split.  The discount
    window must pass :func:`check_discount_window`.  Replications run on up
    to ``jobs`` worker processes; the outcome is the same for every ``jobs``.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    platform.require_consistent()
    grid = platform.grid
    n, k = grid.n, platform.cutoff
    m = n - k
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"wage vector must have length {n}")
    check_discount_window(params, cfg)

    Fb = f.values(grid)[k:, k:]
    wb = w[k:]
    accept = acceptance(Fb, wb)
    flow = 0.5 * (Fb + (wb[:, None] - wb[None, :]))
    accept_rows = [row.tolist() for row in accept]
    flow_rows = [row.tolist() for row in flow]

    cum_rows = (None if platform.is_diagonal
                else [np.cumsum(row).tolist() for row in platform.kernel])

    reps = cfg.replications
    seeds = np.random.SeedSequence(cfg.seed).spawn(reps)
    results = ordered_map(
        _run_replication,
        [(m, cum_rows, accept_rows, flow_rows, params, cfg, seed) for seed in seeds], jobs)

    u_hat = np.ones((reps, n))
    payoff_hat = np.zeros((reps, n))
    search_hat = np.zeros((reps, n))
    tallies = np.zeros(5, dtype=np.int64)  # matches, divorces, meetings, failed, rejected
    event_log: list = []
    for rep, (rep_u, rep_pay, rep_search, rep_tallies, rep_log) in enumerate(results):
        u_hat[rep, k:] = rep_u
        payoff_hat[rep, k:] = rep_pay
        search_hat[rep, k:] = rep_search
        tallies += rep_tallies
        event_log += rep_log

    mean_u, se_u = _mean_and_se(u_hat)
    mean_p, se_p = _mean_and_se(payoff_hat)
    # a replication with no agent of the node unmatched at burn-in reads NaN
    # and is left out of that node's statistics
    mean_s = np.zeros(n)
    se_s = np.zeros(n)
    for i in range(k, n):
        seen = search_hat[~np.isnan(search_hat[:, i]), i]
        if seen.size:
            mean_s[i], se_s[i] = _mean_and_se(seen)
        else:
            mean_s[i] = se_s[i] = np.nan

    return SimOutcome(
        unmatched_fraction_by_node=mean_u,
        se_unmatched_by_node=se_u,
        mean_discounted_payoff_by_node=mean_p,
        se_payoff_by_node=se_p,
        mean_search_payoff_by_node=mean_s,
        se_search_payoff_by_node=se_s,
        match_formation_count=int(tallies[0]),
        divorce_count=int(tallies[1]),
        meeting_count=int(tallies[2]),
        failed_meeting_count=int(tallies[3]),
        rejected_meeting_count=int(tallies[4]),
        seed=cfg.seed,
        replications=reps,
        event_log=tuple(event_log),
    )


def check_discount_window(params: SearchParams, cfg: SimConfig) -> None:
    """Refuse a statistics window with ``r * (horizon - burn_in) < 7``: tail
    truncation would bias discounted payoffs by more than one part in a
    thousand (``e^-7 < 1e-3``)."""
    window = cfg.horizon - cfg.burn_in
    if params.r * window < 7.0:
        raise ValueError(
            f"r * (horizon - burn_in) = {params.r * window:g} < 7; "
            "discounted payoffs would carry a truncation bias above one part in a thousand")


def _mean_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the replications (rows) of ``samples``;
    the standard error is zero for a single replication."""
    reps = samples.shape[0]
    mean = samples.mean(axis=0)
    if reps < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / math.sqrt(reps)


def _run_replication(m, cum_rows, accept_rows, flow_rows, params, cfg, seed):
    """One event timeline on the generator of ``seed``; returns per-node
    (u_hat, payoff_hat, search_hat), tallies and the event log (empty unless
    ``cfg.collect_events``).  ``search_hat`` averages the payoff over the
    agents unmatched at ``burn_in`` and is NaN for a node that has none."""
    rng = np.random.default_rng(seed)
    log = [] if cfg.collect_events else None
    rho, alpha, r = params.rho, params.alpha, params.r
    T, burn = cfg.horizon, cfg.burn_in
    apn = cfg.agents_per_node
    n_agents = m * apn
    identity_kernel = cum_rows is None
    exp = math.exp

    node_of = [a // apn for a in range(n_agents)]
    # the unmatched agents, all of them and per node, with each agent's place
    # in both lists (stale while matched); a removal moves the last entry
    # into the freed slot
    free = list(range(n_agents))
    free_pos = list(range(n_agents))
    pools = [list(range(nd * apn, (nd + 1) * apn)) for nd in range(m)]
    pos = list(range(apn)) * m
    # standing matches as (a, b, node of a, node of b, start, flow of a,
    # flow of b); a divorce moves the last match into the dissolved one's slot
    pairs: list = []

    # per-node matched agent-time and per-agent discounted flow inside the
    # window, accrued when a match dissolves or the horizon cuts it
    matched = [0.0] * m
    payoff = [0.0] * n_agents

    # buffered draws: a block is refilled exactly when a draw finds it spent
    uniform = chain.from_iterable(map(_uniform_block, repeat(rng))).__next__
    exponential = chain.from_iterable(map(_exponential_block, repeat(rng))).__next__

    # unmatched agents call at rate rho / 2 each, and n_agents - 2 * n_matches
    # of them are unmatched, so both rates are tables over the match count
    half_rho = 0.5 * rho
    rate_meet_of = [half_rho * (n_agents - 2 * k) for k in range(n_agents // 2 + 1)]
    total_rate_of = [rate + alpha * k for k, rate in enumerate(rate_meet_of)]

    matches = divorces = failed = rejected = 0
    n_matches = 0
    rate_meet = rate_meet_of[0]
    total_rate = total_rate_of[0]
    t = 0.0
    # the loop first runs to burn-in, where it records who is unmatched, and
    # then to the horizon; one comparison per event serves both stops
    stop = burn
    unmatched_at_burn = None

    while True:
        t += exponential() / total_rate
        if t >= stop:
            if unmatched_at_burn is None:
                # statistics cover [burn_in, horizon]: count tallies from here on
                unmatched_at_burn = [False] * n_agents
                for a in free:
                    unmatched_at_burn[a] = True
                at_burn = (matches, divorces, failed, rejected)
                stop = T
            if t >= T:
                break

        # one uniform selects the event type; its conditional remainder is
        # itself uniform and reused to pick the caller / the dissolving match
        v = uniform() * total_rate
        if v < rate_meet:
            i_caller = int(v / half_rho)
            if i_caller >= len(free):  # guards the one-ulp rounding corner
                i_caller = len(free) - 1
            caller = free[i_caller]
            ni = node_of[caller]
            if identity_kernel:
                nj = ni
            else:
                cum = cum_rows[ni]
                nj = bisect_left(cum, uniform() * cum[-1])
                if nj >= m:
                    nj = m - 1
            pool = pools[nj]
            avail = len(pool) - 1 if nj == ni else len(pool)
            if avail <= 0:
                failed += 1
                if log is not None:
                    log.append((t, "fail", caller, -1))
                continue
            p_caller = pos[caller]
            idx = int(uniform() * avail)
            if nj == ni and idx >= p_caller:
                idx += 1
            other = pool[idx]
            if not accept_rows[ni][nj]:
                rejected += 1
                if log is not None:
                    log.append((t, "reject", caller, other))
                continue
            # match forms: take both agents out of their pools and the free list
            pool_i = pools[ni]
            last = pool_i.pop()
            if last != caller:
                pool_i[p_caller] = last
                pos[last] = p_caller
            p = pos[other]
            last = pool.pop()
            if last != other:
                pool[p] = last
                pos[last] = p
            last = free.pop()
            if last != caller:
                free[i_caller] = last
                free_pos[last] = i_caller
            p = free_pos[other]
            last = free.pop()
            if last != other:
                free[p] = last
                free_pos[last] = p
            pairs.append((caller, other, ni, nj, t, flow_rows[ni][nj], flow_rows[nj][ni]))
            n_matches += 1
            rate_meet = rate_meet_of[n_matches]
            total_rate = total_rate_of[n_matches]
            matches += 1
            if log is not None:
                log.append((t, "match", caller, other))
        else:
            idx = int((v - rate_meet) / alpha)
            if idx >= n_matches:
                idx = n_matches - 1
            a, b, na, nb, start, flow_a, flow_b = pairs[idx]
            pairs[idx] = pairs[-1]
            pairs.pop()
            n_matches -= 1
            rate_meet = rate_meet_of[n_matches]
            total_rate = total_rate_of[n_matches]
            lo = start if start > burn else burn
            if t > lo:
                span = exp(-r * (lo - burn)) - exp(-r * (t - burn))
                payoff[a] += flow_a * span / r
                payoff[b] += flow_b * span / r
                matched[na] += t - lo
                matched[nb] += t - lo
            # both agents return to their pools and the free list
            pool = pools[na]
            pos[a] = len(pool)
            pool.append(a)
            pool = pools[nb]
            pos[b] = len(pool)
            pool.append(b)
            free_pos[a] = len(free)
            free.append(a)
            free_pos[b] = len(free)
            free.append(b)
            divorces += 1
            if log is not None:
                log.append((t, "divorce", a, b))

    for a, b, na, nb, start, flow_a, flow_b in pairs:
        lo = start if start > burn else burn
        span = exp(-r * (lo - burn)) - exp(-r * (T - burn))
        payoff[a] += flow_a * span / r
        payoff[b] += flow_b * span / r
        matched[na] += T - lo
        matched[nb] += T - lo

    window = T - burn
    rep_u = 1.0 - np.array(matched) / (apn * window)
    pay = np.array(payoff).reshape(m, apn)
    rep_pay = r * pay.mean(axis=1)
    searching = np.array(unmatched_at_burn).reshape(m, apn)
    n_searching = searching.sum(axis=1)
    rep_search = np.full(m, np.nan)
    has = n_searching > 0
    rep_search[has] = r * (searching * pay).sum(axis=1)[has] / n_searching[has]
    matches, divorces, failed, rejected = (
        matches - at_burn[0], divorces - at_burn[1],
        failed - at_burn[2], rejected - at_burn[3])
    # every call of an unmatched agent ends in exactly one failure, rejection
    # or match, and is tallied once per participant
    meetings = 2 * (matches + failed + rejected)
    return rep_u, rep_pay, rep_search, np.array(
        [matches, divorces, meetings, failed, rejected], dtype=np.int64), log or []


def _uniform_block(rng):
    return rng.random(_BLOCK).tolist()


def _exponential_block(rng):
    return rng.standard_exponential(_BLOCK).tolist()


def pooled_deviations(mean, se, target) -> np.ndarray:
    """Signed per-node ``mean - target`` in pooled relative standard errors.

    ``mean`` and ``se`` are a simulated statistic and its standard error at
    each node, and ``target`` is the value the equilibrium predicts for it.
    Every node of an assortative platform runs the same dynamics scaled by
    its flow, so the statistic has the same relative standard error at every
    node.  Pooling the squared relative errors over the nodes gives a scale
    with far more degrees of freedom than each node's own error from a
    handful of replications, whose chance misses would fail sound runs.
    ``target`` must be nonzero at every node.
    """
    mean, se, target = (np.asarray(a, dtype=float) for a in (mean, se, target))
    if not mean.shape == se.shape == target.shape:
        raise ValueError("mean, standard error and target differ in shape")
    rel = float(np.sqrt(np.mean((se / target) ** 2)))
    return (mean - target) / (rel * np.abs(target))
