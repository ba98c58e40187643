"""Event-driven continuous-time simulation of search on a platform.

Two aggregate exponential clocks drive a replication: pair-meeting calls at
rate ``rho / 2`` per included agent and divorces at rate ``alpha`` per
standing match.  A meeting call picks a caller uniformly over all included
agents; a matched caller misses the call.  An unmatched caller draws a
partner node from their kernel row and meets a uniform *unmatched* agent of
that node (the caller never meets itself); the meeting fails when no such
agent exists.  The match forms exactly when output covers both reservation
wages.  Drawing partners from the unmatched pool is what makes the per-node
steady state solve the flow-balance condition ``alpha (1 - u) = rho u`` on
assortative platforms exactly, with no population-size bias; an availability
lottery over all agents would instead equate divorce inflow with a
quadratic-in-``u`` outflow.

While matched, an agent of node ``i`` paired with node ``j`` accrues flow
``(f(x_i, x_j) + w_i - w_j) / 2``; unmatched agents accrue nothing.
Statistics are collected after ``burn_in``: time-weighted unmatched
fractions per node, tallies, and the discounted payoff
``r * integral e^{-r (t - burn_in)} flow dt`` per agent, averaged per node in
two ways:

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
bit for bit, for any number of workers.  Each replication takes its
draws from its own generator in blocks of 65 536: standard exponentials for
the waiting times, uniforms for the event type, the partner node and the
partner within that node's pool.  A block is refilled exactly when a draw
finds it spent, so the sequence of block requests follows the events.  That
order, and the floating-point operations that turn draws into events, are
part of the reproducibility contract: a change to either moves every
simulation artifact, and ``tests/test_simulator.py`` pins digests of the
event stream.  (numpy does not promise ``Generator`` streams across its own
versions, NEP 19.)
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import (
    EmptyMarketError,
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


@dataclass(frozen=True, eq=False)
class SimOutcome:
    """Replication-averaged statistics of a simulation run.

    Standard errors are across replications (zero for a single replication).
    Tallies are totals over all replications and count only the post-burn-in
    window; every meeting call is tallied once per participant.

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
    if not platform.is_consistent:
        raise ValueError(
            f"platform is not consistent (defect {platform.consistency_defect():g})")
    grid = platform.grid
    n, k = grid.n, platform.cutoff
    m = n - k
    if m == 0:
        raise EmptyMarketError("no included types to simulate")
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"wage vector must have length {n}")
    check_discount_window(params, cfg)

    Fb = f.values(grid)[k:, k:]
    wb = w[k:]
    accept = acceptance(Fb, wb)
    flow = 0.5 * (Fb + wb[:, None] - wb[None, :])
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
            "discounted payoffs would carry a truncation bias above 1e-3")


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
    # the unmatched agents of each node, and each agent's place in its pool
    # (-1 while matched)
    pools = [list(range(nd * apn, (nd + 1) * apn)) for nd in range(m)]
    pos = list(range(apn)) * m
    # standing matches as (a, b, start, flow of a, flow of b); a divorce
    # moves the last match into the dissolved one's slot
    pairs: list = []

    # per-node unmatched time, accrued whenever a node's pool changes size,
    # and per-agent discounted flow, accrued when a match dissolves
    utime = [0.0] * m
    ulast = [0.0] * m
    payoff = [0.0] * n_agents

    # buffered draws: a block is refilled exactly when a draw finds it spent
    uniforms = exps = None
    iu = ie = _BLOCK

    matches = divorces = failed = rejected = 0
    n_matches = 0
    rate_meet = 0.5 * rho * n_agents
    total_rate = rate_meet + alpha * n_matches
    t = 0.0
    # the loop first runs to burn-in, where it records who is unmatched, and
    # then to the horizon; one comparison per event serves both stops
    stop = burn
    unmatched_at_burn = None

    while True:
        if ie == _BLOCK:
            exps = rng.standard_exponential(_BLOCK).tolist()
            ie = 0
        t += exps[ie] / total_rate
        ie += 1
        if t >= stop:
            if unmatched_at_burn is None:
                # statistics cover [burn_in, horizon]: drop the unmatched time
                # accrued so far and count tallies from here on
                unmatched_at_burn = [p >= 0 for p in pos]
                utime = [0.0] * m
                ulast = [burn] * m
                at_burn = (matches, divorces, failed, rejected)
                stop = T
            if t >= T:
                break

        # one uniform selects the event type; its conditional remainder is
        # itself uniform and reused to pick the caller / the dissolving match
        if iu == _BLOCK:
            uniforms = rng.random(_BLOCK).tolist()
            iu = 0
        v = uniforms[iu] * total_rate
        iu += 1
        if v < rate_meet:
            caller = int(v / rate_meet * n_agents)
            if caller >= n_agents:  # guards the one-ulp rounding corner
                caller = n_agents - 1
            p_caller = pos[caller]
            if p_caller < 0:
                failed += 1
                if log is not None:
                    log.append((t, "miss", caller, -1))
                continue
            ni = node_of[caller]
            if identity_kernel:
                nj = ni
            else:
                if iu == _BLOCK:
                    uniforms = rng.random(_BLOCK).tolist()
                    iu = 0
                cum = cum_rows[ni]
                nj = bisect_left(cum, uniforms[iu] * cum[-1])
                iu += 1
                if nj >= m:
                    nj = m - 1
            pool = pools[nj]
            avail = len(pool) - 1 if nj == ni else len(pool)
            if avail <= 0:
                failed += 1
                if log is not None:
                    log.append((t, "fail", caller, -1))
                continue
            if iu == _BLOCK:
                uniforms = rng.random(_BLOCK).tolist()
                iu = 0
            idx = int(uniforms[iu] * avail)
            iu += 1
            if nj == ni and idx >= p_caller:
                idx += 1
            other = pool[idx]
            if not accept_rows[ni][nj]:
                rejected += 1
                if log is not None:
                    log.append((t, "reject", caller, other))
                continue
            # match forms: accrue unmatched time at the old pool sizes, then
            # take both agents out of their pools
            pool_i = pools[ni]
            utime[ni] += len(pool_i) * (t - ulast[ni])
            ulast[ni] = t
            if nj != ni:
                utime[nj] += len(pool) * (t - ulast[nj])
                ulast[nj] = t
            last = pool_i.pop()
            if last != caller:
                pool_i[p_caller] = last
                pos[last] = p_caller
            pos[caller] = -1
            p = pos[other]
            last = pool.pop()
            if last != other:
                pool[p] = last
                pos[last] = p
            pos[other] = -1
            pairs.append((caller, other, t, flow_rows[ni][nj], flow_rows[nj][ni]))
            n_matches += 1
            total_rate = rate_meet + alpha * n_matches
            matches += 1
            if log is not None:
                log.append((t, "match", caller, other))
        else:
            idx = int((v - rate_meet) / (total_rate - rate_meet) * n_matches)
            if idx >= n_matches:
                idx = n_matches - 1
            a, b, start, flow_a, flow_b = pairs[idx]
            pairs[idx] = pairs[-1]
            pairs.pop()
            n_matches -= 1
            total_rate = rate_meet + alpha * n_matches
            lo = start if start > burn else burn
            if t > lo:
                span = exp(-r * (lo - burn)) - exp(-r * (t - burn))
                payoff[a] += flow_a * span / r
                payoff[b] += flow_b * span / r
            # accrue unmatched time at the old pool sizes, then return both
            # agents to their pools
            na, nb = node_of[a], node_of[b]
            pool = pools[na]
            utime[na] += len(pool) * (t - ulast[na])
            ulast[na] = t
            pos[a] = len(pool)
            pool.append(a)
            if nb != na:
                pool = pools[nb]
                utime[nb] += len(pool) * (t - ulast[nb])
                ulast[nb] = t
            pos[b] = len(pool)
            pool.append(b)
            divorces += 1
            if log is not None:
                log.append((t, "divorce", a, b))

    for nd in range(m):
        utime[nd] += len(pools[nd]) * (T - ulast[nd])
    for a, b, start, flow_a, flow_b in pairs:
        lo = start if start > burn else burn
        span = exp(-r * (lo - burn)) - exp(-r * (T - burn))
        payoff[a] += flow_a * span / r
        payoff[b] += flow_b * span / r

    window = T - burn
    rep_u = np.array(utime) / (apn * window)
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
    # every meeting call ends in exactly one miss, failure, rejection or
    # match, and is tallied once per participant
    meetings = 2 * (matches + failed + rejected)
    return rep_u, rep_pay, rep_search, np.array(
        [matches, divorces, meetings, failed, rejected], dtype=np.int64), log or []


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
