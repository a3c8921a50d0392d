//! The trace-driven multi-tenant simulation (§5's evaluation protocol).
//!
//! A simulation replays a [`Dataset`]'s (quality, cost) matrix: at every
//! global round the scheduler picks a user, the user's model-picking policy
//! picks a model, the simulated GPU pool "trains" it — advancing one clock
//! by the pair's cost and revealing the pair's quality, since ease.ml runs
//! the whole pool as a single device (§4.5) — and the accuracy losses of all
//! users are recorded. This is exactly how the paper evaluates ease.ml
//! against its baselines: the schedulers only ever see (reward, cost)
//! observations, never the hidden matrix.
//!
//! The GP schedulers run on the execution engine ([`crate::exec`]) at one
//! unit-speed device, where a tick is one round; the §5.2 heuristics,
//! which run no GP policy, keep a loop of their own.

use crate::exec::{ExecEngine, Fleet};
use crate::fault::FaultConfig;
use easeml_bandit::policies::FixedOrder;
use easeml_bandit::{ArmPolicy, BetaSchedule, GpUcb};
use easeml_data::Dataset;
use easeml_dsl::zoo::{most_cited_order, most_recent_order, IMAGE_CLASSIFIERS};
use easeml_gp::ArmPrior;
use easeml_linalg::vec_ops;
use easeml_obs::{Component, Event, RecorderHandle};
use easeml_sched::{
    Fcfs, Greedy, Hybrid, PickRule, RandomPicker, Roster, RoundRobin, Tenant, UserPicker,
};

/// Which multi-tenant scheduler to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Round-robin users; each user trains the most-cited network first
    /// (§5.2 heuristic; requires the 8-model DEEPLEARNING zoo).
    MostCited,
    /// Round-robin users; most recently published network first (§5.2).
    MostRecent,
    /// First-come-first-served users, GP-UCB models (§4.1 strawman).
    Fcfs,
    /// Round-robin users, GP-UCB models (§4.2).
    RoundRobin,
    /// Random users, GP-UCB models (§5.3 baseline).
    Random,
    /// GREEDY users (Algorithm 2) with the given line-8 rule.
    Greedy(PickRule),
    /// HYBRID (§4.4) with the paper's settings.
    Hybrid,
    /// Ease.ml's shipped configuration — an alias for [`SchedulerKind::Hybrid`].
    EaseMl,
}

impl SchedulerKind {
    /// Canonical strategy name, used consistently by reports, recorded
    /// `SchedulerDecision` events, and the figure regeneration harness.
    /// GP-backed kinds match [`UserPicker::name`] of the picker they run,
    /// so a trace joins against a report row by string equality.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::MostCited => "most-cited",
            SchedulerKind::MostRecent => "most-recent",
            SchedulerKind::Fcfs => "fcfs",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::Random => "random",
            SchedulerKind::Greedy(PickRule::MaxUcbGap) => "greedy(max-gap)",
            SchedulerKind::Greedy(PickRule::MaxSigmaTilde) => "greedy(max-sigma)",
            SchedulerKind::Greedy(PickRule::Random) => "greedy(random)",
            SchedulerKind::Hybrid | SchedulerKind::EaseMl => "hybrid",
        }
    }

    /// The kind [`SchedulerKind::name`] names, or `None` for an unknown
    /// name. `"hybrid"` is [`SchedulerKind::Hybrid`], which
    /// [`SchedulerKind::EaseMl`] aliases.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "most-cited" => SchedulerKind::MostCited,
            "most-recent" => SchedulerKind::MostRecent,
            "fcfs" => SchedulerKind::Fcfs,
            "round-robin" => SchedulerKind::RoundRobin,
            "random" => SchedulerKind::Random,
            "greedy(max-gap)" => SchedulerKind::Greedy(PickRule::MaxUcbGap),
            "greedy(max-sigma)" => SchedulerKind::Greedy(PickRule::MaxSigmaTilde),
            "greedy(random)" => SchedulerKind::Greedy(PickRule::Random),
            "hybrid" => SchedulerKind::Hybrid,
            _ => return None,
        })
    }

    /// Whether this is one of §5.2's fixed-order heuristics, which run no
    /// GP policy and record no decision witnesses.
    pub fn is_heuristic(self) -> bool {
        matches!(self, SchedulerKind::MostCited | SchedulerKind::MostRecent)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Absolute cost budget: the simulation stops once the cumulative cost
    /// reaches it. With unit costs this is simply the number of runs.
    pub budget: f64,
    /// Whether the model-picking policies divide exploration by cost
    /// (§3.2). Budget accounting always uses the dataset's real costs.
    pub cost_aware: bool,
    /// Observation-noise variance for the GP posteriors.
    pub noise_var: f64,
    /// Failure probability δ of the β schedules.
    pub delta: f64,
    /// Optional fault injection: when set, every GP-scheduler training run
    /// passes through a seeded
    /// [`FaultInjector`](crate::fault::FaultInjector) built from this
    /// configuration. Failed runs are *censored* — their consumed cost
    /// advances the budget clock but no observation enters the posterior.
    pub fault: Option<FaultConfig>,
}

impl SimConfig {
    /// The default configuration: cost-aware arm selection (the paper's
    /// §3.2 twist), observation noise variance `1e-3` (matching the
    /// synthetic workload's quality-noise scale), confidence δ = 0.1, and
    /// no fault injection.
    pub fn new(budget: f64) -> Self {
        SimConfig {
            budget,
            cost_aware: true,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        }
    }
}

/// The loss trajectory of one simulated run.
///
/// Following the paper's plots (every strategy's Figure-9 curve starts at
/// the same ≈0.1 loss), the mandatory first pass that trains one model per
/// user is performed *outside* the budget: `initial_loss` is the mean loss
/// after that warm-up pass, and `points` only record budgeted rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    /// The configured budget.
    pub budget: f64,
    /// Mean accuracy loss after the budget-free warm-up pass (one model per
    /// user, chosen by the strategy itself).
    pub initial_loss: f64,
    /// `(cumulative cost, mean accuracy loss over users)` after every
    /// completed training run, in order.
    pub points: Vec<(f64, f64)>,
    /// One event per budgeted round, in completion order — enough to replay
    /// the §4.1 multi-tenant regret exactly.
    pub events: Vec<SimEvent>,
    /// Per-user accuracy losses at the end of the run.
    pub final_losses: Vec<f64>,
    /// Total rounds executed.
    pub rounds: usize,
}

/// One completed training run inside a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEvent {
    /// The served user.
    pub user: usize,
    /// The trained model.
    pub model: usize,
    /// The run's cost.
    pub cost: f64,
    /// The revealed quality.
    pub quality: f64,
}

impl SimTrace {
    /// Replays the trace through the §4.1 multi-tenant regret tracker.
    ///
    /// # Panics
    ///
    /// Panics if `mu_stars.len()` does not cover every user in the events.
    pub fn replay_regret(&self, mu_stars: Vec<f64>) -> easeml_sched::MultiTenantRegret {
        let mut tracker = easeml_sched::MultiTenantRegret::new(mu_stars);
        for e in &self.events {
            tracker.record_round(e.user, e.quality, e.cost);
        }
        tracker
    }
}

impl SimTrace {
    /// Mean loss once the cumulative cost reaches `cost` (step
    /// interpolation; `initial_loss` before the first point).
    pub fn loss_at(&self, cost: f64) -> f64 {
        let mut last = self.initial_loss;
        for &(c, l) in &self.points {
            if c <= cost {
                last = l;
            } else {
                break;
            }
        }
        last
    }

    /// Resamples the trace onto a grid of budget fractions in `[0, 1]`.
    pub fn resample(&self, fractions: &[f64]) -> Vec<f64> {
        fractions
            .iter()
            .map(|&f| self.loss_at(f * self.budget))
            .collect()
    }
}

/// Per-user loss bookkeeping shared by the heuristic simulator and the
/// execution engine: each tenant's best quality seen against the best its
/// dataset row holds.
#[derive(Debug, Clone)]
pub(crate) struct LossTracker {
    best_possible: Vec<f64>,
    best_seen: Vec<f64>,
    /// The mean of the losses, until some tenant's best next improves.
    cached_mean: Option<f64>,
}

impl LossTracker {
    /// Every tenant starting from a best of 0.
    pub(crate) fn new(dataset: &Dataset) -> Self {
        LossTracker {
            best_possible: (0..dataset.num_users())
                .map(|i| dataset.best_quality(i))
                .collect(),
            best_seen: vec![0.0; dataset.num_users()],
            cached_mean: None,
        }
    }

    /// Records a completed run's quality as its tenant's best if it is one.
    pub(crate) fn observe(&mut self, user: usize, quality: f64) {
        if quality > self.best_seen[user] {
            self.best_seen[user] = quality;
            self.cached_mean = None;
        }
    }

    /// Each user's loss, in user order.
    fn loss_terms(&self) -> impl Iterator<Item = f64> + '_ {
        self.best_possible
            .iter()
            .zip(&self.best_seen)
            .map(|(b, s)| (b - s).max(0.0))
    }

    /// Per-user accuracy losses (best possible minus best seen).
    pub(crate) fn losses(&self) -> Vec<f64> {
        self.loss_terms().collect()
    }

    /// `vec_ops::mean(&self.losses())` bit for bit: the same terms, summed
    /// in the same order, without collecting them. It is kept until some
    /// tenant's best improves.
    pub(crate) fn mean_loss(&mut self) -> f64 {
        if let Some(mean) = self.cached_mean {
            return mean;
        }
        let mean = match self.best_possible.len() {
            0 => 0.0,
            n => self.loss_terms().sum::<f64>() / n as f64,
        };
        self.cached_mean = Some(mean);
        mean
    }
}

/// Runs one multi-tenant simulation.
///
/// `dataset` must contain exactly the users to serve (select the test split
/// first); `priors` holds one GP prior per user (ignored by the heuristic
/// schedulers). The RNG drives the stochastic pickers; everything else is
/// deterministic.
///
/// # Examples
///
/// ```
/// use easeml::prelude::*;
/// use easeml_gp::ArmPrior;
/// use rand::SeedableRng;
///
/// let dataset = easeml_data::SynConfig {
///     num_users: 4,
///     num_models: 3,
///     ..easeml_data::SynConfig::paper(0.5, 0.5)
/// }
/// .generate(1);
/// let priors: Vec<ArmPrior> =
///     (0..4).map(|_| ArmPrior::independent(3, 0.05)).collect();
/// let cfg = SimConfig::new(dataset.total_cost() * 0.3);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let trace = simulate(&dataset, &priors, SchedulerKind::EaseMl, &cfg, &mut rng);
/// // Losses never increase as the budget is consumed.
/// assert!(trace.points.last().unwrap().1 <= trace.initial_loss);
/// ```
///
/// # Panics
///
/// Panics if `priors.len()` does not match the number of users (for GP
/// schedulers), if a heuristic scheduler is used on a dataset that is not
/// zoo-shaped (8 models), on non-positive budget, or when a completed run's
/// cost (after any straggler factor) is not positive and finite.
pub fn simulate(
    dataset: &Dataset,
    priors: &[ArmPrior],
    kind: SchedulerKind,
    cfg: &SimConfig,
    rng: &mut dyn rand::RngCore,
) -> SimTrace {
    simulate_with_recorder(dataset, priors, kind, cfg, rng, &RecorderHandle::noop())
}

/// [`simulate`] with an observability sink attached: the picker, every
/// tenant's GP-UCB policy, and the engine itself emit structured events
/// through `recorder`. The recorded `TrainingCompleted` events mirror the
/// returned [`SimTrace::events`] one-to-one, in order, so a JSONL trace
/// replays the run exactly. Passing [`RecorderHandle::noop`] (what
/// [`simulate`] does) keeps the hot path allocation-free.
///
/// # Panics
///
/// Same contract as [`simulate`].
pub fn simulate_with_recorder(
    dataset: &Dataset,
    priors: &[ArmPrior],
    kind: SchedulerKind,
    cfg: &SimConfig,
    rng: &mut dyn rand::RngCore,
    recorder: &RecorderHandle,
) -> SimTrace {
    assert!(cfg.budget > 0.0, "budget must be positive");
    if kind.is_heuristic() {
        return simulate_heuristic(dataset, kind, cfg, recorder);
    }
    // The GP schedulers run on the engine at one unit device, drawing from
    // the caller's stream. There a tick is one round, so each runs under
    // the round's span and timer.
    let fleet = Fleet::uniform(1);
    let mut engine = ExecEngine::with_rng(dataset, priors, kind, cfg, fleet, rng, recorder.clone());
    while engine.committed() < cfg.budget {
        let _round = recorder.time(Component::SimRound);
        let _step_span = recorder.span("scheduler_step");
        engine.tick();
    }
    engine.finish().sim
}

/// The §5.2 heuristics: round-robin users, fixed model order per user.
fn simulate_heuristic(
    dataset: &Dataset,
    kind: SchedulerKind,
    cfg: &SimConfig,
    recorder: &RecorderHandle,
) -> SimTrace {
    assert_eq!(
        dataset.num_models(),
        IMAGE_CLASSIFIERS.len(),
        "MOSTCITED/MOSTRECENT model the DEEPLEARNING zoo and need 8 models"
    );
    let order = match kind {
        SchedulerKind::MostCited => most_cited_order(&IMAGE_CLASSIFIERS),
        SchedulerKind::MostRecent => most_recent_order(&IMAGE_CLASSIFIERS),
        _ => unreachable!("not a heuristic scheduler"),
    };
    let n = dataset.num_users();
    let mut policies: Vec<FixedOrder> = (0..n).map(|_| FixedOrder::new(order.clone())).collect();
    let mut losses = LossTracker::new(dataset);
    let mut clock = 0.0;
    let mut points = Vec::new();
    let mut dummy_rng = rand::rngs::mock::StepRng::new(0, 1);

    // Budget-free, scheduler-independent warm-up pass (see SimTrace docs):
    // each user starts with her cheapest model already trained.
    for user in 0..n {
        let model = cheapest_model(dataset, user);
        let quality = dataset.quality(user, model);
        policies[user].observe(model, quality);
        losses.observe(user, quality);
    }
    let initial_loss = losses.mean_loss();

    let mut step = 0usize;
    let mut events = Vec::new();
    while clock < cfg.budget {
        let _round = recorder.time(Component::SimRound);
        let _step_span = recorder.span("scheduler_step");
        let user = {
            let _pick = recorder.span("pick_user");
            let user = step % n;
            recorder.emit(|| Event::SchedulerDecision {
                round: step as u64,
                user,
                rule: kind.name().to_string(),
                scores: Vec::new(),
                parent: easeml_obs::current_span(),
            });
            user
        };
        let model = policies[user].select(&mut dummy_rng);
        let quality = dataset.quality(user, model);
        let cost = dataset.cost(user, model);
        {
            let _train = recorder.span("train");
            assert_billable(cost);
            clock += cost;
            recorder.emit(|| Event::TrainingCompleted {
                user,
                model,
                cost,
                quality,
                parent: easeml_obs::current_span(),
            });
        }
        policies[user].observe(model, quality);
        losses.observe(user, quality);
        points.push((clock, losses.mean_loss()));
        events.push(SimEvent {
            user,
            model,
            cost,
            quality,
        });
        recorder.count("sim/rounds", 1);
        step += 1;
    }
    recorder.gauge("sim/makespan", clock);
    recorder.gauge("sim/mean-loss", losses.mean_loss());
    SimTrace {
        budget: cfg.budget,
        initial_loss,
        points,
        events,
        final_losses: losses.losses(),
        rounds: step,
    }
}

/// The user's cheapest model (lowest index on ties) — the neutral warm-up
/// choice every strategy starts from.
///
/// # Panics
///
/// Panics on an empty dataset.
pub(crate) fn cheapest_model(dataset: &Dataset, user: usize) -> usize {
    vec_ops::argmin(dataset.user_costs(user)).expect("non-empty dataset")
}

/// The multi-tenant β schedule every tenant policy runs under (the §4
/// exploration coefficient): `c* = max cost` when cost-aware, else 1.
fn tenant_beta(dataset: &Dataset, cfg: &SimConfig) -> BetaSchedule {
    let c_star = if cfg.cost_aware {
        dataset
            .cost_matrix()
            .as_slice()
            .iter()
            .copied()
            .fold(0.0, f64::max)
    } else {
        1.0
    };
    BetaSchedule::MultiTenant {
        max_cost: c_star,
        num_tenants: dataset.num_users(),
        max_arms: dataset.num_models(),
        delta: cfg.delta,
    }
}

/// Builds one [`Tenant`] per user with the multi-tenant β schedule derived
/// from `cfg` — the execution engine's roster.
pub(crate) fn build_tenants(
    dataset: &Dataset,
    priors: &[ArmPrior],
    cfg: &SimConfig,
    recorder: &RecorderHandle,
) -> Roster {
    let n = dataset.num_users();
    let beta = tenant_beta(dataset, cfg);
    (0..n)
        .map(|i| {
            let policy = if cfg.cost_aware {
                GpUcb::cost_aware(
                    priors[i].clone(),
                    cfg.noise_var,
                    beta,
                    dataset.user_costs(i).to_vec(),
                )
            } else {
                GpUcb::cost_oblivious(priors[i].clone(), cfg.noise_var, beta)
            };
            Tenant::new(i, policy.with_recorder(recorder.clone(), i))
        })
        .collect()
}

/// Instantiates the user-picking strategy for a GP scheduler kind, with the
/// recorder attached — the execution engine's picker factory. A HYBRID picker stays reachable through
/// [`UserPicker::as_hybrid`], so a checkpoint can store its freeze
/// detector.
///
/// # Panics
///
/// Panics on the heuristic kinds ([`SchedulerKind::MostCited`],
/// [`SchedulerKind::MostRecent`]), which run no GP policy and have no
/// picker.
pub(crate) fn make_picker(kind: SchedulerKind, recorder: &RecorderHandle) -> Box<dyn UserPicker> {
    let mut picker: Box<dyn UserPicker> = match kind {
        SchedulerKind::Fcfs => Box::new(Fcfs::default()),
        SchedulerKind::RoundRobin => Box::new(RoundRobin::default()),
        SchedulerKind::Random => Box::new(RandomPicker::default()),
        SchedulerKind::Greedy(rule) => Box::new(Greedy::new(rule)),
        SchedulerKind::Hybrid | SchedulerKind::EaseMl => Box::new(Hybrid::ease_ml()),
        SchedulerKind::MostCited | SchedulerKind::MostRecent => {
            panic!("heuristic scheduler kinds are not supported by a user picker")
        }
    };
    picker.set_recorder(recorder.clone());
    picker
}

/// Panics unless a completed run's cost (the dataset's, times any
/// straggler factor) is positive and finite: a NaN would poison the clock,
/// and zero or ∞ would stall or end the run.
pub(crate) fn assert_billable(cost: f64) {
    assert!(
        cost.is_finite() && cost > 0.0,
        "training cost must be positive and finite, got {cost}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_data::SynConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_name_inverts_name() {
        for kind in [
            SchedulerKind::MostCited,
            SchedulerKind::MostRecent,
            SchedulerKind::Fcfs,
            SchedulerKind::RoundRobin,
            SchedulerKind::Random,
            SchedulerKind::Greedy(PickRule::MaxUcbGap),
            SchedulerKind::Greedy(PickRule::MaxSigmaTilde),
            SchedulerKind::Greedy(PickRule::Random),
            SchedulerKind::Hybrid,
        ] {
            assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(
            SchedulerKind::from_name(SchedulerKind::EaseMl.name()),
            Some(SchedulerKind::Hybrid)
        );
        assert_eq!(SchedulerKind::from_name("ease-ml"), None);
    }

    fn small_dataset() -> Dataset {
        SynConfig {
            num_users: 5,
            num_models: 4,
            ..SynConfig::paper(0.5, 0.5)
        }
        .generate(3)
    }

    fn flat_priors(dataset: &Dataset) -> Vec<ArmPrior> {
        (0..dataset.num_users())
            .map(|_| ArmPrior::independent(dataset.num_models(), 0.05))
            .collect()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn gp_schedulers_respect_the_budget_and_record_points() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::RoundRobin,
            SchedulerKind::Random,
            SchedulerKind::Greedy(PickRule::MaxUcbGap),
            SchedulerKind::Hybrid,
            SchedulerKind::EaseMl,
        ] {
            let cfg = SimConfig {
                budget: 6.0,
                cost_aware: true,
                noise_var: 1e-3,
                delta: 0.1,
                fault: None,
            };
            let t = simulate(&d, &priors, kind, &cfg, &mut rng());
            assert!(!t.points.is_empty(), "{}", kind.name());
            assert_eq!(t.points.len(), t.rounds);
            // The loop stops within one run of the budget.
            let last_cost = t.points.last().unwrap().0;
            assert!(
                last_cost >= 6.0,
                "{} stopped early at {last_cost}",
                kind.name()
            );
            // Costs increase monotonically; losses never increase.
            for w in t.points.windows(2) {
                assert!(w[1].0 > w[0].0);
                assert!(w[1].1 <= w[0].1 + 1e-12);
            }
            assert_eq!(t.final_losses.len(), 5);
        }
    }

    #[test]
    fn straggler_factors_that_break_the_clock_panic() {
        // Every run straggles, so its cost is the dataset's times the factor.
        let d = small_dataset();
        let priors = flat_priors(&d);
        for factor in [0.0, f64::NAN, f64::INFINITY] {
            let cfg = SimConfig {
                fault: Some(FaultConfig::new(5).with_stragglers(1.0, factor)),
                ..SimConfig::new(6.0)
            };
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                simulate(&d, &priors, SchedulerKind::EaseMl, &cfg, &mut rng())
            }))
            .expect_err("a run cost the factor breaks must panic");
            let message = panic
                .downcast_ref::<String>()
                .expect("the panic carries a formatted message");
            assert!(
                message.contains("positive and finite"),
                "factor {factor}: {message}"
            );
        }
    }

    #[test]
    fn recorder_trace_replays_sim_events_exactly() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig::new(12.0);
        let rec = Arc::new(InMemoryRecorder::new());
        let handle = RecorderHandle::new(rec.clone());
        let trace = simulate_with_recorder(
            &d,
            &priors,
            SchedulerKind::EaseMl,
            &cfg,
            &mut rng(),
            &handle,
        );

        // Recording must not perturb the run: same seed, same trace.
        let plain = simulate(&d, &priors, SchedulerKind::EaseMl, &cfg, &mut rng());
        assert_eq!(trace.events, plain.events);
        assert_eq!(trace.points, plain.points);

        // The TrainingCompleted stream mirrors SimTrace::events one-to-one.
        let completed: Vec<SimEvent> = rec
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::TrainingCompleted {
                    user,
                    model,
                    cost,
                    quality,
                    ..
                } => Some(SimEvent {
                    user,
                    model,
                    cost,
                    quality,
                }),
                _ => None,
            })
            .collect();
        assert_eq!(completed, trace.events);

        // Every decision carries the canonical strategy name, one per
        // budgeted round, and the bandit layer reported its arm pulls.
        let counts = rec.event_counts();
        assert_eq!(
            counts.get("SchedulerDecision"),
            Some(&trace.rounds),
            "one decision per budgeted round"
        );
        assert!(rec.events().iter().all(|e| match e {
            Event::SchedulerDecision { rule, .. } => rule == SchedulerKind::EaseMl.name(),
            _ => true,
        }));
        assert!(counts.get("ArmChosen").copied().unwrap_or(0) >= trace.rounds);
        assert_eq!(rec.counter("sim/rounds"), trace.rounds as u64);
        assert_eq!(
            rec.gauge("sim/mean-loss"),
            Some(vec_ops::mean(&trace.final_losses))
        );

        // And the JSONL export round-trips the whole trace. Compare the
        // re-serialized forms: the NaN margins a non-scoring round's
        // DecisionWitness carries (NaN != NaN under PartialEq) still
        // round-trip through their `null` serialization.
        let parsed: Vec<String> = rec
            .to_jsonl()
            .lines()
            .map(|l| Event::from_json(l).unwrap().to_json())
            .collect();
        let expected: Vec<String> = rec.events().iter().map(Event::to_json).collect();
        assert_eq!(parsed, expected);
    }

    #[test]
    fn witness_chain_commits_every_round_with_a_deterministic_digest() {
        use crate::fault::FaultConfig;
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig {
            budget: 14.0,
            cost_aware: true,
            noise_var: 1e-3,
            delta: 0.1,
            fault: Some(FaultConfig::new(5).with_crash_rate(0.3)),
        };
        let run = || {
            let rec = Arc::new(InMemoryRecorder::new());
            let handle = RecorderHandle::new(rec.clone());
            let trace = simulate_with_recorder(
                &d,
                &priors,
                SchedulerKind::EaseMl,
                &cfg,
                &mut rng(),
                &handle,
            );
            (rec, trace)
        };
        let (rec, trace) = run();
        let witnesses: Vec<(u64, bool, String)> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::DecisionWitness {
                    round,
                    censored,
                    digest,
                    ..
                } => Some((*round, *censored, digest.clone())),
                _ => None,
            })
            .collect();
        let censored = witnesses.iter().filter(|w| w.1).count();
        assert!(censored > 0, "fault injection should censor some rounds");
        // One witness per step — completed and censored alike — with
        // consecutive round numbers.
        assert_eq!(witnesses.len(), trace.rounds + censored);
        for (i, w) in witnesses.iter().enumerate() {
            assert_eq!(w.0, i as u64, "witness rounds are the step counter");
        }
        // Censored witnesses name the failure; healthy ones don't.
        for e in rec.events().iter() {
            if let Event::DecisionWitness {
                censored, fallback, ..
            } = e
            {
                assert_eq!(*censored, !fallback.is_empty(), "{e:?}");
            }
        }
        // Same seed, same scenario: bit-identical digest trajectory.
        let (rec2, _) = run();
        let digests2: Vec<String> = rec2
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::DecisionWitness { digest, .. } => Some(digest.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            witnesses.iter().map(|w| w.2.clone()).collect::<Vec<_>>(),
            digests2
        );
        // The obs-side fold sees only committed (untorn) witnesses.
        let records = easeml_obs::witness_records(&rec.events());
        assert_eq!(records.len(), witnesses.len());
        assert!(records.iter().all(|r| !r.top_arms.is_empty()));
    }

    #[test]
    fn heuristic_recorder_mirrors_events() {
        use easeml_obs::InMemoryRecorder;
        use std::sync::Arc;
        let d = easeml_data::deeplearning::generate(1).select_users(&[0, 1, 2]);
        let cfg = SimConfig::new(d.total_cost() * 0.25);
        let rec = Arc::new(InMemoryRecorder::new());
        let handle = RecorderHandle::new(rec.clone());
        let trace =
            simulate_with_recorder(&d, &[], SchedulerKind::MostCited, &cfg, &mut rng(), &handle);
        let counts = rec.event_counts();
        assert_eq!(counts.get("TrainingCompleted"), Some(&trace.rounds));
        assert_eq!(counts.get("SchedulerDecision"), Some(&trace.rounds));
        assert_eq!(rec.timing(Component::SimRound).count(), trace.rounds as u64);
    }

    #[test]
    fn unit_cost_simulation_counts_runs() {
        let d = small_dataset().unit_cost_view();
        let priors = flat_priors(&d);
        let cfg = SimConfig {
            budget: 10.0, // 10 runs
            cost_aware: false,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        let t = simulate(&d, &priors, SchedulerKind::RoundRobin, &cfg, &mut rng());
        assert_eq!(t.rounds, 10);
        assert_eq!(t.points.last().unwrap().0, 10.0);
    }

    #[test]
    fn round_robin_serves_users_evenly() {
        // Weak model influence keeps every quality strictly positive, so
        // "served at least once" is visible as a loss strictly below a*.
        let d = SynConfig {
            num_users: 5,
            num_models: 4,
            ..SynConfig::paper(0.5, 0.1)
        }
        .generate(3)
        .unit_cost_view();
        let priors = flat_priors(&d);
        let cfg = SimConfig {
            budget: 15.0,
            cost_aware: false,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        let t = simulate(&d, &priors, SchedulerKind::RoundRobin, &cfg, &mut rng());
        // 15 unit-cost runs over 5 users: each user's loss must have had a
        // chance to drop: final losses are all below the per-user maximum.
        assert_eq!(t.rounds, 15);
        for (i, &l) in t.final_losses.iter().enumerate() {
            assert!(l < d.best_quality(i), "user {i} never served");
        }
    }

    #[test]
    fn heuristics_run_on_zoo_shaped_datasets() {
        let d = easeml_data::deeplearning::generate(1).select_users(&[0, 1, 2]);
        let cfg = SimConfig {
            budget: d.total_cost() * 0.5,
            cost_aware: true,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        for kind in [SchedulerKind::MostCited, SchedulerKind::MostRecent] {
            let t = simulate(&d, &[], kind, &cfg, &mut rng());
            assert!(!t.points.is_empty());
            // The warm-up pass trains one model per user, so the initial
            // loss is the gap to the best model, well below a*.
            assert!(t.initial_loss < 0.5, "warm-up pass should cap the loss");
            assert!(t.initial_loss > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "8 models")]
    fn heuristics_reject_non_zoo_datasets() {
        let d = small_dataset();
        let cfg = SimConfig::new(5.0);
        let _ = simulate(&d, &[], SchedulerKind::MostCited, &cfg, &mut rng());
    }

    #[test]
    fn events_record_every_budgeted_round_and_replay_regret() {
        let d = small_dataset();
        let priors = flat_priors(&d);
        let cfg = SimConfig {
            budget: 8.0,
            cost_aware: true,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        let t = simulate(&d, &priors, SchedulerKind::Hybrid, &cfg, &mut rng());
        assert_eq!(t.events.len(), t.rounds);
        for e in &t.events {
            assert!(e.user < d.num_users());
            assert!(e.model < d.num_models());
            assert_eq!(e.quality, d.quality(e.user, e.model));
            assert_eq!(e.cost, d.cost(e.user, e.model));
        }
        // The replayed regret tracker agrees on total cost and dominates
        // the ease.ml regret variant.
        let mu_stars: Vec<f64> = (0..d.num_users()).map(|i| d.best_quality(i)).collect();
        let reg = t.replay_regret(mu_stars);
        assert_eq!(reg.rounds(), t.rounds);
        let total: f64 = t.events.iter().map(|e| e.cost).sum();
        assert!((reg.total_cost() - total).abs() < 1e-9);
        assert!(reg.easeml_cumulative() <= reg.cumulative() + 1e-9);
    }

    #[test]
    fn trace_resampling_is_a_step_function() {
        let t = SimTrace {
            budget: 10.0,
            initial_loss: 1.0,
            points: vec![(2.0, 0.5), (6.0, 0.2)],
            events: vec![],
            final_losses: vec![0.2],
            rounds: 2,
        };
        assert_eq!(t.loss_at(0.0), 1.0);
        assert_eq!(t.loss_at(1.9), 1.0);
        assert_eq!(t.loss_at(2.0), 0.5);
        assert_eq!(t.loss_at(5.9), 0.5);
        assert_eq!(t.loss_at(6.0), 0.2);
        assert_eq!(t.loss_at(100.0), 0.2);
        assert_eq!(
            t.resample(&[0.0, 0.5, 1.0]),
            vec![1.0, 0.5, 0.2] // at 0%, 50% (cost 5), 100% (cost 10)
        );
    }

    #[test]
    fn informative_prior_beats_flat_prior_for_greedy() {
        // Build a dataset with strong model correlation and give one
        // simulation the true covariance: it should reach low loss with
        // less cost than an independent prior on average.
        let d = SynConfig {
            num_users: 6,
            num_models: 12,
            ..SynConfig::paper(1.0, 1.0)
        }
        .generate(9);
        let feats: Vec<Vec<f64>> =
            easeml_data::model_quality_features(&d, &(0..3).collect::<Vec<_>>());
        let test = d.select_users(&[3, 4, 5]);
        let informed: Vec<ArmPrior> = (0..3)
            .map(|_| {
                ArmPrior::from_kernel(&easeml_gp::RbfKernel::new(0.5), &feats)
                    .scaled(0.05)
                    .with_mean(feats.iter().map(|f| vec_ops::mean(f)).collect())
            })
            .collect();
        let flat: Vec<ArmPrior> = (0..3).map(|_| ArmPrior::independent(12, 0.05)).collect();
        let cfg = SimConfig {
            budget: 12.0,
            cost_aware: false,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        let d_unit = test.unit_cost_view();
        let mut informed_final = 0.0;
        let mut flat_final = 0.0;
        for seed in 0..8 {
            let mut r = StdRng::seed_from_u64(seed);
            informed_final += simulate(&d_unit, &informed, SchedulerKind::Hybrid, &cfg, &mut r)
                .final_losses
                .iter()
                .sum::<f64>();
            let mut r = StdRng::seed_from_u64(seed);
            flat_final += simulate(&d_unit, &flat, SchedulerKind::Hybrid, &cfg, &mut r)
                .final_losses
                .iter()
                .sum::<f64>();
        }
        assert!(
            informed_final <= flat_final + 0.3,
            "informed prior should not be much worse: {informed_final:.3} vs {flat_final:.3}"
        );
    }
}
