//! Criterion micro-benchmarks of the hot paths: GP posterior updates,
//! Cholesky factorization, one scheduler round, DSL parsing, and the
//! Appendix-B generator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use easeml::prelude::*;
use easeml_data::SynConfig;
use easeml_gp::{ArmPrior, GpPosterior, Kernel, RbfKernel};
use easeml_linalg::{Cholesky, Matrix};
use easeml_sched::PickRule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_cholesky(c: &mut Criterion) {
    let n = 64;
    let feats: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.1]).collect();
    let mut gram = RbfKernel::new(1.0).gram(&feats);
    gram.add_diag_mut(0.01);

    c.bench_function("cholesky/factor_64", |b| {
        b.iter(|| Cholesky::factor(black_box(&gram)).unwrap())
    });
}

fn bench_gp_posterior(c: &mut Criterion) {
    let k = 100;
    let feats: Vec<Vec<f64>> = (0..k).map(|i| vec![(i as f64) * 0.05]).collect();
    let prior = ArmPrior::from_kernel(&RbfKernel::new(1.0), &feats);

    c.bench_function("gp/observe_50th_of_100_arms", |b| {
        let mut warm = GpPosterior::new(prior.clone(), 1e-3);
        for i in 0..49 {
            warm.observe(i % k, 0.5);
        }
        b.iter_batched(
            || warm.clone(),
            |mut gp| {
                gp.observe(black_box(50), black_box(0.6));
                gp
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_scheduler_round(c: &mut Criterion) {
    let dataset = SynConfig {
        num_users: 10,
        num_models: 20,
        ..SynConfig::paper(0.5, 1.0)
    }
    .generate(1);
    let priors: Vec<ArmPrior> = (0..10).map(|_| ArmPrior::independent(20, 0.05)).collect();

    c.bench_function("sched/greedy_full_run_10x20_50pct", |b| {
        let cfg = SimConfig {
            budget: 100.0,
            cost_aware: false,
            noise_var: 1e-3,
            delta: 0.1,
            fault: None,
        };
        let unit = dataset.unit_cost_view();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            simulate(
                black_box(&unit),
                black_box(&priors),
                SchedulerKind::Greedy(PickRule::MaxUcbGap),
                &cfg,
                &mut rng,
            )
        })
    });
}

fn bench_dsl(c: &mut Criterion) {
    let src = "{input: {[Tensor[256, 256, 3]], []}, output: {[Tensor[1000]], []}}";
    c.bench_function("dsl/parse_and_match", |b| {
        b.iter(|| {
            let p = easeml_dsl::parse_program(black_box(src)).unwrap();
            easeml_dsl::match_templates(&p).unwrap()
        })
    });
}

fn bench_generator(c: &mut Criterion) {
    c.bench_function("data/syn_40x20", |b| {
        let cfg = SynConfig {
            num_users: 40,
            num_models: 20,
            ..SynConfig::paper(0.5, 1.0)
        };
        b.iter(|| cfg.generate(black_box(3)))
    });
    let m = {
        let feats: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 * 0.1]).collect();
        let mut g = RbfKernel::new(1.0).gram(&feats);
        g.add_diag_mut(0.01);
        g
    };
    c.bench_function("linalg/matmul_64", |b| {
        b.iter(|| black_box(&m).matmul(black_box(&m)).unwrap())
    });
    let _ = Matrix::identity(2); // keep the import obviously used
}

criterion_group!(
    benches,
    bench_cholesky,
    bench_gp_posterior,
    bench_scheduler_round,
    bench_dsl,
    bench_generator
);
criterion_main!(benches);
