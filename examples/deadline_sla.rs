//! Extension example: deadline-aware scheduling (§4.5's open question of
//! integrating "hard rules such as each user's deadline").
//!
//! Three research groups share the cluster. The meteorology group has a
//! conference deadline: it must have been served at least 4 times by global
//! round 6, no matter what the greedy potential estimates say. The
//! `DeadlinePicker` wrapper preempts GREEDY exactly when needed and
//! delegates otherwise.
//!
//! Run with: `cargo run --example deadline_sla`

use easeml_bandit::{BetaSchedule, GpUcb};
use easeml_gp::ArmPrior;
use easeml_sched::{Deadline, DeadlinePicker, Greedy, PickRule, Roster, Tenant, UserPicker};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let names = ["astro", "meteo", "biology"];
    let k = 4; // candidate models per group
               // Ground truth the scheduler cannot see.
    let qualities = [
        [0.90, 0.70, 0.65, 0.60], // astro: huge potential, greedy loves it
        [0.55, 0.58, 0.60, 0.62], // meteo: small gains, greedy would starve it
        [0.80, 0.75, 0.70, 0.72],
    ];

    let beta = BetaSchedule::MultiTenant {
        max_cost: 1.0,
        num_tenants: 3,
        max_arms: k,
        delta: 0.1,
    };
    let mut tenants: Roster = (0..3)
        .map(|i| {
            Tenant::new(
                i,
                GpUcb::cost_oblivious(ArmPrior::independent(k, 0.05), 1e-3, beta),
            )
        })
        .collect();

    // Meteo (tenant 1) must be served ≥ 4 times by round 6.
    let deadlines = vec![
        None,
        Some(Deadline {
            round: 6,
            min_serves: 4,
        }),
        None,
    ];
    let mut picker = DeadlinePicker::new(Greedy::new(PickRule::MaxUcbGap), deadlines, 6);
    let mut rng = StdRng::seed_from_u64(7);

    // Warm-up: one serve each (Algorithm 2 lines 1–4).
    for i in 0..tenants.len() {
        let m = tenants[i].select_model();
        tenants.observe(i, m, qualities[i][m]);
    }

    println!("round  served   reason                serves(meteo)");
    for step in 0..10 {
        let urgent = picker.most_urgent(&tenants, step);
        let u = picker.pick(&tenants, step, &mut rng);
        let m = tenants[u].select_model();
        tenants.observe(u, m, qualities[u][m]);
        picker.after_observe(&tenants, u);
        let reason = match urgent {
            Some(x) if x == u => "deadline override",
            _ => "greedy potential",
        };
        println!(
            "{step:>5}  {:<8} {:<21} {}",
            names[u],
            reason,
            tenants[1].serves()
        );
    }

    let meteo_serves = tenants[1].serves();
    println!("\nmeteo was served {meteo_serves} times (deadline required 4 by round 6)");
    assert!(meteo_serves >= 4, "SLA violated");
    println!("SLA met; remaining capacity went to the high-potential groups.");
}
