//! E6 — Rejuvenation policies vs an APT (§II-C).
//!
//! Claim: replication+diversity hold only while ≤ f replicas are
//! compromised; rejuvenation restores the budget, and *diverse*
//! rejuvenation "reduc\[es\] the success rate of APTs".
//!
//! Sweep: policies {none, periodic-same, periodic-diverse, reactive-diverse}
//! × rejuvenation intervals. Metrics: survival rate at horizon, mean time
//! to failure, availability, rejuvenations performed.

use rsoc_bench::{f3, ExpOptions, Table};
use rsoc_rejuv::{simulate, AptConfig, Policy};
use rsoc_sim::SimRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    policy: String,
    interval: u64,
    survival_rate: f64,
    mttf: f64,
    availability: f64,
    rejuvenations: f64,
}

fn main() {
    let options = ExpOptions::from_args();
    let trials = options.trials(200);
    let root = SimRng::new(0xE6);
    let config = AptConfig {
        n_replicas: 4,
        f: 1,
        mean_exploit_time: 3_000.0,
        rejuvenation_downtime: 50,
        horizon: 50_000,
        ..Default::default()
    };

    let mut table = Table::new(
        "E6 APT campaigns (horizon 50k): policy vs survival",
        &["policy", "interval", "survival", "mttf", "availability", "rejuvs"],
    );
    let policies: Vec<(String, u64, Policy)> = vec![
        ("none".into(), 0, Policy::None),
        ("periodic-same".into(), 2_000, Policy::PeriodicSame { interval: 2_000 }),
        ("periodic-diverse".into(), 4_000, Policy::PeriodicDiverse { interval: 4_000 }),
        ("periodic-diverse".into(), 2_000, Policy::PeriodicDiverse { interval: 2_000 }),
        ("periodic-diverse".into(), 1_000, Policy::PeriodicDiverse { interval: 1_000 }),
        (
            "reactive-diverse".into(),
            500,
            Policy::ReactiveDiverse { check_interval: 500, detection_prob: 0.5 },
        ),
    ];
    // One cell per policy; campaign RNG streams fork from the root by
    // (policy index, trial), so cells fan out across threads.
    let indexed: Vec<(usize, (String, u64, Policy))> = policies.into_iter().enumerate().collect();
    let tallies = rsoc_bench::run_cells(&indexed, options.jobs, |(pi, (_, _, policy))| {
        let mut survived = 0u64;
        let mut ttf_sum = 0.0;
        let mut avail_sum = 0.0;
        let mut rejuv_sum = 0.0;
        for t in 0..trials {
            let mut rng = root.fork((*pi as u64) * 1_000_000 + t + 1);
            let r = simulate(&config, *policy, &mut rng);
            if r.survived {
                survived += 1;
            }
            ttf_sum += r.time_to_failure as f64;
            avail_sum += r.availability;
            rejuv_sum += r.rejuvenations as f64;
        }
        (survived, ttf_sum, avail_sum, rejuv_sum)
    });
    for ((_, (name, interval, _)), &(survived, ttf_sum, avail_sum, rejuv_sum)) in
        indexed.iter().zip(&tallies)
    {
        let n = trials as f64;
        table.row(
            &[
                name.clone(),
                if *interval == 0 { "-".into() } else { interval.to_string() },
                f3(survived as f64 / n),
                format!("{:.0}", ttf_sum / n),
                f3(avail_sum / n),
                format!("{:.1}", rejuv_sum / n),
            ],
            &Row {
                policy: name.clone(),
                interval: *interval,
                survival_rate: survived as f64 / n,
                mttf: ttf_sum / n,
                availability: avail_sum / n,
                rejuvenations: rejuv_sum / n,
            },
        );
    }
    table.print(options.json);
    println!(
        "\nExpected shape (paper §II-C): no rejuvenation loses eventually;\n\
         same-variant restarts barely help (the exploit inventory re-strikes\n\
         instantly); diverse rejuvenation extends survival sharply — the\n\
         faster the cycle, the more adversary effort is wasted — at a small\n\
         availability cost; reactive rejuvenation approximates periodic-\n\
         diverse at far fewer restarts when detection is decent."
    );
}
