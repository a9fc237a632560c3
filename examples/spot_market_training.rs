//! Spot-market training: MLR classification on a volatile market, with
//! the full Proteus loop narrated step by step.
//!
//! ```text
//! cargo run --release --example spot_market_training
//! ```
//!
//! Uses a deliberately turbulent market so the run shows acquisitions,
//! eviction warnings, drains, and free compute within a few simulated
//! hours.
//!
//! Market time and training are decoupled: `run_market_hours` moves the
//! market (and the job only by the few batches each transition needs),
//! `wait_clock` trains. The loop below does an hour of market and five
//! clocks of training per step.

use proteus::market::MarketModel;
use proteus::{Proteus, ProteusConfig};
use proteus_mlapps::data::{imagenet_like, MlrDataConfig};
use proteus_mlapps::mlr::{Mlr, MlrConfig};

fn main() -> Result<(), String> {
    let data = imagenet_like(
        &MlrDataConfig {
            examples: 300,
            dim: 12,
            classes: 4,
            separation: 2.0,
            noise: 0.5,
        },
        19,
    );
    let app = Mlr::new(MlrConfig {
        dim: 12,
        classes: 4,
        learning_rate: 0.08,
        reg: 1e-4,
    });
    let config = ProteusConfig {
        market_model: MarketModel::volatile(),
        max_machines: 10,
        ..ProteusConfig::default()
    };

    println!("launching Proteus for MLR on a volatile spot market…");
    let mut session = Proteus::launch(app, data.clone(), config)?;
    let start_obj = session.job().objective(&data)?;

    for hour in 1..=8 {
        session.run_market_hours(1.0)?;
        session.wait_clock(5 * hour)?;
        let status = session.job().status()?;
        println!(
            "market hour {hour}: {} transient machines, stage {:?}, clock {}",
            session.transient_machines(),
            status.stage,
            status.min_clock
        );
    }

    let report = session.finish()?;
    println!(
        "\ncross-entropy: {start_obj:.3} -> {:.3}",
        report.final_objective
    );
    println!(
        "allocations {}, evictions {}, free compute {:.0}%",
        report.allocations,
        report.evictions,
        100.0 * report.free_fraction()
    );
    println!(
        "bill ${:.2} (same hours on-demand: ${:.2})",
        report.cost,
        report.on_demand_equivalent(0.209)
    );
    Ok(())
}
