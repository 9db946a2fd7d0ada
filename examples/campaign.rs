//! The full measurement campaign: replays the paper's nine-month study
//! and regenerates every table and figure through the experiment
//! registry.
//!
//! ```sh
//! cargo run --release --example campaign            # full 270 days
//! cargo run --release --example campaign -- 30      # shorter campaign
//! cargo run --release --example campaign -- 30 0.5  # with fault injection
//! ```
//!
//! JSON artifacts for each experiment land in `target/experiments/`.

use sp2_repro::core::{export, plot, Json, Sp2System};

/// Pulls a numeric series out of an experiment's JSON document.
fn f64_series(doc: &Json, key: &str) -> Vec<f64> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Pulls an `[x, y]`-pair series out of an experiment's JSON document.
fn pair_series(doc: &Json, key: &str) -> Vec<(f64, f64)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|p| {
                    let pair = p.as_arr()?;
                    Some((pair.first()?.as_f64()?, pair.get(1)?.as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn main() {
    let days: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(270);
    let faults: f64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.0);

    println!("building workload library and running a {days}-day campaign…");
    let mut system = Sp2System::builder().days(days).faults(faults).build();
    let datasets = match system.run_all() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    };

    for dataset in &datasets {
        println!("{}", dataset.rendered);

        // The figures the paper plots get ASCII scatter renderings too,
        // driven entirely from the exported JSON documents.
        match dataset.id {
            "fig1" => {
                let daily: Vec<(f64, f64)> = f64_series(&dataset.json, "daily_gflops")
                    .into_iter()
                    .enumerate()
                    .map(|(d, g)| (d as f64, g))
                    .collect();
                let ma: Vec<(f64, f64)> = f64_series(&dataset.json, "gflops_moving_avg")
                    .into_iter()
                    .enumerate()
                    .map(|(d, g)| (d as f64, g))
                    .collect();
                println!(
                    "{}",
                    plot::scatter2(
                        "Figure 1 (plot): daily Gflops with moving average",
                        &daily,
                        &ma,
                        72,
                        14,
                    )
                );
            }
            "fig3" => {
                let pts = pair_series(&dataset.json, "points");
                println!(
                    "{}",
                    plot::scatter(
                        "Figure 3 (plot): Mflops/node vs nodes requested",
                        &pts,
                        72,
                        12,
                        '.',
                    )
                );
            }
            "fig5" => {
                let pts: Vec<(f64, f64)> = pair_series(&dataset.json, "points")
                    .into_iter()
                    .filter(|&(x, _)| x < 5.0)
                    .collect();
                println!(
                    "{}",
                    plot::scatter(
                        "Figure 5 (plot): Mflops/node vs system/user FXU ratio",
                        &pts,
                        72,
                        12,
                        '.',
                    )
                );
            }
            _ => {}
        }
    }

    for dataset in &datasets {
        match dataset.write_artifact() {
            Ok(path) => println!("wrote {} artifact: {}", dataset.id, path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", dataset.id),
        }
    }
    println!("artifacts in {}", export::artifacts_dir().display());
}
