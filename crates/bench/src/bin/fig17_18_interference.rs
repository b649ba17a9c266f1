//! Figures 17 and 18: interference-dominated channels. Five uploading
//! clients with imperfect carrier sense; aggregate TCP throughput vs the
//! carrier-sense probability, and rate-selection accuracy at Pr\[CS\]=0.8.
//!
//! A thin wrapper over the scenario engine: one PHY-backed scenario with a
//! `topology.carrier_sense_prob` sweep axis and five adapters; the binary
//! only renders the two figures from the engine's result rows.

use softrate_bench::{banner, smoke_mode, write_json};
use softrate_scenario::engine::run_spec;
use softrate_scenario::prelude::*;
use softrate_scenario::spec::{Sweep, SweepAxis};

fn main() {
    let smoke = smoke_mode();
    banner("Figures 17/18: TCP throughput vs carrier-sense probability (static links)");
    let n_clients = if smoke { 3 } else { 5 };
    let duration = if smoke { 2.0 } else { 10.0 };
    let probs: Vec<f64> = if smoke {
        vec![0.0, 0.5, 1.0]
    } else {
        vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let audited_cs = if smoke { 0.5 } else { 0.8 };

    let adapters = [
        AdapterSpec::SoftRateIdeal,
        AdapterSpec::SoftRate,
        AdapterSpec::Rraa,
        AdapterSpec::SampleRate,
        AdapterSpec::SoftRateNoDetect,
    ];
    let spec = ScenarioSpec {
        name: "fig17-18-interference".into(),
        description: Some("figs. 17/18: carrier-sense sweep over the full PHY".into()),
        duration,
        seed: 0xF17,
        topology: TopologySpec {
            n_clients: Some(n_clients),
            carrier_sense_prob: Some(probs[0]),
            queue_cap: None,
            spatial: None,
        },
        channel: ChannelSpec {
            model: ChannelModel::Phy,
            snr_db: 17.0,
            fading: softrate_channel::model::FadingSpec::None,
            attenuation: None,
            interference: None,
            probe_interval: None,
        },
        traffic: TrafficSpec {
            kind: TrafficModel::Tcp,
            direction: None,
        },
        faults: None,
        adapters: Some(adapters.to_vec()),
        sweep: Some(Sweep(vec![SweepAxis {
            param: "topology.carrier_sense_prob".into(),
            values: probs.iter().map(|&p| serde::Value::Float(p)).collect(),
        }])),
    };

    eprintln!("(PHY trace generation is cached under results/traces; first run is slow)");
    let results = run_spec(&spec, None).expect("fig17/18 scenario runs");

    // Matrix order: carrier-sense axis outermost, adapters innermost.
    println!(
        "\nFigure 17: aggregate TCP throughput (Mbps), {n_clients} uploading clients\n{:>22} {}",
        "algorithm",
        probs
            .iter()
            .map(|p| format!("{:>9}", format!("cs={p:.1}")))
            .collect::<String>()
    );
    let mut fig17 = Vec::new();
    let mut fig18 = Vec::new();
    for (a, adapter) in adapters.iter().enumerate() {
        let mut row = format!("{:>22}", adapter.label());
        let mut series = Vec::new();
        for (p, prob) in probs.iter().enumerate() {
            let r = &results[p * adapters.len() + a];
            row.push_str(&format!("{:>9.2}", r.goodput_bps / 1e6));
            series.push(r.goodput_bps / 1e6);
            if (prob - audited_cs).abs() < 1e-9 {
                fig18.push((adapter.label(), r.overselect, r.accurate, r.underselect));
            }
        }
        println!("{row}");
        fig17.push((adapter.label(), series));
    }

    println!("\nFigure 18: rate selection accuracy at Pr[carrier sense] = {audited_cs}");
    println!(
        "{:>22} {:>12} {:>12} {:>12}",
        "algorithm", "overselect", "accurate", "underselect"
    );
    for (name, over, acc, under) in &fig18 {
        println!("{name:>22} {over:>12.3} {acc:>12.3} {under:>12.3}");
    }
    println!("\npaper: RRAA reduces rate on collisions and underselects badly;");
    println!("SoftRate's interference detection avoids that penalty, and the ideal");
    println!("version (postambles + perfect detection) tracks the omniscient curve");
    write_json("fig17_18_interference.json", &(fig17, fig18));
}
