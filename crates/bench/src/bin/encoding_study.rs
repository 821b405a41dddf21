//! Input-encoding ablation: analog multi-level DAC vs bit-serial binary
//! drive (ISAAC-style), under the Table II noise set and under a strong
//! driver S-shape nonlinearity.
//!
//! Bit-serial drivers trade conversion rounds (energy/latency) for
//! robustness: binary levels cancel the S-shape exactly, and the digital
//! shift-add attenuates per-plane additive output noise.

use nora_bench::{prepare_cached, Error};
use nora_cim::{InputEncoding, TileConfig};
use nora_core::RescalePlan;
use nora_eval::report::{pct, Table};
use nora_eval::tasks::analog_accuracy;
use nora_nn::zoo::opt_presets;

fn main() -> Result<(), Error> {
    let prepared = prepare_cached(&opt_presets()[2])?;
    let mut t = Table::new(&["tile config", "encoding", "plan", "acc%"])
        .with_title("Input-encoding ablation — analog DAC vs bit-serial drive");

    let scenarios: Vec<(&str, TileConfig)> = vec![
        ("table2", TileConfig::paper_default()),
        ("table2 + s_shape=2", {
            let mut c = TileConfig::paper_default();
            c.s_shape = 2.0;
            c
        }),
    ];
    for (name, base) in scenarios {
        for (enc_name, enc) in [
            ("analog-7bit", InputEncoding::Analog),
            ("bit-serial-7bit", InputEncoding::BitSerial { bits: 7 }),
        ] {
            for (plan_name, plan) in [
                ("naive", RescalePlan::naive()),
                ("nora", prepared.nora_plan.clone()),
            ] {
                let mut cfg = base.clone();
                cfg.input_encoding = enc;
                let mut analog = plan.deploy(&prepared.zoo.model, cfg, 0xe2c);
                let acc = analog_accuracy(&mut analog, &prepared.episodes);
                t.row_owned(vec![
                    name.to_string(),
                    enc_name.to_string(),
                    plan_name.to_string(),
                    pct(acc),
                ]);
            }
        }
    }
    println!("{}", t.render());
    println!("digital baseline: {}%", pct(prepared.digital_acc));
    Ok(())
}
