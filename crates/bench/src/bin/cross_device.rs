//! §VII extension: NORA on PCM vs ReRAM tiles.
//!
//! The paper claims the method "can also be extended to other NVM devices
//! such as ReRAM"; this binary verifies it: NORA's gain is device-agnostic
//! because the rescaling lives in the scaling factors, not the device.

use nora_bench::{prepare_cached, Error};
use nora_eval::runner::{cross_device, CrossDeviceRow};
use nora_nn::zoo::{opt_presets, other_presets};

fn main() -> Result<(), Error> {
    let prepared = vec![
        prepare_cached(&opt_presets()[2])?,
        prepare_cached(&other_presets()[2])?,
    ];
    let rows = cross_device(&prepared, 0xde);
    println!("{}", CrossDeviceRow::table(&rows).render());
    Ok(())
}
