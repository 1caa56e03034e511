//! A timer-free cross-core covert channel built on SegScope (extension
//! from the paper's Discussion section): a sender modulates power draw,
//! the receiver decodes frequency changes from SegCnt.
//!
//! ```sh
//! cargo run --release --example covert_channel
//! ```

use segscope_repro::attacks::covert::{
    self, bits_to_bytes, bytes_to_bits, transmit_reliable, CovertConfig, CovertScenario,
};
use segscope_repro::scenario::Scenario;

fn main() {
    println!("== SegScope covert channel ==");
    let payload = b"HELLO FROM CORE 3";
    let bits = bytes_to_bits(payload);
    println!(
        "payload: {:?} ({} bits)\n",
        String::from_utf8_lossy(payload),
        bits.len()
    );

    for (label, config) in [
        ("slow (20 ms slots)", CovertConfig::slow()),
        ("fast (8 ms slots)", CovertConfig::fast()),
    ] {
        let (channel, payload) = (config, covert::bits_to_bitstring(&bits));
        let result =
            CovertScenario.run_one(&covert::CovertScenarioConfig { channel, payload }, 0xC0DE);
        let decoded = bits_to_bytes(&result.decoded);
        println!("{label}:");
        println!(
            "  raw rate {:.0} bit/s, goodput {:.0} bit/s",
            config.raw_bps(),
            result.goodput_bps
        );
        println!(
            "  bit errors {} / {} ({:.2}%)",
            result.errors,
            bits.len(),
            result.error_rate * 100.0
        );
        println!("  decoded: {:?}\n", String::from_utf8_lossy(&decoded));
    }

    // The residual errors vanish under a 3x repetition code.
    let reliable = transmit_reliable(&CovertConfig::slow(), &bits, 3, 0xC0DF);
    println!("slow + 3x repetition code:");
    println!(
        "  goodput {:.0} bit/s, errors {} -> decoded: {:?}",
        reliable.goodput_bps,
        reliable.errors,
        String::from_utf8_lossy(&bits_to_bytes(&reliable.decoded))
    );
}
