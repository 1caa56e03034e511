//! End-to-end website fingerprinting (paper Section IV-A): collect SegCnt
//! traces of simulated site visits, train the LSTM, and report top-1 /
//! top-5 accuracy for Chrome and Tor.
//!
//! ```sh
//! cargo run --release --example website_fingerprint
//! ```

use segscope_repro::attacks::website::{Browser, Setting, WebsiteFpConfig, WebsiteScenario};
use segscope_repro::scenario::{run_scenario, RunOptions};

fn main() {
    println!("== Website fingerprinting with SegScope traces ==");
    for browser in [Browser::Chrome, Browser::Tor] {
        let config = WebsiteFpConfig::quick(browser, Setting::Default);
        println!(
            "\n{browser:?}: {} sites x {} traces, {}-sample traces pooled to {}",
            config.n_sites, config.traces_per_site, config.trace_len, config.pooled_len
        );
        let result = run_scenario(&WebsiteScenario, &config, &RunOptions::default()).summary;
        println!(
            "top-1 accuracy: {:5.1}% +- {:.1}  (chance {:.1}%)",
            result.top1 * 100.0,
            result.top1_std * 100.0,
            result.chance * 100.0
        );
        println!(
            "top-5 accuracy: {:5.1}% +- {:.1}",
            result.top5 * 100.0,
            result.top5_std * 100.0
        );
    }
    println!("\n(use `cargo bench -p segscope-bench --bench table4_websites` for the full Table IV sweep)");
}
