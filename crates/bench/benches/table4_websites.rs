//! Table IV — website fingerprinting accuracy across browsers and
//! system settings.
//!
//! Paper shape: top-1 well above 80 % in every setting, top-5 near
//! saturation; Tor Browser lower than Chrome; disabling frequency
//! scaling or hyper-threading helps slightly. (Scale substitution: the
//! paper's 95 sites × 100 traces × 5000-sample traces are reduced here —
//! chance level is printed so the margin over chance remains
//! comparable.)

use scenario::{run_scenario, RunOptions};
use segscope_attacks::website::{Browser, Setting, WebsiteFpConfig, WebsiteScenario};

fn main() {
    segscope_bench::header("Table IV: website fingerprinting (10-fold CV in the paper)");
    let full = segscope_bench::full_scale();
    let widths = [28, 14, 14, 14, 14];
    segscope_bench::print_row(
        &[
            "setting".into(),
            "Chrome top-1".into(),
            "Chrome top-5".into(),
            "Tor top-1".into(),
            "Tor top-5".into(),
        ],
        &widths,
    );
    let settings: &[Setting] = if full {
        &Setting::ALL
    } else {
        &[Setting::Default, Setting::DifferentCores]
    };
    for &setting in settings {
        let mut cells = vec![setting.label().to_owned()];
        for browser in [Browser::Chrome, Browser::Tor] {
            let config = if full {
                WebsiteFpConfig::bench(browser, setting)
            } else {
                WebsiteFpConfig::quick(browser, setting)
            };
            let result = run_scenario(&WebsiteScenario, &config, &RunOptions::default()).summary;
            cells.push(segscope_bench::pct(result.top1));
            cells.push(segscope_bench::pct(result.top5));
            if browser == Browser::Tor {
                // Shape assertions per cell pair would be noisy at quick
                // scale; assert the headline margins after the Default row.
            }
        }
        segscope_bench::print_row(&cells, &widths);
    }
    let chance = if full {
        1.0 / WebsiteFpConfig::bench(Browser::Chrome, Setting::Default).n_sites as f64
    } else {
        1.0 / WebsiteFpConfig::quick(Browser::Chrome, Setting::Default).n_sites as f64
    };
    println!("\nchance level: {}", segscope_bench::pct(chance));
    println!(
        "paper Table IV (default): Chrome 92.4% / 98.4%, Tor 87.4% / 97.3% over 95 sites \
         (chance 1.1%)."
    );

    // Headline shape check on the default setting.
    let config = if full {
        WebsiteFpConfig::bench(Browser::Chrome, Setting::Default)
    } else {
        WebsiteFpConfig::quick(Browser::Chrome, Setting::Default)
    };
    let chrome = run_scenario(&WebsiteScenario, &config, &RunOptions::default()).summary;
    assert!(
        chrome.top1 > 4.0 * chance,
        "Chrome top-1 {} should dwarf chance {}",
        chrome.top1,
        chance
    );
    assert!(chrome.top5 >= chrome.top1);
    println!("\nshape check PASSED: top-1 far above chance; top-5 >= top-1.");
}
