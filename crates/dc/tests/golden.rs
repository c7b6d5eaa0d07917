//! Golden datacenter digests: sharing-dc's output, pinned across builds.
//!
//! Every line of `golden_digests.txt` is
//! `<case> <totals> <csv> <log>`: the FNV-1a 64 digests of the run's
//! `totals()` JSON and of its epoch `csv()`, then its `log_hash()` (the
//! same digest of the event log). The cases cover both billing modes and
//! all three placement policies on three seeds, over two fleets: the
//! bursty reference scenario cut to two chips, and a crowded one — small
//! chips under a heavy burst — that denies requests and drives
//! `Cloud::lease` into its compaction fallback.
//!
//! A change to placement, the auction or metering that moves any of
//! these bytes must update the file and say why in CHANGES.md. On a
//! mismatch this test prints the full regenerated table.

use sharing_dc::{fnv64, BillingMode, DcSim, Scenario};

const GOLDEN: &str = include_str!("golden_digests.txt");

const SEEDS: [u64; 3] = [1, 7, 2014];
const POLICIES: [&str; 3] = ["first-fit", "best-fit", "worst-fit"];

/// The bursty reference scenario on two chips and 24 epochs.
fn reference() -> Scenario {
    let mut sc = Scenario::example_bursty();
    sc.name = "golden-reference".into();
    sc.chips = 2;
    sc.epochs = 24;
    sc.arrivals.burst_start = 8;
    sc.arrivals.burst_len = 4;
    sc
}

/// Three 2×8 chips (8 Slices, 8 banks each) under a long, heavy burst
/// of short-lived tenants.
fn crowded() -> Scenario {
    let mut sc = reference();
    sc.name = "golden-crowded".into();
    sc.chips = 3;
    sc.rows = 2;
    sc.cols = 8;
    sc.arrivals.base_rate = 2.0;
    sc.arrivals.burst_rate = 12.0;
    sc.arrivals.burst_start = 4;
    sc.arrivals.burst_len = 12;
    sc.arrivals.mean_residence = 2.0;
    sc
}

/// Every case, in file order, with the crowded fleet's total denials.
fn table() -> (Vec<String>, u64) {
    let mut lines = Vec::new();
    let mut crowded_denials = 0;
    for (fleet, base) in [("reference", reference()), ("crowded", crowded())] {
        for policy in POLICIES {
            let mut sc = base.clone();
            sc.placement = policy.into();
            let sim = DcSim::new(sc).expect("golden scenarios are valid");
            for seed in SEEDS {
                for mode in [BillingMode::Sharing, BillingMode::Fixed] {
                    let out = sim.run(mode, seed);
                    let totals = out.totals();
                    if fleet == "crowded" {
                        crowded_denials += totals.denied_vcores;
                    }
                    lines.push(format!(
                        "{fleet}/{policy}/{}/seed{seed} {:016x} {:016x} {}",
                        mode.name(),
                        fnv64(sharing_json::to_string(&totals).as_bytes()),
                        fnv64(out.csv().as_bytes()),
                        out.log_hash()
                    ));
                }
            }
        }
    }
    (lines, crowded_denials)
}

#[test]
fn dc_outputs_match_golden_digests() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let (got, crowded_denials) = table();
    assert!(crowded_denials > 0, "the crowded fleet must deny requests");
    if got != expected {
        let moved: Vec<&String> = got
            .iter()
            .filter(|l| !expected.contains(&l.as_str()))
            .collect();
        panic!(
            "{} of {} golden lines differ, first {:?}.\n\
             Regenerated golden_digests.txt:\n{}\n",
            moved.len(),
            got.len(),
            moved.first(),
            got.join("\n")
        );
    }
}
