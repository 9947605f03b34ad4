//! Fig. 4 — "Idleness model efficiency: evaluation of idleness modeling
//! over 3 years" for the eight Table II trace types.
//!
//! For each trace the model predicts every hour before observing it;
//! scores are bucketed into two-week windows. Paper expectations:
//!
//! * (a) daily backup and (c–g) real traces: F-measure > 97 % after a few
//!   weeks;
//! * (b) comic strips: ≈ 82 % F-measure, with the July–August holiday
//!   learned only in year 2 (year 3 more stable than year 2);
//! * (h) LLMU: specificity ≈ 1 almost immediately.

use dds_bench::{pct1, ExpOptions};
use dds_idleness::{evaluate_model_on_trace, ConfusionMatrix, IdlenessModel};
use dds_sim_core::stats::TextTable;
use dds_sim_core::SimRng;
use dds_traces::{nutanix_trace, TracePattern, VmTrace};

fn main() {
    let opts = ExpOptions::from_args(env!("CARGO_BIN_NAME"), &[]);
    let years = if opts.quick { 1 } else { 3 };
    let hours = years * 365 * 24;
    let window = 14 * 24;
    let rng = SimRng::new(opts.seed);

    // Table II: the eight trace types.
    let traces: Vec<(&str, &str, VmTrace)> = vec![
        (
            "a",
            "daily backup (once a day, 2am)",
            TracePattern::paper_daily_backup().generate(hours, &mut rng.stream("a")),
        ),
        (
            "b",
            "comic strips (3x/week, none Jul-Aug)",
            TracePattern::paper_comic_strips().generate(hours, &mut rng.stream("b")),
        ),
        (
            "c",
            "real trace 1 (daily, weekly)",
            nutanix_trace(1, hours, &rng),
        ),
        (
            "d",
            "real trace 2 (daily, weekly)",
            nutanix_trace(2, hours, &rng),
        ),
        (
            "e",
            "real trace 3 (daily, weekly)",
            nutanix_trace(3, hours, &rng),
        ),
        (
            "f",
            "real trace 4 (daily, weekly)",
            nutanix_trace(4, hours, &rng),
        ),
        (
            "g",
            "real trace 5 (daily, weekly)",
            nutanix_trace(5, hours, &rng),
        ),
        (
            "h",
            "long-lived mostly used (always active)",
            TracePattern::paper_llmu().generate(hours, &mut rng.stream("h")),
        ),
    ];

    println!("Fig. 4 — idleness-model quality over {years} year(s), 2-week windows\n");
    let mut summary = TextTable::new(vec![
        "subfig",
        "trace",
        "F @1mo",
        "F @6mo",
        "F last-qtr",
        "Recall",
        "Precision",
        "Specificity",
    ]);
    let mut csv = String::from("subfig,window,start_hour,recall,precision,f_measure,specificity\n");

    for (tag, desc, trace) in &traces {
        let mut model = IdlenessModel::with_defaults();
        let windows = evaluate_model_on_trace(&mut model, trace, hours as u64, window);
        for w in &windows {
            csv.push_str(&format!(
                "{},{},{},{:.4},{:.4},{:.4},{:.4}\n",
                tag,
                w.window,
                w.start_hour,
                w.recall(),
                w.precision(),
                w.f_measure(),
                w.specificity()
            ));
        }
        let at = |windows_idx: usize| -> f64 {
            windows
                .get(windows_idx.min(windows.len().saturating_sub(1)))
                .map(|w| w.f_measure())
                .unwrap_or(0.0)
        };
        // Last quarter aggregate.
        let tail_from = windows.len() - windows.len() / 4 - 1;
        let mut tail = ConfusionMatrix::new();
        for w in &windows[tail_from..] {
            tail.merge(&w.matrix);
        }
        summary.row(vec![
            tag.to_string(),
            desc.to_string(),
            pct1(at(2)),
            pct1(at(13)),
            pct1(tail.f_measure()),
            pct1(tail.recall()),
            pct1(tail.precision()),
            pct1(tail.specificity()),
        ]);
    }
    println!("{}", summary.render());
    opts.write_csv("fig4_im_quality.csv", &csv);
    println!("paper: (a, c-g) F > 97 % after a few weeks; (b) ≈ 82 %; (h) specificity ≈ 1");
}
