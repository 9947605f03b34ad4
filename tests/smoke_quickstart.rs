//! Smoke test mirroring `examples/quickstart.rs`: the façade's
//! documented entry path must run end-to-end and produce sane figures.
//! CI additionally runs the example binary itself
//! (`cargo run --example quickstart`).

use drowsy_dc::prelude::*;

#[test]
fn quickstart_path_produces_sane_figures() {
    let mut spec = TestbedSpec::paper_default();
    spec.days = 2; // the example runs 7 days; 2 keep the smoke test fast

    let drowsy = run_testbed(&spec, "drowsy-dc", 42);
    let always_on = run_testbed(&spec, "neat", 42);

    assert!(
        drowsy.global_suspension_fraction() > 0.0,
        "Drowsy-DC must suspend mostly-idle hosts"
    );
    assert_eq!(
        always_on.global_suspension_fraction(),
        0.0,
        "plain Neat never suspends"
    );
    let (d, n) = (drowsy.total_energy_kwh(), always_on.total_energy_kwh());
    assert!(d.is_finite() && d > 0.0, "energy must be positive, got {d}");
    assert!(
        d < n,
        "suspension must save energy: Drowsy-DC {d} kWh vs always-on {n} kWh"
    );
}
