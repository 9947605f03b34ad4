//! Shared helpers for the Drowsy-DC experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md for the index). They share flag parsing (`--quick`
//! for CI-speed runs, `--seed N`, `--out DIR`, plus the optional shared
//! [`Flag`]s each binary declares) and CSV emission.

use std::path::{Path, PathBuf};

use dds_core::datacenter::dc_spans;
use dds_core::registry::PolicyRegistry;
use dds_scenarios::Scenario;
use dds_sim_core::WorkerPool;
use dds_telemetry::{MetricKind, MetricsRegistry};

pub mod tournament;

/// A shared flag beyond `--quick`, `--seed` and `--out`, which every
/// binary takes. Each binary declares the ones it honours; any other
/// shared flag on its command line is a usage error, so a flag is never
/// accepted and then silently ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--policies <name,…>`: the control policies to run.
    Policies,
    /// `--threads <n>`: sweep worker threads.
    Threads,
    /// `--hosts <n>`: the fleet-size override.
    Hosts,
    /// `--json`: machine-readable `BENCH_*.json` artifacts.
    Json,
    /// `--telemetry[=DIR]`: the telemetry artifacts.
    Telemetry,
    /// `--trace-epochs <n>`: flight-recorder depth.
    TraceEpochs,
}

impl Flag {
    /// The flag as written on the command line.
    fn name(self) -> &'static str {
        match self {
            Flag::Policies => "--policies",
            Flag::Threads => "--threads",
            Flag::Hosts => "--hosts",
            Flag::Json => "--json",
            Flag::Telemetry => "--telemetry",
            Flag::TraceEpochs => "--trace-epochs",
        }
    }

    /// The shared flag `arg` spells, if any.
    fn of(arg: &str) -> Option<Flag> {
        match arg {
            "--policies" => Some(Flag::Policies),
            "--threads" => Some(Flag::Threads),
            "--hosts" => Some(Flag::Hosts),
            "--json" => Some(Flag::Json),
            "--trace-epochs" => Some(Flag::TraceEpochs),
            _ if arg == "--telemetry" || arg.starts_with("--telemetry=") => Some(Flag::Telemetry),
            _ => None,
        }
    }
}

/// Common command-line options for experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Shrink the experiment for smoke runs.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV artifacts (`results/` by default).
    pub out_dir: PathBuf,
    /// Control policies to run, by registry name (`--policies a,b,c`);
    /// every name is checked against [`PolicyRegistry::standard`].
    /// `None` = the binary's default lineup.
    pub policies: Option<Vec<String>>,
    /// Worker threads for sweep binaries (0 = one per available core).
    pub threads: usize,
    /// Fleet-size override (`--hosts N`): binaries that simulate a fleet
    /// scale their host count (and proportional VM population) to `N`.
    /// `None` = the binary's default sizes.
    pub hosts: Option<usize>,
    /// Also emit machine-readable `BENCH_*.json` artifacts (`--json`),
    /// for CI trend tracking.
    pub json: bool,
    /// Emit the telemetry artifacts (`--telemetry[=DIR]`): the logical
    /// metrics snapshot (byte-identical across thread/shard/executor
    /// counts) and the timing snapshot (spans, pool busy time — never
    /// byte-diffed), as two separate files.
    pub telemetry: bool,
    /// Where the telemetry artifacts go; `None` = `out_dir`.
    pub telemetry_dir: Option<PathBuf>,
    /// Flight-recorder depth (`--trace-epochs N`): retain the last `N`
    /// epochs as structured records in fleet runs. `0` = disabled.
    pub trace_epochs: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: false,
            seed: 42,
            out_dir: PathBuf::from("results"),
            policies: None,
            threads: 0,
            hosts: None,
            json: false,
            telemetry: false,
            telemetry_dir: None,
            trace_epochs: 0,
        }
    }
}

impl ExpOptions {
    /// Parses `std::env::args()` for binary `bin` that takes only the
    /// shared flags: `--quick`, `--seed <u64>`, `--out <dir>` and the
    /// [`Flag`]s in `honours`. An unknown flag, a shared flag `bin` does
    /// not honour or a malformed value prints `error: …` and exits with
    /// status 2; binaries with extra flags use [`ExpOptions::parse`]
    /// instead.
    pub fn from_args(bin: &str, honours: &[Flag]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_strict(bin, honours, &args).unwrap_or_else(|e| usage_error(&e))
    }

    /// [`ExpOptions::parse`], rejecting every argument the shared layer
    /// does not consume.
    pub fn parse_strict(bin: &str, honours: &[Flag], args: &[String]) -> Result<Self, String> {
        let (opts, rest) = Self::parse(bin, honours, args)?;
        match rest.first() {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(opts),
        }
    }

    /// Parses the shared flags out of `args` for binary `bin` and returns
    /// the options plus every argument the shared layer did not consume
    /// (in order), for the binary to interpret (e.g. the `scenarios`
    /// binary's `--list` and scenario names). A shared [`Flag`] missing
    /// from `honours` is an error (`<bin> does not take --hosts`), as
    /// are a shared flag with a missing or malformed value and a
    /// `--policies` name the standard registry does not know.
    pub fn parse(
        bin: &str,
        honours: &[Flag],
        args: &[String],
    ) -> Result<(Self, Vec<String>), String> {
        fn value<'a>(
            args: &'a [String],
            i: usize,
            flag: &str,
            what: &str,
        ) -> Result<&'a str, String> {
            args.get(i)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs {what}"))
        }
        fn number<T: std::str::FromStr>(
            args: &[String],
            i: usize,
            flag: &str,
            what: &str,
        ) -> Result<T, String> {
            let v = value(args, i, flag, what)?;
            v.parse()
                .map_err(|_| format!("{flag} needs {what}, got '{v}'"))
        }
        let mut opts = ExpOptions::default();
        let mut rest = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(flag) = Flag::of(&args[i]) {
                if !honours.contains(&flag) {
                    return Err(format!("{bin} does not take {}", flag.name()));
                }
            }
            match args[i].as_str() {
                "--quick" => opts.quick = true,
                "--json" => opts.json = true,
                "--seed" => {
                    i += 1;
                    opts.seed = number(args, i, "--seed", "a u64")?;
                }
                "--out" => {
                    i += 1;
                    opts.out_dir = PathBuf::from(value(args, i, "--out", "a directory")?);
                }
                "--policies" => {
                    i += 1;
                    let list = value(args, i, "--policies", "a comma-separated list")?;
                    let names: Vec<String> = list
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    let registry = PolicyRegistry::standard();
                    if let Err(e) = registry.resolve(&names) {
                        return Err(format!("{e} (registered: {})", registry.names().join(", ")));
                    }
                    opts.policies = Some(names);
                }
                "--threads" => {
                    i += 1;
                    opts.threads = number(args, i, "--threads", "a usize")?;
                }
                "--hosts" => {
                    i += 1;
                    let n: usize = number(args, i, "--hosts", "a positive usize")?;
                    if n == 0 {
                        return Err("--hosts needs a positive usize, got '0'".to_string());
                    }
                    opts.hosts = Some(n);
                }
                "--telemetry" => opts.telemetry = true,
                "--trace-epochs" => {
                    i += 1;
                    opts.trace_epochs = number(args, i, "--trace-epochs", "a usize")?;
                }
                other if other.starts_with("--telemetry=") => {
                    let dir = &other["--telemetry=".len()..];
                    if dir.is_empty() {
                        return Err("--telemetry= needs a directory".to_string());
                    }
                    opts.telemetry = true;
                    opts.telemetry_dir = Some(PathBuf::from(dir));
                }
                other => rest.push(other.to_string()),
            }
            i += 1;
        }
        Ok((opts, rest))
    }

    /// The policies to run: the `--policies` selection, or `default`.
    pub fn policies_or(&self, default: &[&str]) -> Vec<String> {
        match &self.policies {
            Some(list) => list.clone(),
            None => default.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Replaces a scenario's policy lineup with the `--policies`
    /// selection (no-op without the flag).
    pub fn select_policies(&self, scenario: &mut Scenario) {
        if let Some(list) = &self.policies {
            scenario.policies = list.clone();
        }
    }

    /// Writes a CSV artifact under the output directory, creating it as
    /// needed; prints the path so runs are self-describing.
    pub fn write_csv(&self, name: &str, content: &str) {
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(name);
        match std::fs::write(&path, content) {
            Ok(()) => println!("[wrote {}]", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    /// Starts a `BENCH_*.json` artifact with the provenance header every
    /// experiment shares (bench name, `--quick` flag, seed). Chain the
    /// binary-specific fields onto the result and hand it to
    /// [`ExpOptions::write_bench_json`].
    pub fn bench_json(&self, bench: &str) -> JsonObject {
        JsonObject::new()
            .str("bench", bench)
            .bool("quick", self.quick)
            .int("seed", self.seed)
    }

    /// Writes a machine-readable `BENCH_<name>.json` artifact when
    /// `--json` was passed (no-op otherwise). Use
    /// [`ExpOptions::bench_json`] to build the content.
    pub fn write_bench_json(&self, name: &str, json: &JsonObject) {
        if !self.json {
            return;
        }
        self.write_csv(&format!("BENCH_{name}.json"), &json.render());
    }

    /// Where the telemetry artifacts land: the `--telemetry=DIR`
    /// override, or the shared output directory.
    pub fn telemetry_dir(&self) -> PathBuf {
        self.telemetry_dir
            .clone()
            .unwrap_or_else(|| self.out_dir.clone())
    }

    /// The flight-recorder dump path under the telemetry directory.
    pub fn flight_recorder_path(&self) -> PathBuf {
        self.telemetry_dir().join("flight_recorder.jsonl")
    }

    /// Writes the two telemetry artifacts when `--telemetry` was passed
    /// (no-op otherwise):
    ///
    /// * `telemetry_logical.json` — the process-global **logical**
    ///   snapshot (plus `extra_logical`, e.g. a fleet sim's per-run
    ///   registry). Deterministic: byte-identical across
    ///   thread/shard/executor counts for the same experiment, so CI
    ///   byte-diffs it between a serial and a pooled run.
    /// * `telemetry_timing.json` — the **timing** snapshot: timing-kind
    ///   metrics, the datacenter control-plane spans, per-worker pool
    ///   busy/uptime (plus `extra_timing`). Wall-clock; never
    ///   byte-compared, only parsed.
    pub fn write_telemetry(
        &self,
        bench: &str,
        extra_logical: Option<&JsonObject>,
        extra_timing: Option<&JsonObject>,
    ) {
        if !self.telemetry {
            return;
        }
        let dir = self.telemetry_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let reg = MetricsRegistry::global();
        let mut logical = JsonObject::new()
            .str("bench", bench)
            .str("kind", "logical")
            .int("seed", self.seed)
            .object("metrics", &reg.snapshot(MetricKind::Logical));
        if let Some(extra) = extra_logical {
            logical = logical.object("run", extra);
        }
        let pool = WorkerPool::global();
        let busy = pool.busy_ns();
        let busy_items: Vec<JsonObject> = busy
            .iter()
            .enumerate()
            .map(|(i, &ns)| {
                JsonObject::new()
                    .int("worker", i as u64)
                    .num("busy_ms", ns as f64 / 1e6)
            })
            .collect();
        let pool_json = JsonObject::new()
            .int("workers", busy.len() as u64)
            .num("uptime_ms", pool.uptime_ns() as f64 / 1e6)
            .array("busy", &busy_items);
        let mut timing = JsonObject::new()
            .str("bench", bench)
            .str("kind", "timing")
            .object("metrics", &reg.snapshot(MetricKind::Timing))
            .object("dc_spans", &dc_spans().to_json())
            .object("pool", &pool_json);
        if let Some(extra) = extra_timing {
            timing = timing.object("run", extra);
        }
        for (name, obj) in [
            ("telemetry_logical.json", &logical),
            ("telemetry_timing.json", &timing),
        ] {
            let path = dir.join(name);
            match std::fs::write(&path, obj.render()) {
                Ok(()) => println!("[wrote {}]", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
    }
}

pub use dds_telemetry::json::{json_escape, JsonObject};

/// Prints `error: {msg}` to stderr and exits with status 2 — the
/// experiment binaries' response to a command line they do not
/// understand.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Formats a fraction as `xx.x` percent.
pub fn pct1(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Formats a fraction as integer percent (paper-table style).
pub fn pct0(x: f64) -> String {
    format!("{:.0}", x * 100.0)
}

/// True when a path exists (test helper).
pub fn exists(p: &Path) -> bool {
    p.exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const ALL: &[Flag] = &[
        Flag::Policies,
        Flag::Threads,
        Flag::Hosts,
        Flag::Json,
        Flag::Telemetry,
        Flag::TraceEpochs,
    ];

    /// Parses for a binary that honours every shared flag.
    fn parse(args: &[&str]) -> Result<(ExpOptions, Vec<String>), String> {
        ExpOptions::parse("demo", ALL, &strings(args))
    }

    fn parse_strict(args: &[&str]) -> Result<ExpOptions, String> {
        ExpOptions::parse_strict("demo", ALL, &strings(args))
    }

    #[test]
    fn defaults_are_sane() {
        let o = ExpOptions::default();
        assert!(!o.quick);
        assert_eq!(o.seed, 42);
        assert_eq!(o.out_dir, PathBuf::from("results"));
        assert_eq!(o.policies, None);
        assert_eq!(o.threads, 0);
        assert_eq!(o.hosts, None);
        assert!(!o.json);
        assert!(!o.telemetry);
        assert_eq!(o.telemetry_dir, None);
        assert_eq!(o.trace_epochs, 0);
    }

    #[test]
    fn telemetry_flags_parse() {
        let opts = parse_strict(&["--telemetry", "--trace-epochs", "64"]).unwrap();
        assert!(opts.telemetry);
        assert_eq!(opts.trace_epochs, 64);
        assert_eq!(opts.telemetry_dir(), opts.out_dir);

        let opts = parse_strict(&["--telemetry=tele/out"]).unwrap();
        assert!(opts.telemetry);
        assert_eq!(opts.telemetry_dir(), PathBuf::from("tele/out"));
        assert_eq!(
            opts.flight_recorder_path(),
            PathBuf::from("tele/out/flight_recorder.jsonl")
        );
    }

    #[test]
    fn telemetry_artifacts_are_gated_and_split() {
        let dir = std::env::temp_dir().join(format!("dds-bench-tele-{}", std::process::id()));
        let mut opts = ExpOptions {
            telemetry_dir: Some(dir.clone()),
            ..Default::default()
        };
        // Gated: nothing written without the flag.
        opts.write_telemetry("demo", None, None);
        assert!(!exists(&dir.join("telemetry_logical.json")));
        opts.telemetry = true;
        let run = JsonObject::new().int("fleet.suspends", 12);
        opts.write_telemetry("demo", Some(&run), None);
        let logical = std::fs::read_to_string(dir.join("telemetry_logical.json")).unwrap();
        assert!(logical.contains("\"kind\": \"logical\""), "{logical}");
        assert!(logical.contains("\"fleet.suspends\":12"), "{logical}");
        let timing = std::fs::read_to_string(dir.join("telemetry_timing.json")).unwrap();
        assert!(timing.contains("\"kind\": \"timing\""), "{timing}");
        assert!(timing.contains("\"pool\""), "{timing}");
        assert!(timing.contains("\"dc_spans\""), "{timing}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn json_builder_renders_and_escapes() {
        let obj = JsonObject::new()
            .str("name", "engine \"quick\"")
            .num("ratio", 1.5)
            .int("hours", 48)
            .bool("identical", true)
            .array("points", &[JsonObject::new().int("n", 64).num("ms", 0.25)]);
        let s = obj.render();
        assert!(s.contains("\"name\": \"engine \\\"quick\\\"\""), "{s}");
        assert!(s.contains("\"ratio\": 1.5"), "{s}");
        assert!(s.contains("\"identical\": true"), "{s}");
        assert!(s.contains("\"points\": [{\"n\":64,\"ms\":0.25}]"), "{s}");
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn bench_json_is_gated_on_the_flag() {
        let dir = std::env::temp_dir().join(format!("dds-bench-json-{}", std::process::id()));
        let mut opts = ExpOptions {
            out_dir: dir.clone(),
            ..Default::default()
        };
        opts.write_bench_json("off", &JsonObject::new().int("x", 1));
        assert!(!exists(&dir.join("BENCH_off.json")));
        opts.json = true;
        opts.write_bench_json("on", &JsonObject::new().int("x", 1));
        assert!(exists(&dir.join("BENCH_on.json")));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn policy_selection_falls_back_to_the_default_lineup() {
        let mut o = ExpOptions::default();
        assert_eq!(
            o.policies_or(&["drowsy-dc", "neat"]),
            vec!["drowsy-dc", "neat"]
        );
        o.policies = Some(vec!["sleepscale".to_string()]);
        assert_eq!(o.policies_or(&["drowsy-dc"]), vec!["sleepscale"]);
    }

    #[test]
    fn unknown_policies_are_rejected_with_the_registered_names() {
        let err = parse(&["--quick", "--policies", "drowsy-dc,warp"]).unwrap_err();
        let registered = PolicyRegistry::standard().names().join(", ");
        assert_eq!(
            err,
            format!("unknown policy 'warp' (registered: {registered})")
        );
        let (opts, _) = parse(&["--policies", "neat, sla-aware"]).unwrap();
        assert_eq!(
            opts.policies,
            Some(vec!["neat".to_string(), "sla-aware".to_string()])
        );
    }

    #[test]
    fn scenario_runs_honour_the_policy_selection() {
        let mut s = dds_scenarios::find("idle-fleet").expect("catalog entry");
        assert!(s.policies.len() > 1, "the catalog lineup has a baseline");
        let lineup = s.policies.clone();
        ExpOptions::default().select_policies(&mut s);
        assert_eq!(s.policies, lineup, "no flag, no change");
        let (opts, _) = parse(&["--policies", "drowsy-dc"]).unwrap();
        opts.select_policies(&mut s);
        let points = s.sweep_points(None);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].policy, "drowsy-dc");
    }

    #[test]
    fn parse_returns_unconsumed_arguments_in_order() {
        let (opts, rest) =
            parse(&["--list", "--quick", "office-park", "--seed", "7", "--file"]).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.seed, 7);
        assert_eq!(rest, vec!["--list", "office-park", "--file"]);
    }

    #[test]
    fn fleet_size_knob_parses_and_falls_back() {
        let opts = parse_strict(&["--hosts", "1000", "--threads", "4"]).unwrap();
        assert_eq!(opts.hosts, Some(1000));
        assert_eq!(opts.threads, 4);
        assert_eq!(ExpOptions::default().hosts, None);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let args = ["--quick", "--pool"];
        assert_eq!(parse_strict(&args).unwrap_err(), "unknown flag --pool");
        // `parse` hands the remainder to the binary instead.
        let (opts, rest) = parse(&args).unwrap();
        assert!(opts.quick);
        assert_eq!(rest, vec!["--pool"]);
    }

    #[test]
    fn shared_flags_a_binary_does_not_honour_are_rejected() {
        let args = strings(&["--quick", "--hosts", "400"]);
        assert_eq!(
            ExpOptions::parse_strict("table1_suspension", &[], &args).unwrap_err(),
            "table1_suspension does not take --hosts"
        );
        for &flag in ALL {
            let mut cmd = vec![flag.name()];
            if !matches!(flag, Flag::Json | Flag::Telemetry) {
                cmd.push(if flag == Flag::Policies { "neat" } else { "4" });
            }
            let cmd = strings(&cmd);
            let others: Vec<Flag> = ALL.iter().copied().filter(|&f| f != flag).collect();
            assert_eq!(
                ExpOptions::parse_strict("bin", &others, &cmd).unwrap_err(),
                format!("bin does not take {}", flag.name())
            );
            assert!(ExpOptions::parse_strict("bin", &[flag], &cmd).is_ok());
        }
        let dir = strings(&["--telemetry=tele"]);
        assert_eq!(
            ExpOptions::parse_strict("bin", &[], &dir).unwrap_err(),
            "bin does not take --telemetry"
        );
        // --quick, --seed and --out need no declaration.
        let base = strings(&["--quick", "--seed", "7", "--out", "o"]);
        assert!(ExpOptions::parse_strict("bin", &[], &base).is_ok());
    }

    #[test]
    fn missing_or_malformed_values_are_errors() {
        for flag in ["--seed", "--threads", "--hosts", "--trace-epochs"] {
            let missing = parse(&["--quick", flag]).unwrap_err();
            assert!(missing.starts_with(&format!("{flag} needs")), "{missing}");
            let bad = parse(&[flag, "many"]).unwrap_err();
            assert!(bad.contains("got 'many'"), "{bad}");
        }
        assert!(parse(&["--hosts", "0"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn bench_json_carries_the_shared_header() {
        let opts = ExpOptions {
            quick: true,
            seed: 9,
            ..Default::default()
        };
        let s = opts.bench_json("demo").num("extra", 1.5).render();
        assert!(s.contains("\"bench\": \"demo\""), "{s}");
        assert!(s.contains("\"quick\": true"), "{s}");
        assert!(s.contains("\"seed\": 9"), "{s}");
        assert!(s.contains("\"extra\": 1.5"), "{s}");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct1(0.6634), "66.3");
        assert_eq!(pct0(0.94), "94");
    }

    #[test]
    fn write_csv_creates_artifact() {
        let dir = std::env::temp_dir().join(format!("dds-bench-test-{}", std::process::id()));
        let opts = ExpOptions {
            quick: true,
            seed: 1,
            out_dir: dir.clone(),
            ..Default::default()
        };
        opts.write_csv("t.csv", "a,b\n1,2\n");
        assert!(exists(&dir.join("t.csv")));
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(content.starts_with("a,b"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
